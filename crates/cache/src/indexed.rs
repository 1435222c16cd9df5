//! O(1)-amortized indexed cache core: a slot arena threaded by an
//! intrusive doubly-linked recency list, plus a block→slot index.
//!
//! The scan representation in [`crate::LruCache`] costs O(C) per access (a
//! position scan plus a front removal that shifts the whole vector). That
//! ties with this module's direct-mapped flavor at C = 16 and is measurably
//! faster below it (the paper's C = 8), but costs twice as much per access
//! at the served tenants' C = 64 and caps sweeps at toy capacities (see
//! [`crate::SCAN_CROSSOVER`] for the numbers). This module provides the
//! representation the LRU cache switches to above the crossover: every
//! resident block owns a slot in a fixed-size arena, slots are chained in
//! recency (LRU at the head, MRU at the tail), and a [`BlockIndex`] maps a
//! block id to its slot in O(1). Access, eviction and clearing are all
//! O(1) (amortized for the hash index; exact for the dense index), so the
//! per-access cost is independent of the capacity.
//!
//! Two index flavors cover the two kinds of block spaces the workloads
//! produce:
//!
//! * [`BlockIndex::Hash`] — a hash map for arbitrary (sparse) block ids,
//!   with a pre-sized table and a cheap multiplicative hasher;
//! * [`BlockIndex::Dense`] — a direct-mapped vector for workloads that
//!   declare a dense block range (everything built on
//!   `wsf_workloads::block_alloc::BlockAlloc` allocates ids `0..n`), with
//!   generation-stamped entries so [`IndexedCache::clear`] is O(1) instead
//!   of O(block space). A cache reused across DAGs
//!   ([`IndexedCache::rehint`]) grows the index and its growth limit to
//!   each new declared space, so a larger DAG never pushes it onto the
//!   hash flavor.

use crate::{AccessOutcome, BlockId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel for "no slot" in the intrusive list links.
const NIL: u32 = u32::MAX;

/// Hard ceiling on direct-mapped index entries (16M keys ≈ 128 MB): a
/// declared block range is a *hint*, and one sentinel-high block id (e.g.
/// `Block(u32::MAX - 1)`, which `wsf_workloads::apps::map_reduce` uses for
/// its accumulator) must not turn the "dense fast path" into a gigabyte
/// allocation. Spaces beyond the ceiling use the hash index; a dense index
/// asked to grow past its per-instance limit migrates to hashing instead.
const DENSE_SPACE_LIMIT: usize = 1 << 24;

/// A minimal multiplicative hasher for `u32` block ids (Fibonacci hashing).
/// Block ids are small dense-ish integers; SipHash's DoS resistance buys
/// nothing here and costs most of the lookup.
#[derive(Clone, Default)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u32 keys are ever hashed; fold bytes defensively anyway.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, i: u32) {
        // Rotate (not shift) so the top bits stay populated: hashbrown
        // takes its 7-bit control tag from the top of the hash, and a
        // plain `>> 16` would give every key the same tag, degrading the
        // SIMD group filter to a linear scan of each probed group.
        self.0 = u64::from(i)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_right(16);
    }
}

pub(crate) type BlockHashMap = HashMap<BlockId, u32, BuildHasherDefault<BlockHasher>>;

/// Direct-mapped block→slot index with generation-stamped entries.
///
/// `entries[block]` holds `(generation, slot)`; an entry is live only if
/// its generation matches the index's current one, so clearing is a
/// generation bump, not an O(space) wipe. The vector grows on demand, which
/// keeps the index correct for out-of-range blocks (a declared range is a
/// pre-sizing hint, not a contract).
#[derive(Clone, Debug)]
pub(crate) struct DenseIndex {
    entries: Vec<(u32, u32)>,
    generation: u32,
    /// Largest key count this index may grow to; an insert beyond it makes
    /// the owning [`IndexedCache`] migrate to the hash index instead.
    limit: usize,
}

impl DenseIndex {
    fn new(space: usize) -> Self {
        debug_assert!(space <= DENSE_SPACE_LIMIT, "caller checks the ceiling");
        DenseIndex {
            entries: vec![(0, NIL); space],
            generation: 1,
            limit: Self::limit_for(space),
        }
    }

    /// The growth limit of an index declared for `keys` keys: blocks
    /// moderately past the declared range still index densely (the
    /// declaration is a hint, not a contract); far outliers trigger the
    /// hash migration.
    fn limit_for(keys: usize) -> usize {
        (2 * keys).clamp(4_096, DENSE_SPACE_LIMIT)
    }

    /// Grows the index to cover blocks `0..space` and raises its growth
    /// limit to match. Never shrinks; a space past the ceiling changes
    /// nothing (its outliers migrate to hashing as before).
    fn grow(&mut self, space: usize) {
        if space > DENSE_SPACE_LIMIT {
            return;
        }
        if space > self.entries.len() {
            self.entries.resize(space, (0, NIL));
        }
        self.limit = self.limit.max(Self::limit_for(space));
    }

    #[inline]
    fn get(&self, block: BlockId) -> Option<u32> {
        match self.entries.get(block as usize) {
            Some(&(generation, slot)) if generation == self.generation => Some(slot),
            _ => None,
        }
    }

    #[inline]
    fn insert(&mut self, block: BlockId, slot: u32) {
        let key = block as usize;
        if key >= self.entries.len() {
            self.entries.resize(key + 1, (0, NIL));
        }
        self.entries[key] = (self.generation, slot);
    }

    #[inline]
    fn remove(&mut self, block: BlockId) {
        if let Some(entry) = self.entries.get_mut(block as usize) {
            entry.0 = 0;
        }
    }

    fn clear(&mut self) {
        // Generation 0 marks dead entries, so skip it on wrap-around.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.entries.fill((0, NIL));
            self.generation = 1;
        }
    }
}

/// The block→slot index of an [`IndexedCache`].
#[derive(Clone, Debug)]
pub(crate) enum BlockIndex {
    /// Hash map for arbitrary (sparse) block spaces.
    Hash(BlockHashMap),
    /// Direct-mapped vector for declared dense block ranges.
    Dense(DenseIndex),
}

impl BlockIndex {
    /// A hash index pre-sized for roughly `entries` live keys (`0` defers
    /// sizing to the first inserts).
    pub(crate) fn new_hash(entries: usize) -> Self {
        BlockIndex::Hash(BlockHashMap::with_capacity_and_hasher(
            entries,
            BuildHasherDefault::default(),
        ))
    }

    /// A direct-mapped index for blocks densely covering `0..space`, or
    /// `None` when the declared space exceeds [`DENSE_SPACE_LIMIT`] keys
    /// (callers fall back to [`Self::new_hash`]; a sparse or
    /// sentinel-polluted range must not cost O(largest id) memory).
    pub(crate) fn new_dense(space: usize) -> Option<Self> {
        if space > DENSE_SPACE_LIMIT {
            return None;
        }
        Some(BlockIndex::Dense(DenseIndex::new(space)))
    }

    /// Whether inserting `block` would push a dense index past its growth
    /// limit, i.e. the owner must migrate to the hash flavor first. Always
    /// `false` for hash indexes.
    #[inline]
    pub(crate) fn dense_over_limit(&self, block: BlockId) -> bool {
        match self {
            BlockIndex::Hash(_) => false,
            BlockIndex::Dense(dense) => block as usize >= dense.limit,
        }
    }

    #[inline]
    pub(crate) fn get(&self, block: BlockId) -> Option<u32> {
        match self {
            BlockIndex::Hash(map) => map.get(&block).copied(),
            BlockIndex::Dense(dense) => dense.get(block),
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, block: BlockId, slot: u32) {
        match self {
            BlockIndex::Hash(map) => {
                map.insert(block, slot);
            }
            BlockIndex::Dense(dense) => dense.insert(block, slot),
        }
    }

    #[inline]
    pub(crate) fn remove(&mut self, block: BlockId) {
        match self {
            BlockIndex::Hash(map) => {
                map.remove(&block);
            }
            BlockIndex::Dense(dense) => dense.remove(block),
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            BlockIndex::Hash(map) => map.clear(),
            BlockIndex::Dense(dense) => dense.clear(),
        }
    }
}

/// One arena slot: a resident block and its recency-list links.
#[derive(Copy, Clone, Debug)]
struct Slot {
    block: BlockId,
    prev: u32,
    next: u32,
}

/// The O(1) representation of [`crate::LruCache`] above the crossover.
///
/// The recency list runs from `head` (least recently used) to `tail` (most
/// recently used); a hit moves its slot to the tail.
#[derive(Clone, Debug)]
pub(crate) struct IndexedCache {
    slots: Vec<Slot>,
    /// Live slots are exactly `0..live`; eviction reuses the evicted slot
    /// in place, so slots are never returned to a free pool between clears.
    live: usize,
    head: u32,
    tail: u32,
    capacity: usize,
    index: BlockIndex,
    /// The alternate index flavor retained across a dense→hash migration:
    /// after migrating, the (generation-cleared) dense index parks here and
    /// [`IndexedCache::clear`] swaps it back, so one sentinel-polluted run
    /// through a reused scratch does not demote every later run to hash
    /// lookups; the hash map parks in turn, so repeated migrations
    /// allocate nothing in steady state.
    parked: Option<BlockIndex>,
}

impl IndexedCache {
    /// An indexed cache over a hash block index.
    pub(crate) fn new_hash(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        IndexedCache {
            slots: Vec::with_capacity(capacity),
            live: 0,
            head: NIL,
            tail: NIL,
            capacity,
            index: BlockIndex::new_hash(capacity * 2),
            parked: None,
        }
    }

    /// An indexed cache over a direct-mapped index pre-sized for blocks in
    /// `0..space` (see [`DenseIndex`]).
    ///
    /// Falls back to the hash index when the declared space would exceed
    /// [`DENSE_SPACE_LIMIT`] keys — a sparse or sentinel-polluted block
    /// range must not cost O(largest id) memory.
    pub(crate) fn new_dense(capacity: usize, space: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let Some(index) = BlockIndex::new_dense(space) else {
            return IndexedCache::new_hash(capacity);
        };
        IndexedCache {
            slots: Vec::with_capacity(capacity),
            live: 0,
            head: NIL,
            tail: NIL,
            capacity,
            index,
            parked: None,
        }
    }

    /// Inserts into the block index, first migrating a dense index to the
    /// hash flavor if `block`'s key lies beyond the dense growth limit.
    /// Live slots are exactly `0..live`, so the migration is a single walk.
    fn index_insert(&mut self, block: BlockId, slot: u32) {
        if self.index.dense_over_limit(block) {
            let mut map = match self.parked.take() {
                Some(BlockIndex::Hash(mut map)) => {
                    map.clear();
                    map
                }
                _ => BlockHashMap::with_capacity_and_hasher(
                    self.capacity * 2,
                    BuildHasherDefault::default(),
                ),
            };
            for (i, s) in self.slots[..self.live].iter().enumerate() {
                map.insert(s.block, i as u32);
            }
            let dense = std::mem::replace(&mut self.index, BlockIndex::Hash(map));
            self.parked = Some(dense);
        }
        self.index.insert(block, slot);
    }

    /// Re-declares the dense block range as `0..space`: the direct-mapped
    /// index — the live one, or the one parked by a hash migration until
    /// the next [`IndexedCache::clear`] — grows to cover it, so no block
    /// inside the new space triggers a migration. Allocates only when the
    /// space grows and leaves residency untouched. A cache without a
    /// direct-mapped flavor (built unhinted, or hinted past the ceiling)
    /// keeps hashing.
    pub(crate) fn rehint(&mut self, space: usize) {
        match (&mut self.index, &mut self.parked) {
            (BlockIndex::Dense(dense), _) | (_, Some(BlockIndex::Dense(dense))) => {
                dense.grow(space)
            }
            _ => {}
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    #[inline]
    fn push_tail(&mut self, slot: u32) {
        let old_tail = self.tail;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = old_tail;
            s.next = NIL;
        }
        match old_tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Accesses `block`, moving it to the recency tail.
    #[inline]
    pub(crate) fn access(&mut self, block: BlockId) -> AccessOutcome {
        if let Some(slot) = self.index.get(block) {
            if slot != self.tail {
                self.unlink(slot);
                self.push_tail(slot);
            }
            return AccessOutcome::Hit;
        }
        let evicted = if self.live == self.capacity {
            // Reuse the head (LRU) slot for the new block.
            let victim = self.head;
            let old = self.slots[victim as usize].block;
            self.index.remove(old);
            self.unlink(victim);
            self.slots[victim as usize].block = block;
            self.push_tail(victim);
            self.index_insert(block, victim);
            Some(old)
        } else {
            let slot = self.live as u32;
            if self.live == self.slots.len() {
                self.slots.push(Slot {
                    block,
                    prev: NIL,
                    next: NIL,
                });
            } else {
                self.slots[self.live].block = block;
            }
            self.live += 1;
            self.push_tail(slot);
            self.index_insert(block, slot);
            None
        };
        AccessOutcome::Miss { evicted }
    }

    #[inline]
    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.index.get(block).is_some()
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The block at the recency head (LRU), if any.
    pub(crate) fn head_block(&self) -> Option<BlockId> {
        (self.head != NIL).then(|| self.slots[self.head as usize].block)
    }

    /// The block at the recency tail (MRU), if any.
    pub(crate) fn tail_block(&self) -> Option<BlockId> {
        (self.tail != NIL).then(|| self.slots[self.tail as usize].block)
    }

    /// O(1): drops the list and bumps the index generation; the arena and
    /// index storage stay allocated for reuse.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
        self.head = NIL;
        self.tail = NIL;
        // A dense→hash migration lasts only until the next clear: restore
        // the constructed dense flavor (the hash map parks in its place),
        // so a reused scratch keeps the fast path after one
        // sentinel-polluted run.
        if matches!(
            (&self.index, &self.parked),
            (BlockIndex::Hash(_), Some(BlockIndex::Dense(_)))
        ) {
            let dense = self.parked.take().expect("matched Some");
            let hash = std::mem::replace(&mut self.index, dense);
            self.parked = Some(hash);
        }
        self.index.clear();
    }

    /// The resident blocks from head (LRU) to tail (MRU).
    pub(crate) fn resident_iter(&self) -> ResidentIter<'_> {
        ResidentIter {
            cache: self,
            cursor: self.head,
        }
    }
}

/// Iterator over an [`IndexedCache`]'s resident blocks in recency order.
#[derive(Clone)]
pub(crate) struct ResidentIter<'a> {
    cache: &'a IndexedCache,
    cursor: u32,
}

impl Iterator for ResidentIter<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        if self.cursor == NIL {
            return None;
        }
        let slot = &self.cache.slots[self.cursor as usize];
        self.cursor = slot.next;
        Some(slot.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_semantics_move_hits_to_the_tail() {
        let mut c = IndexedCache::new_hash(3);
        for b in [1, 2, 3] {
            assert!(c.access(b).is_miss());
        }
        assert!(c.access(1).is_hit());
        // 2 is now the LRU block.
        assert_eq!(c.access(4).evicted(), Some(2));
        assert_eq!(
            c.resident_iter().collect::<Vec<_>>(),
            vec![3, 1, 4],
            "recency order from LRU to MRU"
        );
        assert_eq!(c.head_block(), Some(3));
        assert_eq!(c.tail_block(), Some(4));
    }

    #[test]
    fn clear_is_generation_cheap_and_correct() {
        let mut c = IndexedCache::new_dense(2, 4);
        c.access(0);
        c.access(1);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(!c.contains(0));
        assert!(c.access(0).is_miss(), "cleared entries are dead");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dense_index_grows_past_the_declared_space() {
        let mut c = IndexedCache::new_dense(4, 2);
        assert!(c.access(100).is_miss());
        assert!(c.access(100).is_hit());
        assert!(c.contains(100));
    }

    #[test]
    fn absurd_declared_space_falls_back_to_hashing() {
        // A sentinel-high block id must not cost O(largest id) memory.
        let mut c = IndexedCache::new_dense(4, u32::MAX as usize);
        assert!(matches!(c.index, BlockIndex::Hash(_)));
        assert!(c.access(u32::MAX - 1).is_miss());
        assert!(c.contains(u32::MAX - 1));
    }

    #[test]
    fn far_outlier_blocks_migrate_the_dense_index_to_hash() {
        let mut c = IndexedCache::new_dense(3, 8);
        c.access(1);
        c.access(2);
        assert!(matches!(c.index, BlockIndex::Dense(_)));
        // Key far beyond the growth limit: migrate instead of allocating
        // a vector out to the key.
        assert!(c.access(50_000_000).is_miss());
        assert!(matches!(c.index, BlockIndex::Hash(_)));
        // The migrated index still knows every resident block, and LRU
        // semantics are unbroken.
        assert!(c.contains(1) && c.contains(2) && c.contains(50_000_000));
        assert!(c.access(1).is_hit());
        assert_eq!(c.access(4).evicted(), Some(2), "2 was LRU");
    }

    #[test]
    fn clear_restores_the_dense_flavor_after_a_migration() {
        // A migration must not permanently demote a reused cache: clear()
        // swaps the constructed dense index back in (the hash map parks
        // for the next migration, so the cycle allocates nothing new).
        let mut c = IndexedCache::new_dense(3, 8);
        c.access(1);
        c.access(50_000_000);
        assert!(matches!(c.index, BlockIndex::Hash(_)));
        c.clear();
        assert!(matches!(c.index, BlockIndex::Dense(_)), "dense restored");
        assert!(c.len() == 0 && !c.contains(1) && !c.contains(50_000_000));
        // The restored dense index works and can migrate again.
        assert!(c.access(1).is_miss());
        assert!(c.access(1).is_hit());
        assert!(c.access(60_000_000).is_miss());
        assert!(matches!(c.index, BlockIndex::Hash(_)));
        assert!(c.contains(1) && c.contains(60_000_000));
    }

    #[test]
    fn rehinted_dense_index_never_migrates_inside_the_new_space() {
        // Declared for 8 blocks, the index's growth limit is 4,096 keys: a
        // reused cache re-declared for a larger DAG must index that DAG's
        // whole space directly instead of migrating at its first block past
        // the old limit.
        let space = 1 << 20;
        let mut c = IndexedCache::new_dense(4, 8);
        c.rehint(space);
        for b in (0..space as u32).step_by(4_099).chain([space as u32 - 1]) {
            assert!(c.access(b).is_miss());
            assert!(matches!(c.index, BlockIndex::Dense(_)), "block {b}");
        }
        // A smaller re-declaration keeps the grown space.
        c.rehint(8);
        assert!(c.access(space as u32 - 2).is_miss());
        assert!(matches!(c.index, BlockIndex::Dense(_)));

        // Mid-migration the parked dense index is the one that grows, and
        // the next clear brings it back covering the new space.
        let mut c = IndexedCache::new_dense(4, 8);
        c.access(50_000_000);
        assert!(matches!(c.index, BlockIndex::Hash(_)));
        c.rehint(space);
        assert!(c.contains(50_000_000), "residency survives a rehint");
        c.clear();
        assert!(c.access(space as u32 - 1).is_miss());
        assert!(matches!(c.index, BlockIndex::Dense(_)));
    }

    #[test]
    fn rehint_past_the_ceiling_or_without_a_dense_flavor_changes_nothing() {
        let mut c = IndexedCache::new_dense(4, 8);
        c.rehint(u32::MAX as usize);
        match &c.index {
            BlockIndex::Dense(d) => assert_eq!((d.entries.len(), d.limit), (8, 4_096)),
            BlockIndex::Hash(_) => unreachable!("built dense"),
        }
        let mut c = IndexedCache::new_hash(4);
        c.rehint(64);
        assert!(matches!(c.index, BlockIndex::Hash(_)) && c.parked.is_none());
    }

    #[test]
    fn dense_generation_wraparound_resets_entries() {
        let mut c = IndexedCache::new_dense(2, 4);
        if let BlockIndex::Dense(d) = &mut c.index {
            d.generation = u32::MAX;
        } else {
            unreachable!();
        }
        c.access(3);
        c.clear();
        assert!(!c.contains(3), "wrapped generation must not resurrect 3");
        assert!(c.access(3).is_miss());
    }
}
