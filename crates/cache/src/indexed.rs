//! O(1) indexed cache core: a slot arena threaded by an intrusive
//! doubly-linked recency list, plus a direct-mapped block→slot index.
//!
//! The scan representation in [`crate::LruCache`] costs O(C) per access (a
//! position scan plus a front removal that shifts the whole vector). That
//! ties with this module's arena at C = 16 and is measurably faster below
//! it (the paper's C = 8), but costs twice as much per access at the served
//! tenants' C = 64 and caps sweeps at toy capacities (see
//! [`crate::SCAN_CROSSOVER`] for the numbers). This module provides the
//! representation the LRU cache switches to above the crossover: every
//! resident block owns a slot in a fixed-size arena, slots are chained in
//! recency (LRU at the head, MRU at the tail), and a [`DenseIndex`] maps a
//! block id to its slot. Access, eviction and clearing are all O(1), so the
//! per-access cost is independent of the capacity.
//!
//! The index is a vector indexed by block id, which is what the model's
//! dense block numbering buys: every workload numbers its blocks `0..n`
//! (`wsf_workloads::block_alloc::BlockAlloc`), and `wsf_dag::Dag::block_space`
//! declares `n`. Entries are generation-stamped so [`IndexedCache::clear`]
//! is O(1) instead of O(block space). The declared space only pre-sizes the
//! vector: an id past it grows the vector on demand, and a cache reused
//! across DAGs ([`IndexedCache::rehint`]) grows it to each new declared
//! space up front. Ids at or past [`crate::MAX_BLOCK_SPACE`] panic.

use crate::{AccessOutcome, BlockId, MAX_BLOCK_SPACE};

/// Sentinel for "no slot" in the intrusive list links.
const NIL: u32 = u32::MAX;

/// Panics unless a direct-mapped index over `0..space` fits under
/// [`MAX_BLOCK_SPACE`]. Runs only when an index is built or grows, never on
/// a lookup.
fn check_block_space(space: usize) {
    assert!(
        space <= MAX_BLOCK_SPACE,
        "block ids must be numbered densely from 0 and stay below \
         MAX_BLOCK_SPACE ({MAX_BLOCK_SPACE}); got a block space of {space}"
    );
}

/// Direct-mapped block→value index with generation-stamped entries.
///
/// `entries[block]` holds `(generation, value)`; an entry is live only if
/// its generation matches the index's current one, so clearing is a
/// generation bump, not an O(space) wipe. The vector grows on demand, which
/// keeps the index correct for blocks past the declared space (a declared
/// space is a pre-sizing hint, not a contract).
#[derive(Clone, Debug)]
pub(crate) struct DenseIndex {
    entries: Vec<(u32, u32)>,
    generation: u32,
}

impl DenseIndex {
    /// An empty index pre-sized for blocks `0..space`.
    pub(crate) fn new(space: usize) -> Self {
        check_block_space(space);
        DenseIndex {
            entries: vec![(0, NIL); space],
            generation: 1,
        }
    }

    /// Grows the index to cover blocks `0..space`. Never shrinks.
    pub(crate) fn grow(&mut self, space: usize) {
        if space > self.entries.len() {
            check_block_space(space);
            self.entries.resize(space, (0, NIL));
        }
    }

    #[inline]
    pub(crate) fn get(&self, block: BlockId) -> Option<u32> {
        match self.entries.get(block as usize) {
            Some(&(generation, value)) if generation == self.generation => Some(value),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, block: BlockId, value: u32) {
        let key = block as usize;
        if key >= self.entries.len() {
            self.grow(key + 1);
        }
        self.entries[key] = (self.generation, value);
    }

    #[inline]
    pub(crate) fn remove(&mut self, block: BlockId) {
        if let Some(entry) = self.entries.get_mut(block as usize) {
            entry.0 = 0;
        }
    }

    pub(crate) fn clear(&mut self) {
        // Generation 0 marks dead entries, so skip it on wrap-around.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.entries.fill((0, NIL));
            self.generation = 1;
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
    index: DenseIndex,
}

impl IndexedCache {
    /// An indexed cache whose block index is pre-sized for blocks in
    /// `0..space` (see [`DenseIndex`]).
    pub(crate) fn new(capacity: usize, space: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        IndexedCache {
            slots: Vec::with_capacity(capacity),
            live: 0,
            head: NIL,
            tail: NIL,
            capacity,
            index: DenseIndex::new(space),
        }
    }

    /// Re-declares the block range as `0..space`: the index grows to cover
    /// it, so no block inside the new space grows it mid-run. Allocates only
    /// when the space grows and leaves residency untouched.
    pub(crate) fn rehint(&mut self, space: usize) {
        self.index.grow(space);
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
            self.index.insert(block, victim);
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
            self.index.insert(block, slot);
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
        let mut c = IndexedCache::new(3, 0);
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
        let mut c = IndexedCache::new(2, 4);
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
        let mut c = IndexedCache::new(4, 2);
        assert!(c.access(100).is_miss());
        assert!(c.access(100).is_hit());
        assert!(c.contains(100));
        assert_eq!(c.index.entries.len(), 101);
    }

    #[test]
    fn rehinted_dense_index_never_grows_inside_the_new_space() {
        // A reused cache re-declared for a larger DAG sizes its index for
        // that DAG's whole space up front, so the walk never reallocates.
        let space = 1 << 20;
        let mut c = IndexedCache::new(4, 8);
        c.rehint(space);
        for b in (0..space as u32).step_by(4_099).chain([space as u32 - 1]) {
            assert!(c.access(b).is_miss());
            assert_eq!(c.index.entries.len(), space, "block {b}");
        }
        // A smaller re-declaration keeps the grown space.
        c.rehint(8);
        assert!(c.access(space as u32 - 2).is_miss());
        assert_eq!(c.index.entries.len(), space);
    }

    #[test]
    fn dense_generation_wraparound_resets_entries() {
        let mut c = IndexedCache::new(2, 4);
        c.index.generation = u32::MAX;
        c.access(3);
        c.clear();
        assert!(!c.contains(3), "wrapped generation must not resurrect 3");
        assert!(c.access(3).is_miss());
    }
}
