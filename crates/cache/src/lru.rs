//! Fully associative LRU cache — the paper's cache model.

use crate::indexed::IndexedCache;
use crate::{AccessOutcome, BlockId, Cache, ResidentIter, SCAN_CROSSOVER};

/// The seed scan representation: resident blocks ordered from least
/// recently used (front) to most recently used (back).
///
/// Capacities in the paper's experiments are small (tens of lines), and
/// below [`crate::SCAN_CROSSOVER`] the O(C) position-scan plus shift is measurably
/// faster in practice than any linked structure — the whole vector is a
/// couple of cache lines. Above the crossover it degrades quadratically
/// with the working set, which is what the indexed representation fixes.
#[derive(Clone, Debug)]
struct ScanLru {
    order: Vec<BlockId>,
    capacity: usize,
}

impl ScanLru {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ScanLru {
            order: Vec::with_capacity(capacity),
            capacity,
        }
    }

    #[inline]
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        if let Some(pos) = self.order.iter().position(|&b| b == block) {
            self.order.remove(pos);
            self.order.push(block);
            return AccessOutcome::Hit;
        }
        let evicted = if self.order.len() == self.capacity {
            Some(self.order.remove(0))
        } else {
            None
        };
        self.order.push(block);
        AccessOutcome::Miss { evicted }
    }
}

/// A fully associative cache of `capacity` lines with least-recently-used
/// replacement.
///
/// The representation is capacity-adaptive: at or below
/// [`crate::SCAN_CROSSOVER`] lines the recency order is a plain vector
/// scanned per access (fastest at the paper's C = 16), above it an indexed
/// slot arena with an intrusive recency ring and a block→slot map gives
/// O(1) amortized access and eviction at any capacity. Both representations
/// produce access-for-access identical [`AccessOutcome`] sequences (LRU is
/// deterministic), which the differential suite in
/// `crates/cache/tests/differential.rs` locks in.
#[derive(Clone, Debug)]
pub struct LruCache {
    repr: Repr,
}

/// Scan representation at or below the crossover, indexed arena above it.
#[derive(Clone, Debug)]
enum Repr {
    Scan(ScanLru),
    Indexed(IndexedCache),
}

impl LruCache {
    /// Creates an empty cache with `capacity` lines, picking the
    /// representation by capacity (scan at or below
    /// [`crate::SCAN_CROSSOVER`], indexed above). Same as
    /// [`LruCache::with_block_hint`] with an empty declared space: an
    /// indexed cache grows its block index as ids arrive.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruCache::with_block_hint(capacity, 0)
    }

    /// Like [`LruCache::new`], for workloads whose blocks densely cover
    /// `0..block_space` (everything built on `BlockAlloc`): the indexed
    /// representation, when selected, pre-sizes its block index for that
    /// range (see [`LruCache::indexed_dense`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero, or if the indexed representation is
    /// selected and `block_space` exceeds [`crate::MAX_BLOCK_SPACE`].
    pub fn with_block_hint(capacity: usize, block_space: usize) -> Self {
        if capacity <= SCAN_CROSSOVER {
            LruCache::scan(capacity)
        } else {
            LruCache::indexed_dense(capacity, block_space)
        }
    }

    /// Forces the seed scan representation at any capacity (the benchmark
    /// baseline and the differential-test reference).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn scan(capacity: usize) -> Self {
        LruCache {
            repr: Repr::Scan(ScanLru::new(capacity)),
        }
    }

    /// Forces the indexed representation with a direct-mapped block index
    /// pre-sized for blocks in `0..block_space`. Blocks past the range stay
    /// correct: the index grows on demand.
    ///
    /// # Panics
    /// Panics if `capacity` is zero, if `block_space` exceeds
    /// [`crate::MAX_BLOCK_SPACE`], or (on access) for a block id at or past
    /// it.
    pub fn indexed_dense(capacity: usize, block_space: usize) -> Self {
        LruCache {
            repr: Repr::Indexed(IndexedCache::new(capacity, block_space)),
        }
    }

    /// Whether this cache uses the indexed (O(1)) representation.
    pub fn is_indexed(&self) -> bool {
        matches!(self.repr, Repr::Indexed(_))
    }

    /// Re-declares the dense block range as `0..block_space` for a cache
    /// reused on a new workload: the block index grows (never shrinks) to
    /// cover it, so the next walk never grows it mid-run. Allocates only
    /// when the space grows; residency and outcomes are unchanged. A no-op
    /// for the scan representation.
    ///
    /// # Panics
    /// Panics if the cache is indexed and `block_space` exceeds
    /// [`crate::MAX_BLOCK_SPACE`].
    pub fn rehint(&mut self, block_space: usize) {
        if let Repr::Indexed(ix) = &mut self.repr {
            ix.rehint(block_space);
        }
    }

    /// Borrowing iterator over the resident blocks in recency order (least
    /// recently used first).
    pub fn resident_iter(&self) -> ResidentIter<'_> {
        match &self.repr {
            Repr::Scan(s) => ResidentIter::slice(&s.order),
            Repr::Indexed(ix) => ResidentIter::linked(ix.resident_iter()),
        }
    }
}

impl Cache for LruCache {
    #[inline]
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        match &mut self.repr {
            Repr::Scan(s) => s.access(block),
            Repr::Indexed(ix) => ix.access(block),
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        match &self.repr {
            Repr::Scan(s) => s.order.contains(&block),
            Repr::Indexed(ix) => ix.contains(block),
        }
    }

    fn capacity(&self) -> usize {
        match &self.repr {
            Repr::Scan(s) => s.capacity,
            Repr::Indexed(ix) => ix.capacity(),
        }
    }

    fn len(&self) -> usize {
        match &self.repr {
            Repr::Scan(s) => s.order.len(),
            Repr::Indexed(ix) => ix.len(),
        }
    }

    fn clear(&mut self) {
        match &mut self.repr {
            Repr::Scan(s) => s.order.clear(),
            Repr::Indexed(ix) => ix.clear(),
        }
    }

    fn resident_into(&self, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(self.resident_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MAX_BLOCK_SPACE, SCAN_CROSSOVER};

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics_indexed() {
        let _ = LruCache::indexed_dense(0, 0);
    }

    #[test]
    #[should_panic(expected = "numbered densely from 0")]
    fn block_id_at_the_ceiling_panics() {
        let mut c = LruCache::indexed_dense(4, 0);
        c.access(MAX_BLOCK_SPACE as BlockId);
    }

    #[test]
    #[should_panic(expected = "numbered densely from 0")]
    fn declared_space_past_the_ceiling_panics() {
        let _ = LruCache::with_block_hint(64, MAX_BLOCK_SPACE + 1);
    }

    #[test]
    fn representation_is_capacity_adaptive() {
        assert_eq!(SCAN_CROSSOVER, 16);
        assert!(!LruCache::new(16).is_indexed());
        assert!(LruCache::new(17).is_indexed());
        assert!(!LruCache::with_block_hint(16, 1 << 20).is_indexed());
        assert!(LruCache::with_block_hint(64, 10_528).is_indexed());
        assert!(LruCache::with_block_hint(4096, 64).is_indexed());
        assert!(!LruCache::scan(4096).is_indexed());
    }

    #[test]
    fn evicts_least_recently_used() {
        for mut c in [
            LruCache::scan(3),
            LruCache::indexed_dense(3, 0),
            LruCache::indexed_dense(3, 8),
        ] {
            c.access(1);
            c.access(2);
            c.access(3);
            // touch 1 so that 2 becomes LRU
            assert!(c.access(1).is_hit());
            let out = c.access(4);
            assert_eq!(out.evicted(), Some(2));
            assert!(c.contains(1));
            assert!(c.contains(3));
            assert!(c.contains(4));
            assert!(!c.contains(2));
        }
    }

    #[test]
    fn sequential_scan_of_c_plus_one_blocks_thrashes() {
        // The classic LRU pathology exploited by the paper's lower-bound
        // constructions: cyclically accessing C+1 blocks misses every time.
        let c_lines = 8;
        for mut c in [LruCache::scan(c_lines), LruCache::indexed_dense(c_lines, 0)] {
            let mut misses = 0;
            for round in 0..10 {
                for b in 0..=(c_lines as BlockId) {
                    if c.access(b).is_miss() {
                        misses += 1;
                    }
                }
                assert_eq!(misses, (round + 1) * (c_lines as u64 + 1));
            }
        }
    }

    #[test]
    fn working_set_within_capacity_only_cold_misses() {
        for mut c in [LruCache::scan(8), LruCache::indexed_dense(8, 8)] {
            let mut misses = 0;
            for _ in 0..5 {
                for b in 0..8 {
                    if c.access(b).is_miss() {
                        misses += 1;
                    }
                }
            }
            assert_eq!(misses, 8, "only compulsory misses");
        }
    }

    #[test]
    fn resident_blocks_reports_in_recency_order() {
        for mut c in [LruCache::scan(4), LruCache::indexed_dense(4, 0)] {
            for b in [1, 2, 3] {
                c.access(b);
            }
            c.access(2);
            assert_eq!(c.resident_blocks(), vec![1, 3, 2]);
            assert_eq!(c.resident_iter().collect::<Vec<_>>(), vec![1, 3, 2]);
            assert_eq!(c.len(), 3);
            assert_eq!(c.capacity(), 4);
        }
    }

    #[test]
    fn clear_resets_both_representations() {
        for mut c in [LruCache::scan(4), LruCache::indexed_dense(4, 0)] {
            c.access(1);
            c.access(2);
            c.clear();
            assert!(c.is_empty());
            assert!(!c.contains(1));
            assert_eq!(c.resident_iter().next(), None);
            assert!(c.access(1).is_miss());
        }
    }

    #[test]
    fn large_capacity_indexed_lru_holds_the_working_set() {
        let capacity = 5_000;
        let mut c = LruCache::new(capacity);
        assert!(c.is_indexed());
        let mut misses = 0u64;
        for _ in 0..3 {
            for b in 0..capacity as BlockId {
                if c.access(b).is_miss() {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, capacity as u64, "only compulsory misses");
        assert_eq!(c.len(), capacity);
    }
}
