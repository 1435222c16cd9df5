//! Fully associative FIFO cache.
//!
//! The paper notes (footnote 1, Section 3) that its upper bounds, which are
//! inherited from Acar, Blelloch and Blumofe's drifted-node argument, hold
//! for all *simple* cache replacement policies. FIFO is the simplest such
//! alternative and is used by the test-suite and the ablation benches to
//! check that the measured locality gap is not an LRU artifact.

use crate::adaptive::{Adaptive, ScanRepr};
use crate::{AccessOutcome, BlockId, Cache, ResidentIter};
use std::collections::VecDeque;

/// The seed scan representation: a queue scanned linearly per access.
#[derive(Clone, Debug)]
pub(crate) struct ScanFifo {
    queue: VecDeque<BlockId>,
    capacity: usize,
}

impl ScanRepr for ScanFifo {
    const MOVE_ON_HIT: bool = false;

    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ScanFifo {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    #[inline]
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        if self.queue.contains(&block) {
            // FIFO does not update recency on a hit.
            return AccessOutcome::Hit;
        }
        let evicted = if self.queue.len() == self.capacity {
            self.queue.pop_front()
        } else {
            None
        };
        self.queue.push_back(block);
        AccessOutcome::Miss { evicted }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.queue.contains(&block)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn clear(&mut self) {
        self.queue.clear();
    }

    fn iter(&self) -> ResidentIter<'_> {
        ResidentIter::deque(&self.queue)
    }

    fn front(&self) -> Option<BlockId> {
        self.queue.front().copied()
    }

    fn back(&self) -> Option<BlockId> {
        self.queue.back().copied()
    }
}

/// A fully associative cache with first-in-first-out replacement.
///
/// Like [`crate::LruCache`], the representation is capacity-adaptive (see
/// the private `adaptive` module): the seed scan queue below [`crate::SCAN_CROSSOVER`], the
/// O(1) indexed slot arena above it (with the insertion order kept in the
/// intrusive list and hits leaving it untouched). Both representations
/// produce identical [`AccessOutcome`] sequences.
#[derive(Clone, Debug)]
pub struct FifoCache {
    repr: Adaptive<ScanFifo>,
}

impl FifoCache {
    /// Creates an empty cache with `capacity` lines, picking the
    /// representation by capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            repr: Adaptive::new(capacity),
        }
    }

    /// Like [`FifoCache::new`], but with a declared dense block range
    /// `0..block_space` selecting the direct-mapped index when the indexed
    /// representation is used. (Disproportionate spaces fall back to
    /// hashing — see [`FifoCache::indexed_dense`].)
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_block_hint(capacity: usize, block_space: usize) -> Self {
        FifoCache {
            repr: Adaptive::with_block_hint(capacity, block_space),
        }
    }

    /// Forces the seed scan representation at any capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn scan(capacity: usize) -> Self {
        FifoCache {
            repr: Adaptive::scan(capacity),
        }
    }

    /// Forces the indexed representation with a hash block index.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn indexed(capacity: usize) -> Self {
        FifoCache {
            repr: Adaptive::indexed(capacity),
        }
    }

    /// Forces the indexed representation with a direct-mapped index
    /// pre-sized for blocks in `0..block_space`. Blocks outside the range
    /// stay correct: the index grows on demand, and sentinel-high outliers
    /// (or an absurdly large declared space) switch it to the hash index
    /// instead of paying O(largest id) memory.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn indexed_dense(capacity: usize, block_space: usize) -> Self {
        FifoCache {
            repr: Adaptive::indexed_dense(capacity, block_space),
        }
    }

    /// Whether this cache uses the indexed (O(1)) representation.
    pub fn is_indexed(&self) -> bool {
        self.repr.is_indexed()
    }

    /// Re-declares the dense block range; see [`crate::LruCache::rehint`].
    pub fn rehint(&mut self, block_space: usize) {
        self.repr.rehint(block_space);
    }

    /// The block that would be evicted next, if any.
    pub fn next_eviction(&self) -> Option<BlockId> {
        self.repr.front_block()
    }

    /// Borrowing iterator over the resident blocks in insertion order.
    pub fn resident_iter(&self) -> ResidentIter<'_> {
        self.repr.resident_iter()
    }
}

impl Cache for FifoCache {
    #[inline]
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        self.repr.access(block)
    }

    fn contains(&self, block: BlockId) -> bool {
        self.repr.contains(block)
    }

    fn capacity(&self) -> usize {
        self.repr.capacity()
    }

    fn len(&self) -> usize {
        self.repr.len()
    }

    fn clear(&mut self) {
        self.repr.clear()
    }

    fn resident_into(&self, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(self.resident_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCAN_CROSSOVER;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FifoCache::new(0);
    }

    #[test]
    fn representation_is_capacity_adaptive() {
        assert_eq!(SCAN_CROSSOVER, 16);
        assert!(!FifoCache::new(16).is_indexed());
        assert!(FifoCache::new(17).is_indexed());
        assert!(FifoCache::with_block_hint(64, 10_528).is_indexed());
        assert!(!FifoCache::scan(4096).is_indexed());
        assert!(FifoCache::with_block_hint(4096, 64).is_indexed());
    }

    #[test]
    fn evicts_in_insertion_order_regardless_of_hits() {
        for mut c in [
            FifoCache::scan(3),
            FifoCache::indexed(3),
            FifoCache::indexed_dense(3, 8),
        ] {
            c.access(1);
            c.access(2);
            c.access(3);
            // Hitting 1 does not protect it under FIFO.
            assert!(c.access(1).is_hit());
            let out = c.access(4);
            assert_eq!(out.evicted(), Some(1));
            assert!(!c.contains(1));
            assert_eq!(c.next_eviction(), Some(2));
        }
    }

    #[test]
    fn differs_from_lru_on_hit_reordering() {
        use crate::LruCache;
        let trace = [1, 2, 3, 1, 4, 1];
        let mut fifo = FifoCache::new(3);
        let mut lru = LruCache::new(3);
        let fifo_misses: u32 = trace.iter().map(|&b| fifo.access(b).is_miss() as u32).sum();
        let lru_misses: u32 = trace.iter().map(|&b| lru.access(b).is_miss() as u32).sum();
        assert_eq!(lru_misses, 4);
        assert_eq!(
            fifo_misses, 5,
            "FIFO evicts the hit block 1 and re-misses it"
        );
    }

    #[test]
    fn capacity_and_len() {
        for mut c in [FifoCache::scan(2), FifoCache::indexed(2)] {
            assert!(c.is_empty());
            c.access(9);
            assert_eq!(c.len(), 1);
            c.access(10);
            c.access(11);
            assert_eq!(c.len(), 2);
            assert_eq!(c.capacity(), 2);
            c.clear();
            assert!(c.is_empty());
        }
    }

    #[test]
    fn resident_iter_reports_insertion_order() {
        for mut c in [FifoCache::scan(4), FifoCache::indexed(4)] {
            for b in [7, 8, 9] {
                c.access(b);
            }
            c.access(8); // hit: order unchanged
            assert_eq!(c.resident_iter().collect::<Vec<_>>(), vec![7, 8, 9]);
            assert_eq!(c.resident_blocks(), vec![7, 8, 9]);
        }
    }
}
