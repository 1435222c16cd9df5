//! Set-associative LRU cache.
//!
//! Real hardware caches are set associative rather than fully associative.
//! The paper inherits its miss bound from Acar et al., whose argument also
//! covers set-associative caches; this implementation lets the experiments
//! confirm that the measured trends survive limited associativity.
//!
//! Each set is an independent [`LruCache`] and therefore inherits the
//! capacity-adaptive representation: a cache with thousands of ways per set
//! runs on the indexed O(1) arena, the common few-way sets stay on the scan
//! vector. With a declared dense block range
//! ([`SetAssociativeCache::with_block_hint`]) each set's index is
//! direct-mapped on `block / sets` — a set only ever sees blocks congruent
//! to its own index, so the quotient is a dense per-set key and the index
//! memory stays `O(block space)` overall instead of per set.

use crate::{AccessOutcome, BlockId, Cache, LruCache, SCAN_CROSSOVER};

/// A set-associative cache: `sets` independent LRU sets of `ways` lines
/// each. A block maps to set `block % sets`.
#[derive(Clone, Debug)]
pub struct SetAssociativeCache {
    sets: Vec<LruCache>,
}

impl SetAssociativeCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if either `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        assert!(ways > 0, "cache capacity must be positive");
        SetAssociativeCache {
            sets: (0..sets).map(|_| LruCache::new(ways)).collect(),
        }
    }

    /// Like [`SetAssociativeCache::new`], but workloads with a dense block
    /// range `0..block_space` get direct-mapped per-set indexes when the
    /// ways count selects the indexed representation.
    ///
    /// # Panics
    /// Panics if either `sets` or `ways` is zero.
    pub fn with_block_hint(sets: usize, ways: usize, block_space: usize) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        assert!(ways > 0, "cache capacity must be positive");
        SetAssociativeCache {
            sets: (0..sets)
                .map(|_| {
                    if ways <= SCAN_CROSSOVER {
                        LruCache::scan(ways)
                    } else {
                        LruCache::indexed_dense_strided(ways, block_space, sets as u32)
                    }
                })
                .collect(),
        }
    }

    /// Re-declares the dense block range of every set's index (each keyed
    /// by `block / sets`); see [`LruCache::rehint`].
    pub(crate) fn rehint(&mut self, block_space: usize) {
        self.sets.iter_mut().for_each(|s| s.rehint(block_space));
    }

    /// The number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The associativity (ways per set).
    pub fn ways(&self) -> usize {
        self.sets[0].capacity()
    }

    fn set_of(&self, block: BlockId) -> usize {
        (block as usize) % self.sets.len()
    }
}

impl Cache for SetAssociativeCache {
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        let set = self.set_of(block);
        self.sets[set].access(block)
    }

    fn contains(&self, block: BlockId) -> bool {
        self.sets[self.set_of(block)].contains(block)
    }

    fn capacity(&self) -> usize {
        self.sets.iter().map(|s| s.capacity()).sum()
    }

    fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(|s| s.clear());
    }

    fn resident_into(&self, out: &mut Vec<BlockId>) {
        out.clear();
        for set in &self.sets {
            out.extend(set.resident_iter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_map_to_sets_by_modulo() {
        let mut c = SetAssociativeCache::new(2, 2);
        assert_eq!(c.num_sets(), 2);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.capacity(), 4);
        // Even blocks land in set 0, odd blocks in set 1.
        c.access(0);
        c.access(2);
        c.access(4); // evicts 0 from set 0
        assert!(!c.contains(0));
        assert!(c.contains(2));
        assert!(c.contains(4));
        // Set 1 is untouched.
        c.access(1);
        assert!(c.contains(1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn conflict_misses_exceed_fully_associative() {
        use crate::LruCache;
        // Four blocks all mapping to the same set of a 4-line 2-way cache
        // conflict; a fully associative 4-line cache holds them all.
        let trace: Vec<BlockId> = (0..4).map(|i| i * 2).cycle().take(40).collect();
        let mut sa = SetAssociativeCache::new(2, 2);
        let mut fa = LruCache::new(4);
        let sa_misses: u32 = trace.iter().map(|&b| sa.access(b).is_miss() as u32).sum();
        let fa_misses: u32 = trace.iter().map(|&b| fa.access(b).is_miss() as u32).sum();
        assert_eq!(fa_misses, 4);
        assert!(sa_misses > fa_misses);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = SetAssociativeCache::new(0, 2);
    }

    #[test]
    fn clear_empties_every_set() {
        let mut c = SetAssociativeCache::new(4, 2);
        for b in 0..8 {
            c.access(b);
        }
        assert_eq!(c.len(), 8);
        c.clear();
        assert!(c.is_empty());
        assert!(c.resident_blocks().is_empty());
    }

    #[test]
    fn wide_sets_use_the_indexed_representation() {
        let ways = SCAN_CROSSOVER * 2;
        let sets = 4;
        let plain = SetAssociativeCache::new(sets, ways);
        let hinted = SetAssociativeCache::with_block_hint(sets, ways, sets * ways * 2);
        assert!(plain.sets.iter().all(LruCache::is_indexed));
        assert!(hinted.sets.iter().all(LruCache::is_indexed));
        // Identical behavior regardless of index flavor.
        let mut plain = plain;
        let mut hinted = hinted;
        for round in 0..3u32 {
            for b in 0..(sets * ways + 64) as BlockId {
                let b = b.wrapping_mul(2_654_435_761) % (2 * (sets * ways) as u32);
                assert_eq!(plain.access(b), hinted.access(b), "round {round} block {b}");
            }
        }
        assert_eq!(plain.len(), hinted.len());
    }

    #[test]
    fn hinted_small_ways_behave_identically_to_plain() {
        let mut a = SetAssociativeCache::new(4, 2);
        let mut b = SetAssociativeCache::with_block_hint(4, 2, 64);
        for block in (0..200u32).map(|i| i * 7 % 40) {
            assert_eq!(a.access(block), b.access(block));
        }
    }
}
