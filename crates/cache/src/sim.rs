//! A cache with hit/miss accounting, and the one-pass stack-distance
//! profiler behind the same driving surface.

use crate::stack_distance::{MissRatioCurve, StackDistance};
use crate::{AccessOutcome, BlockId, Cache, CacheStats, LruCache};

/// A simulated processor cache: a fully associative LRU cache plus
/// hit/miss/silent accounting. This is the object the execution simulator
/// attaches to each simulated processor.
///
/// The underlying cache is capacity-adaptive (see the crate docs): give the
/// constructor a dense-block-range hint with [`CacheSim::with_block_hint`]
/// to pre-size the block index at large capacities — the execution
/// simulators pass the DAG's block space automatically.
pub struct CacheSim {
    cache: LruCache,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a cache of `lines` lines whose block index (above the scan
    /// crossover) grows as ids arrive.
    ///
    /// # Panics
    /// Panics if `lines` is zero.
    pub fn new(lines: usize) -> Self {
        CacheSim::with_block_hint(lines, 0)
    }

    /// Like [`CacheSim::new`], for workloads whose blocks densely cover
    /// `0..block_space`: capacities above the scan crossover pre-size their
    /// block index for that range. Behavior is identical either way; only
    /// when the index allocates differs.
    ///
    /// # Panics
    /// Panics if `lines` is zero, or as [`LruCache::with_block_hint`] does
    /// for a `block_space` past [`crate::MAX_BLOCK_SPACE`].
    pub fn with_block_hint(lines: usize, block_space: usize) -> Self {
        CacheSim {
            cache: LruCache::with_block_hint(lines, block_space),
            stats: CacheStats::default(),
        }
    }

    /// Re-declares the dense block range as `0..block_space`, for a cache
    /// reused on a new workload (a `wsf_core::SimScratch` calls it on every
    /// reset): the block index grows to the new space before the run
    /// instead of during it. Allocates only when the space grows; behavior
    /// is unchanged (see [`LruCache::rehint`]).
    pub fn rehint(&mut self, block_space: usize) {
        self.cache.rehint(block_space);
    }

    /// Accesses `block`, updating the statistics.
    #[inline]
    pub fn access(&mut self, block: BlockId) -> AccessOutcome {
        let outcome = self.cache.access(block);
        if outcome.is_hit() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        outcome
    }

    /// Records an instruction that performs no memory access.
    #[inline]
    pub fn access_none(&mut self) {
        self.stats.silent += 1;
    }

    /// Accesses `block` if it is `Some`, otherwise records a silent
    /// instruction. Returns the outcome for real accesses.
    #[inline]
    pub fn access_opt(&mut self, block: Option<BlockId>) -> Option<AccessOutcome> {
        match block {
            Some(b) => Some(self.access(b)),
            None => {
                self.access_none();
                None
            }
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The number of misses so far.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockId) -> bool {
        self.cache.contains(block)
    }

    /// The cache capacity in lines.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Replaces the contents of `out` with the resident blocks (the
    /// borrowing form of [`CacheSim::resident_blocks`]).
    pub fn resident_into(&self, out: &mut Vec<BlockId>) {
        self.cache.resident_into(out);
    }

    /// The resident blocks.
    pub fn resident_blocks(&self) -> Vec<BlockId> {
        self.cache.resident_blocks()
    }

    /// Empties the cache but keeps the statistics.
    pub fn flush(&mut self) {
        self.cache.clear();
    }

    /// Empties the cache and resets the statistics.
    ///
    /// O(1) for every representation (the indexed caches clear by bumping
    /// an index generation), and never releases storage — a
    /// `wsf_core::SimScratch` resetting its processors between runs reuses
    /// the arena and index buffers, growing the index only through
    /// [`CacheSim::rehint`].
    pub fn reset(&mut self) {
        self.flush();
        self.stats = CacheStats::default();
    }
}

/// Drives a [`StackDistance`] profiler through the same surface as
/// [`CacheSim`]: `access` / `access_none` / `access_opt` / `flush` /
/// `reset`, with silent-access accounting. One pass over a trace yields —
/// via [`StackDistanceSim::curve`] — the exact [`CacheStats`] a fully
/// associative LRU `CacheSim` of *any* capacity would report on the same
/// trace, including interleaved `flush()`es (the profiler's residency
/// clear mirrors them).
///
/// It relies on LRU's inclusion property (a cache of `c` lines holds the
/// `c` most recently used blocks): this is the one-pass counterpart of
/// `CacheSim::new(c)` for all `c` at once.
#[derive(Debug, Default)]
pub struct StackDistanceSim {
    sd: StackDistance,
    silent: u64,
}

impl StackDistanceSim {
    /// A profiler whose block index grows as ids arrive.
    pub fn new() -> Self {
        StackDistanceSim::with_block_hint(0)
    }

    /// Like [`StackDistanceSim::new`], for traces whose blocks densely
    /// cover `0..block_space` — same hint contract as
    /// [`CacheSim::with_block_hint`].
    pub fn with_block_hint(block_space: usize) -> Self {
        StackDistanceSim {
            sd: StackDistance::with_block_hint(block_space),
            silent: 0,
        }
    }

    /// Accesses `block`; returns its stack distance (`None` when cold).
    #[inline]
    pub fn access(&mut self, block: BlockId) -> Option<u32> {
        self.sd.access(block)
    }

    /// Records an instruction that performs no memory access.
    #[inline]
    pub fn access_none(&mut self) {
        self.silent += 1;
    }

    /// Accesses `block` if it is `Some`, otherwise records a silent
    /// instruction.
    #[inline]
    pub fn access_opt(&mut self, block: Option<BlockId>) -> Option<u32> {
        match block {
            Some(b) => self.access(b),
            None => {
                self.access_none();
                None
            }
        }
    }

    /// Forgets residency but keeps accumulated counts — the profiler-side
    /// equivalent of [`CacheSim::flush`] at every capacity at once.
    pub fn flush(&mut self) {
        self.sd.clear();
    }

    /// Forgets residency and all counts without allocating (see
    /// [`StackDistance::reset`]).
    pub fn reset(&mut self) {
        self.sd.reset();
        self.silent = 0;
    }

    /// Total accesses recorded (block accesses; silent ones not included).
    pub fn accesses(&self) -> u64 {
        self.sd.accesses()
    }

    /// The capacity-indexed miss-ratio curve of everything recorded.
    pub fn curve(&self) -> MissRatioCurve {
        self.sd.curve().with_silent(self.silent)
    }

    /// The exact [`CacheStats`] an LRU [`CacheSim`] of `capacity` lines
    /// would have accumulated over the same access sequence.
    pub fn stats_at(&self, capacity: usize) -> CacheStats {
        self.curve().stats_at(capacity)
    }
}

impl std::fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSim")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let mut sim = CacheSim::new(2);
        sim.access(1);
        sim.access(2);
        sim.access(1);
        sim.access(3);
        sim.access_none();
        assert_eq!(sim.stats().misses, 3);
        assert_eq!(sim.stats().hits, 1);
        assert_eq!(sim.stats().silent, 1);
        assert_eq!(sim.misses(), 3);
        assert!(sim.contains(1));
        assert_eq!(sim.capacity(), 2);
    }

    #[test]
    fn access_opt_routes_correctly() {
        let mut sim = CacheSim::new(2);
        assert!(sim.access_opt(Some(5)).unwrap().is_miss());
        assert!(sim.access_opt(None).is_none());
        assert_eq!(sim.stats().silent, 1);
        assert_eq!(sim.stats().misses, 1);
    }

    #[test]
    fn resident_blocks_and_resident_into_agree() {
        let mut sim = CacheSim::new(4);
        for b in 0..4 {
            sim.access(b);
        }
        assert_eq!(sim.stats().misses, 4);
        let mut buf = vec![99];
        sim.resident_into(&mut buf);
        assert_eq!(buf, sim.resident_blocks());
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn flush_and_reset() {
        let mut sim = CacheSim::new(2);
        sim.access(1);
        sim.flush();
        assert!(!sim.contains(1));
        assert_eq!(sim.stats().misses, 1, "flush keeps stats");
        sim.reset();
        assert_eq!(sim.stats(), CacheStats::default());
    }

    #[test]
    fn block_hint_matches_plain_behavior_at_large_capacity() {
        let lines = 256;
        let mut plain = CacheSim::new(lines);
        let mut hinted = CacheSim::with_block_hint(lines, 512);
        for i in 0..4_000u32 {
            let b = i.wrapping_mul(2_654_435_761) % 512;
            assert_eq!(plain.access(b), hinted.access(b), "access {i}");
        }
        assert_eq!(plain.stats(), hinted.stats());
    }

    #[test]
    fn debug_format_mentions_stats() {
        let sim = CacheSim::new(2);
        let s = format!("{sim:?}");
        assert!(s.contains("CacheSim"));
        assert!(s.contains("capacity"));
    }

    #[test]
    fn stack_distance_sim_matches_cache_sim_stats() {
        let trace = [Some(1u32), Some(2), None, Some(1), Some(3), None, Some(2)];
        let mut sd = StackDistanceSim::new();
        let mut sims: Vec<CacheSim> = [1usize, 2, 3, 8]
            .iter()
            .map(|&c| CacheSim::new(c))
            .collect();
        for &b in &trace {
            sd.access_opt(b);
            for sim in &mut sims {
                sim.access_opt(b);
            }
        }
        for sim in &sims {
            assert_eq!(sd.stats_at(sim.capacity()), sim.stats());
        }
        assert_eq!(sd.accesses(), 5);
    }

    #[test]
    fn stack_distance_sim_flush_and_reset_mirror_cache_sim() {
        let mut sd = StackDistanceSim::with_block_hint(16);
        let mut sim = CacheSim::with_block_hint(2, 16);
        for &b in &[4u32, 5, 4] {
            sd.access(b);
            sim.access(b);
        }
        sd.flush();
        sim.flush();
        for &b in &[4u32, 5] {
            sd.access(b);
            sim.access(b);
        }
        assert_eq!(sd.stats_at(2), sim.stats(), "flush keeps counts");
        sd.reset();
        sim.reset();
        assert_eq!(sd.stats_at(2), sim.stats());
        assert_eq!(sd.curve().accesses(), 0);
    }
}
