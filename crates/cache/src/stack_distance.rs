//! One-pass Mattson stack-distance profiling for fully associative LRU.
//!
//! A fully associative LRU cache has the *inclusion property*: the
//! resident set at capacity `C` is always a subset of the resident set at
//! any capacity `C' > C` (both are exactly the `C` — resp. `C'` — most
//! recently used distinct blocks). An access therefore hits at capacity
//! `C` **iff** its *stack distance* — the number of distinct blocks
//! touched since the previous access to the same block, inclusive — is at
//! most `C`. Mattson's observation (the basis of every one-pass MRC
//! profiler) is that a single pass recording the stack-distance histogram
//! yields the exact hit/miss counts of *every* capacity at once: `hits(C)
//! = Σ_{d ≤ C} hist[d]`, `misses(C) = accesses − hits(C)`.
//! [`CacheSim`](crate::CacheSim)
//! answers the same question for one `C` per trace pass; this module
//! answers it for all `C` in one pass, and
//! `tests/stack_distance_differential.rs` pins the two to *exactly* equal
//! counts.
//!
//! ## Representation
//!
//! [`StackDistance`] assigns each access a monotonically increasing
//! *position* and keeps, per resident block, its most recent position
//! ("marked"). A Fenwick tree over positions counts marked positions, so
//! the stack distance of a repeat access at old position `q` is
//! `live − rank(q) + 1` where `rank(q)` is the number of marked positions
//! `≤ q` — an O(log n) query. The supporting state reuses the machinery of
//! [`crate::LruCache`]'s indexed representation (`crates/cache/src/`
//! `indexed.rs`): the block→position index is the same generation-stamped
//! direct-mapped vector, pre-sized by [`StackDistance::with_block_hint`]
//! and grown on demand past it (ids at or past [`crate::MAX_BLOCK_SPACE`]
//! panic), and the Fenwick / position arrays are generation-stamped
//! themselves, so [`StackDistance::reset`] is an O(1) generation bump that
//! never releases storage. Positions are compacted (live blocks
//! renumbered `0..live`) when the position space fills, which keeps the
//! tree sized by the *distinct-block* count, not the trace length, and
//! makes the per-access cost O(log distinct) amortized.
//!
//! ```
//! use wsf_cache::StackDistance;
//!
//! let mut sd = StackDistance::new();
//! for block in [1u32, 2, 3, 1, 2, 3] {
//!     sd.access(block);
//! }
//! let curve = sd.curve();
//! assert_eq!(curve.misses_at(2), 6); // distance 3 > 2: every access misses
//! assert_eq!(curve.misses_at(3), 3); // only the three cold misses remain
//! assert_eq!(curve.misses_at(1 << 20), 3);
//! ```

use crate::indexed::DenseIndex;
use crate::{BlockId, CacheStats};
use std::fmt::Write as _;

/// Smallest position-space allocation; doubling starts here so tiny traces
/// do not pay repeated compactions.
const MIN_POSITIONS: usize = 4_096;

/// One-pass Mattson stack-distance profiler (see the module docs).
///
/// Drive it with [`StackDistance::access`] per block touched; read the
/// capacity-indexed hit/miss counts with [`StackDistance::curve`]. The
/// bookkeeping wrapper [`crate::StackDistanceSim`] adds the
/// [`crate::CacheSim`]-compatible accounting surface (silent accesses,
/// flush/reset).
#[derive(Clone, Debug)]
pub struct StackDistance {
    /// Fenwick tree over positions, 1-based in `tree[i - 1]`; each entry is
    /// `(generation, count)` and reads as 0 when the stamp is stale, so a
    /// generation bump wipes the tree in O(1).
    tree: Vec<(u32, u32)>,
    /// Position → occupying block, stamped like `tree`; a stale stamp means
    /// the position is dead (never used this generation, or superseded by a
    /// newer access of its block). Generation 0 is reserved as "dead".
    pos_block: Vec<(u32, BlockId)>,
    /// Block → its marked (most recent) position.
    index: DenseIndex,
    /// Next position to assign (== accesses since the last compaction).
    time: u32,
    /// Number of marked positions == distinct blocks currently tracked.
    live: u32,
    /// Stamp of live `tree` / `pos_block` entries; never 0.
    generation: u32,
    /// Reuse-distance histogram: `hist[d - 1]` counts accesses at stack
    /// distance `d`, stamped with `hist_gen` (stale reads as 0) so the
    /// histogram too resets by generation bump.
    hist: Vec<(u32, u64)>,
    hist_gen: u32,
    /// Accesses with no previous occurrence (infinite stack distance):
    /// cold misses at every capacity.
    cold: u64,
    /// Reusable compaction buffer (live blocks in position order).
    scratch: Vec<BlockId>,
}

impl StackDistance {
    /// A profiler whose block→position index grows as ids arrive.
    pub fn new() -> Self {
        Self::with_block_hint(0)
    }

    /// Like [`StackDistance::new`], for traces whose blocks densely cover
    /// `0..block_space`: the block→position index is pre-sized for that
    /// range. Results are identical either way; only when the index
    /// allocates differs.
    ///
    /// # Panics
    /// Panics if `block_space` exceeds [`crate::MAX_BLOCK_SPACE`]; an
    /// access to an id at or past it panics too.
    pub fn with_block_hint(block_space: usize) -> Self {
        StackDistance {
            tree: Vec::new(),
            pos_block: Vec::new(),
            index: DenseIndex::new(block_space),
            time: 0,
            live: 0,
            generation: 1,
            hist: Vec::new(),
            hist_gen: 1,
            cold: 0,
            scratch: Vec::new(),
        }
    }

    /// Records an access to `block` and returns its stack distance, or
    /// `None` for a cold (first-occurrence) access. A fully associative
    /// LRU cache of capacity `C` hits exactly the accesses returning
    /// `Some(d)` with `d <= C`.
    pub fn access(&mut self, block: BlockId) -> Option<u32> {
        if self.time as usize == self.tree.len() {
            self.compact_or_grow();
        }
        let pos = self.time;
        let distance = match self.index.get(block) {
            Some(old) => {
                // Marked positions are exactly the distinct resident
                // blocks; those after `old` were touched since, plus the
                // block itself (inclusive convention: an immediate repeat
                // has distance 1).
                let d = self.live - self.fen_prefix(old) + 1;
                self.fen_add(old, -1);
                self.pos_block[old as usize].0 = 0;
                self.record(d);
                Some(d)
            }
            None => {
                self.cold += 1;
                self.live += 1;
                None
            }
        };
        self.fen_add(pos, 1);
        self.pos_block[pos as usize] = (self.generation, block);
        self.index.insert(block, pos);
        self.time += 1;
        distance
    }

    /// Forgets all residency (every tracked block becomes cold again) but
    /// keeps the accumulated histogram — the analogue of
    /// [`crate::CacheSim::flush`], and exactly what a per-capacity LRU
    /// cache's `clear()` does to future hit/miss accounting.
    pub fn clear(&mut self) {
        self.live = 0;
        self.time = 0;
        self.index.clear();
        self.bump_generation();
    }

    /// Forgets residency *and* the histogram: an O(1) generation bump on
    /// every component; storage is retained, so steady-state reuse across
    /// traces is allocation-free (proved in
    /// `crates/core/tests/alloc_free.rs`).
    pub fn reset(&mut self) {
        self.clear();
        self.cold = 0;
        self.hist_gen = self.hist_gen.wrapping_add(1);
        if self.hist_gen == 0 {
            self.hist.fill((0, 0));
            self.hist_gen = 1;
        }
    }

    /// Number of distinct blocks currently tracked (the resident set of an
    /// infinite-capacity cache).
    pub fn live_blocks(&self) -> usize {
        self.live as usize
    }

    /// Total accesses recorded since the last [`StackDistance::reset`].
    pub fn accesses(&self) -> u64 {
        self.cold + self.finite_total()
    }

    /// The capacity-indexed miss-ratio curve of everything recorded so far.
    pub fn curve(&self) -> MissRatioCurve {
        let mut cum_hits = Vec::with_capacity(self.hist.len() + 1);
        cum_hits.push(0u64);
        let mut total = 0u64;
        for &(gen, count) in &self.hist {
            if gen == self.hist_gen {
                total += count;
            }
            cum_hits.push(total);
        }
        // Trim capacities past the largest distance actually seen, so
        // `max_finite_distance` is tight and merge costs stay proportional
        // to real content.
        while cum_hits.len() > 1 && cum_hits[cum_hits.len() - 1] == cum_hits[cum_hits.len() - 2] {
            cum_hits.pop();
        }
        MissRatioCurve {
            cum_hits,
            cold: self.cold,
            silent: 0,
        }
    }

    fn finite_total(&self) -> u64 {
        self.hist
            .iter()
            .map(|&(gen, count)| if gen == self.hist_gen { count } else { 0 })
            .sum()
    }

    fn record(&mut self, distance: u32) {
        let idx = distance as usize - 1;
        if idx >= self.hist.len() {
            self.hist.resize(idx + 1, (0, 0));
        }
        let (gen, count) = self.hist[idx];
        let count = if gen == self.hist_gen { count + 1 } else { 1 };
        self.hist[idx] = (self.hist_gen, count);
    }

    /// Renumbers the live positions to `0..live` (and doubles the position
    /// space first if more than half of it is live). Runs when the
    /// position space fills; between two compactions at least half the
    /// space is consumed, so the O(space) walk is O(1) amortized per
    /// access.
    fn compact_or_grow(&mut self) {
        debug_assert_eq!(self.time as usize, self.tree.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(
            self.pos_block[..self.time as usize]
                .iter()
                .filter(|&&(gen, _)| gen == self.generation)
                .map(|&(_, block)| block),
        );
        debug_assert_eq!(scratch.len(), self.live as usize);
        if 2 * scratch.len() >= self.tree.len() {
            let grown = (2 * self.tree.len()).max(MIN_POSITIONS);
            self.tree.resize(grown, (0, 0));
            self.pos_block.resize(grown, (0, 0));
        }
        self.bump_generation();
        self.index.clear();
        for (pos, &block) in scratch.iter().enumerate() {
            let pos = pos as u32;
            self.fen_add(pos, 1);
            self.pos_block[pos as usize] = (self.generation, block);
            self.index.insert(block, pos);
        }
        self.time = scratch.len() as u32;
        self.scratch = scratch;
    }

    fn bump_generation(&mut self) {
        // Generation 0 marks dead entries, so skip it on wrap-around.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.tree.fill((0, 0));
            self.pos_block.fill((0, 0));
            self.generation = 1;
        }
    }

    #[inline]
    fn tree_get(&self, i: usize) -> u32 {
        let (gen, count) = self.tree[i - 1];
        if gen == self.generation {
            count
        } else {
            0
        }
    }

    fn fen_add(&mut self, pos: u32, delta: i32) {
        let mut i = pos as usize + 1;
        let n = self.tree.len();
        while i <= n {
            let count = (self.tree_get(i) as i64 + delta as i64) as u32;
            self.tree[i - 1] = (self.generation, count);
            i += i & i.wrapping_neg();
        }
    }

    fn fen_prefix(&self, pos: u32) -> u32 {
        let mut i = pos as usize + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree_get(i);
            i &= i - 1;
        }
        sum
    }
}

impl Default for StackDistance {
    fn default() -> Self {
        Self::new()
    }
}

/// Hit/miss counts of a profiled trace at *every* cache capacity: the
/// artifact a [`StackDistance`] pass produces.
///
/// `hits_at(C)` is the exact hit count a fully associative LRU
/// [`crate::CacheSim`] of `C` lines scores on the same trace (the
/// inclusion property; differentially tested). Queryable at arbitrary
/// capacities, mergeable across per-processor traces, and dumpable as a
/// JSON row for tables and plots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissRatioCurve {
    /// `cum_hits[c]` = hits at capacity `c`; the last entry saturates (a
    /// capacity beyond the largest finite stack distance hits every
    /// non-cold access).
    cum_hits: Vec<u64>,
    /// Cold misses (infinite stack distance): missed at every capacity.
    cold: u64,
    /// Block-less accesses, carried so [`MissRatioCurve::stats_at`] can
    /// reproduce a full [`CacheStats`].
    silent: u64,
}

impl MissRatioCurve {
    /// Total block accesses profiled (hits at infinite capacity plus cold
    /// misses).
    pub fn accesses(&self) -> u64 {
        self.cum_hits.last().copied().unwrap_or(0) + self.cold
    }

    /// Hits of an LRU cache of `capacity` lines.
    pub fn hits_at(&self, capacity: usize) -> u64 {
        self.cum_hits[capacity.min(self.cum_hits.len() - 1)]
    }

    /// Misses of an LRU cache of `capacity` lines (cold misses included).
    pub fn misses_at(&self, capacity: usize) -> u64 {
        self.accesses() - self.hits_at(capacity)
    }

    /// Miss ratio at `capacity` (0 for an empty trace).
    pub fn miss_ratio_at(&self, capacity: usize) -> f64 {
        let accesses = self.accesses();
        if accesses == 0 {
            0.0
        } else {
            self.misses_at(capacity) as f64 / accesses as f64
        }
    }

    /// The full [`CacheStats`] a [`crate::CacheSim`] of `capacity` lines
    /// would report on the profiled trace.
    pub fn stats_at(&self, capacity: usize) -> CacheStats {
        CacheStats {
            hits: self.hits_at(capacity),
            misses: self.misses_at(capacity),
            silent: self.silent,
        }
    }

    /// Cold (first-occurrence) misses: incurred at every capacity.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// The largest finite stack distance observed: capacities at or above
    /// it incur only the cold misses.
    pub fn max_finite_distance(&self) -> usize {
        self.cum_hits.len() - 1
    }

    /// Returns the curve with its silent-access count set (the profiler
    /// itself never sees block-less accesses; the [`crate::StackDistanceSim`]
    /// driver counts them).
    pub fn with_silent(mut self, silent: u64) -> Self {
        self.silent = silent;
        self
    }

    /// Adds `other`'s counts to this curve: the merged curve reports, at
    /// every capacity, the summed hits/misses of the two traces profiled
    /// independently — e.g. per-processor curves of a parallel execution
    /// merge into the execution's aggregate curve.
    pub fn merge(&mut self, other: &MissRatioCurve) {
        if other.cum_hits.len() > self.cum_hits.len() {
            let saturated = *self.cum_hits.last().expect("cum_hits is never empty");
            self.cum_hits.resize(other.cum_hits.len(), saturated);
        }
        let other_saturated = *other.cum_hits.last().expect("cum_hits is never empty");
        for (c, hits) in self.cum_hits.iter_mut().enumerate() {
            *hits += other.cum_hits.get(c).copied().unwrap_or(other_saturated);
        }
        self.cold += other.cold;
        self.silent += other.silent;
    }

    /// One JSON object (a single line) with the curve evaluated at
    /// `capacities` — the row format the experiment artifacts use.
    pub fn to_json_row(&self, label: &str, capacities: &[usize]) -> String {
        let mut row = format!(
            "{{ \"label\": \"{label}\", \"accesses\": {}, \"cold_misses\": {}, \"points\": [",
            self.accesses(),
            self.cold
        );
        for (i, &capacity) in capacities.iter().enumerate() {
            if i > 0 {
                row.push_str(", ");
            }
            write!(
                row,
                "{{ \"capacity\": {capacity}, \"misses\": {}, \"miss_ratio\": {:.6} }}",
                self.misses_at(capacity),
                self.miss_ratio_at(capacity)
            )
            .expect("writing to a String cannot fail");
        }
        row.push_str("] }");
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve_of(trace: &[u32]) -> MissRatioCurve {
        let mut sd = StackDistance::new();
        for &b in trace {
            sd.access(b);
        }
        sd.curve()
    }

    #[test]
    fn distances_follow_the_inclusive_convention() {
        let mut sd = StackDistance::new();
        assert_eq!(sd.access(7), None, "cold");
        assert_eq!(sd.access(7), Some(1), "immediate repeat");
        assert_eq!(sd.access(8), None);
        assert_eq!(sd.access(7), Some(2), "one distinct block in between");
        assert_eq!(sd.access(9), None);
        assert_eq!(sd.access(8), Some(3));
        assert_eq!(sd.live_blocks(), 3);
        assert_eq!(sd.accesses(), 6);
    }

    #[test]
    fn curve_counts_hits_per_capacity() {
        // Cyclic trace over 3 blocks: classic LRU pathology — capacity 2
        // hits nothing, capacity 3 hits everything warm.
        let curve = curve_of(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(curve.accesses(), 9);
        assert_eq!(curve.cold_misses(), 3);
        assert_eq!(curve.misses_at(0), 9);
        assert_eq!(curve.misses_at(2), 9);
        assert_eq!(curve.misses_at(3), 3);
        assert_eq!(curve.misses_at(1 << 20), 3);
        assert_eq!(curve.hits_at(3), 6);
        assert_eq!(curve.max_finite_distance(), 3);
        assert!((curve.miss_ratio_at(3) - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn clear_forgets_residency_but_keeps_the_histogram() {
        let mut sd = StackDistance::new();
        sd.access(1);
        sd.access(1);
        sd.clear();
        assert_eq!(sd.access(1), None, "cleared block is cold again");
        let curve = sd.curve();
        assert_eq!(curve.accesses(), 3);
        assert_eq!(curve.cold_misses(), 2);
        assert_eq!(curve.hits_at(1), 1, "pre-clear hit retained");
    }

    #[test]
    fn reset_restarts_the_profile() {
        let mut sd = StackDistance::new();
        for &b in &[1u32, 2, 1, 2] {
            sd.access(b);
        }
        sd.reset();
        assert_eq!(sd.accesses(), 0);
        assert_eq!(sd.curve(), curve_of(&[]));
        for &b in &[5u32, 5] {
            sd.access(b);
        }
        assert_eq!(sd.curve(), curve_of(&[5, 5]));
    }

    #[test]
    fn compaction_preserves_distances() {
        // Enough accesses over a tiny block set to force many compactions
        // of the MIN_POSITIONS space... with a tiny space instead: shrink
        // by constructing fresh and hammering > MIN_POSITIONS accesses.
        let mut sd = StackDistance::new();
        let blocks = 7u32;
        let total = (2 * MIN_POSITIONS + 100) as u32;
        for i in 0..total {
            let d = sd.access(i % blocks);
            if i >= blocks {
                assert_eq!(d, Some(blocks), "cyclic trace: constant distance");
            }
        }
        let curve = sd.curve();
        assert_eq!(curve.cold_misses(), blocks as u64);
        assert_eq!(curve.misses_at(blocks as usize - 1), total as u64);
        assert_eq!(curve.misses_at(blocks as usize), blocks as u64);
    }

    #[test]
    fn block_hint_changes_no_distance() {
        let trace: Vec<u32> = (0..500u32).map(|i| (i * i + i / 3) % 97).collect();
        let mut grown = StackDistance::new();
        let mut hinted = StackDistance::with_block_hint(97);
        for &b in &trace {
            assert_eq!(grown.access(b), hinted.access(b));
        }
        assert_eq!(grown.curve(), hinted.curve());
    }

    #[test]
    #[should_panic(expected = "numbered densely from 0")]
    fn block_id_at_the_ceiling_panics() {
        let mut sd = StackDistance::with_block_hint(64);
        sd.access(crate::MAX_BLOCK_SPACE as BlockId);
    }

    #[test]
    fn generation_wraparound_does_not_resurrect_state() {
        // The first access grows the (empty) position space, which bumps
        // the generation once; start one short of MAX so the wrap happens
        // inside clear().
        let mut sd = StackDistance::new();
        sd.generation = u32::MAX - 1;
        sd.access(3);
        assert_eq!(sd.generation, u32::MAX);
        sd.clear(); // wraps to 0 → re-stamped to 1
        assert_eq!(sd.generation, 1);
        assert_eq!(sd.access(3), None, "wrapped generation must not resurrect");
        sd.hist_gen = u32::MAX;
        sd.access(3);
        sd.reset();
        assert_eq!(sd.hist_gen, 1);
        assert_eq!(sd.accesses(), 0);
    }

    #[test]
    fn merge_sums_curves_of_different_lengths() {
        let mut a = curve_of(&[1, 2, 1]); // distances: ∞ ∞ 2
        let b = curve_of(&[1, 2, 3, 1, 1]); // distances: ∞ ∞ ∞ 3 1
        a.merge(&b);
        assert_eq!(a.accesses(), 8);
        assert_eq!(a.cold_misses(), 5);
        assert_eq!(a.hits_at(1), 1);
        assert_eq!(a.hits_at(2), 2);
        assert_eq!(a.hits_at(3), 3);
        assert_eq!(a.hits_at(1 << 16), 3);
        assert_eq!(a.misses_at(2), 6);
    }

    #[test]
    fn json_row_lists_requested_capacities() {
        let curve = curve_of(&[1, 2, 1, 2]).with_silent(3);
        let row = curve.to_json_row("demo", &[1, 2]);
        assert!(row.contains("\"label\": \"demo\""));
        assert!(row.contains("\"accesses\": 4"));
        assert!(row.contains("\"capacity\": 1"));
        assert!(row.contains("\"capacity\": 2"));
        assert!(row.contains("\"miss_ratio\": 0.500000"), "{row}");
        assert_eq!(curve.stats_at(2).silent, 3);
        assert_eq!(curve.stats_at(2).hits, 2);
    }

    #[test]
    fn empty_profile_yields_an_empty_curve() {
        let sd = StackDistance::default();
        let curve = sd.curve();
        assert_eq!(curve.accesses(), 0);
        assert_eq!(curve.misses_at(0), 0);
        assert_eq!(curve.misses_at(1024), 0);
        assert_eq!(curve.miss_ratio_at(16), 0.0);
        assert_eq!(curve.max_finite_distance(), 0);
    }
}
