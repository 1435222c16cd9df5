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
//! *position* and keeps, per tracked block, its most recent position
//! ("marked"). The stack distance of a repeat access at old position `q`
//! is `live − rank(q) + 1`, where `rank(q)` is the number of marked
//! positions `≤ q`. The marks are a bitmap of `u64` words, and a plain
//! Fenwick tree over the words' popcounts answers the prefix: `rank(q)` is
//! the tree's sum over the words before `q`'s, plus the popcount of `q`'s
//! word masked to the bits at or below `q`. The tree has one entry per 64
//! positions (2,048 `u32`s for a 131,072-position space, which fits in L1),
//! so a query or an update walks O(log(positions / 64)) entries. New
//! positions are assigned in order, so the word being filled joins the
//! tree only once it is full: marking a new position sets one bit, and
//! only a repeat access whose old position lies below that word updates
//! the tree.
//!
//! Liveness is the bit, so the position → block array holds bare ids and
//! is read only at set bits. The block → position index is the
//! direct-mapped vector of [`crate::LruCache`]'s indexed representation
//! (`crates/cache/src/indexed.rs`), pre-sized by
//! [`StackDistance::with_block_hint`] and grown on demand past it (ids at
//! or past [`crate::MAX_BLOCK_SPACE`] panic). When the position space
//! fills, a compaction walks the set bits in order and renumbers the live
//! blocks `0..live` in place, doubling the space first if more than half
//! of it is live. That keeps the space sized by the *distinct-block*
//! count, not the trace length, and makes the per-access cost
//! O(log distinct) amortized. [`StackDistance::clear`] and
//! [`StackDistance::reset`] zero the tree, an O(positions / 64) pass that
//! never releases storage; the bitmap needs no wipe, because assigning a
//! position sets its bit before anything reads it.
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

// The position space is always a whole number of bitmap words.
const _: () = assert!(MIN_POSITIONS.is_multiple_of(64));

/// One-pass Mattson stack-distance profiler (see the module docs).
///
/// Drive it with [`StackDistance::access`] per block touched; read the
/// capacity-indexed hit/miss counts with [`StackDistance::curve`]. The
/// bookkeeping wrapper [`crate::StackDistanceSim`] adds the
/// [`crate::CacheSim`]-compatible accounting surface (silent accesses,
/// flush/reset).
#[derive(Clone, Debug)]
pub struct StackDistance {
    /// Bit `p % 64` of `marks[p / 64]` is set iff position `p` is a tracked
    /// block's most recent access. Bits at or past `time` are never read:
    /// assigning a position sets its bit, so whatever a clear left there is
    /// overwritten before it counts.
    marks: Vec<u64>,
    /// Fenwick tree over the popcounts of `marks`, 1-based in `tree[w - 1]`.
    /// It counts only the full words, those below `time / 64`; the word
    /// being filled joins it when it fills.
    tree: Vec<u32>,
    /// Position → the block accessed there; meaningful only where the
    /// position's mark is set.
    pos_block: Vec<BlockId>,
    /// Block → its marked (most recent) position.
    index: DenseIndex,
    /// Next position to assign (== accesses since the last compaction).
    time: u32,
    /// Number of marked positions == distinct blocks currently tracked.
    live: u32,
    /// Reuse-distance histogram: `hist[d - 1]` counts accesses at stack
    /// distance `d`. It grows only to record a distance, so its last entry
    /// is never 0.
    hist: Vec<u64>,
    /// Accesses with no previous occurrence (infinite stack distance):
    /// cold misses at every capacity.
    cold: u64,
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
            marks: Vec::new(),
            tree: Vec::new(),
            pos_block: Vec::new(),
            index: DenseIndex::new(block_space),
            time: 0,
            live: 0,
            hist: Vec::new(),
            cold: 0,
        }
    }

    /// Records an access to `block` and returns its stack distance, or
    /// `None` for a cold (first-occurrence) access. A fully associative
    /// LRU cache of capacity `C` hits exactly the accesses returning
    /// `Some(d)` with `d <= C`.
    pub fn access(&mut self, block: BlockId) -> Option<u32> {
        if self.time as usize == self.pos_block.len() {
            self.compact_or_grow();
        }
        let pos = self.time;
        let distance = match self.index.get(block) {
            Some(old) => {
                // Marked positions are exactly the distinct tracked
                // blocks; those after `old` were touched since, plus the
                // block itself (inclusive convention: an immediate repeat
                // has distance 1).
                let d = self.live - self.rank(old) + 1;
                let word = old as usize / 64;
                self.marks[word] &= !(1 << (old % 64));
                // Only full words are counted in the tree.
                if word < pos as usize / 64 {
                    self.tree_add(word, u32::MAX);
                }
                self.record(d);
                Some(d)
            }
            None => {
                self.cold += 1;
                self.live += 1;
                None
            }
        };
        let word = pos as usize / 64;
        self.marks[word] |= 1 << (pos % 64);
        self.pos_block[pos as usize] = block;
        self.index.insert(block, pos);
        self.time += 1;
        if self.time.is_multiple_of(64) {
            // The word just filled joins the tree.
            self.tree_add(word, self.marks[word].count_ones());
        }
        distance
    }

    /// Forgets all residency (every tracked block becomes cold again) but
    /// keeps the accumulated histogram — the analogue of
    /// [`crate::CacheSim::flush`], and exactly what a per-capacity LRU
    /// cache's `clear()` does to future hit/miss accounting.
    pub fn clear(&mut self) {
        // With `time` back at 0 every mark is past it, so only the tree
        // needs zeroing.
        self.tree.fill(0);
        self.live = 0;
        self.time = 0;
        self.index.clear();
    }

    /// Forgets residency *and* the histogram. Storage is retained, so
    /// steady-state reuse across traces is allocation-free (proved in
    /// `crates/core/tests/alloc_free.rs`).
    pub fn reset(&mut self) {
        self.clear();
        self.hist.clear();
        self.cold = 0;
    }

    /// Number of distinct blocks currently tracked (the resident set of an
    /// infinite-capacity cache).
    pub fn live_blocks(&self) -> usize {
        self.live as usize
    }

    /// Total accesses recorded since the last [`StackDistance::reset`].
    pub fn accesses(&self) -> u64 {
        self.cold + self.hist.iter().sum::<u64>()
    }

    /// The capacity-indexed miss-ratio curve of everything recorded so far.
    pub fn curve(&self) -> MissRatioCurve {
        // `hist` ends at the largest distance seen, so `max_finite_distance`
        // is tight and merge costs stay proportional to real content.
        let mut cum_hits = Vec::with_capacity(self.hist.len() + 1);
        cum_hits.push(0u64);
        let mut total = 0u64;
        for &count in &self.hist {
            total += count;
            cum_hits.push(total);
        }
        MissRatioCurve {
            cum_hits,
            cold: self.cold,
            silent: 0,
        }
    }

    fn record(&mut self, distance: u32) {
        let idx = distance as usize - 1;
        if idx >= self.hist.len() {
            self.hist.resize(idx + 1, 0);
        }
        self.hist[idx] += 1;
    }

    /// Renumbers the live positions to `0..live` (and doubles the position
    /// space first if more than half of it is live). Runs when the
    /// position space fills; between two compactions at least half the
    /// space is consumed, so the O(space) walk is O(1) amortized per
    /// access.
    fn compact_or_grow(&mut self) {
        debug_assert_eq!(self.time as usize, self.pos_block.len());
        // The k-th set bit is at position k or later, so moving each live
        // block down to its rank never overwrites one not yet read.
        let mut next = 0u32;
        for w in 0..self.marks.len() {
            let mut bits = self.marks[w];
            while bits != 0 {
                let block = self.pos_block[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                self.pos_block[next as usize] = block;
                self.index.insert(block, next);
                next += 1;
            }
        }
        debug_assert_eq!(next, self.live);
        if 2 * self.live as usize >= self.pos_block.len() {
            let grown = (2 * self.pos_block.len()).max(MIN_POSITIONS);
            self.pos_block.resize(grown, 0);
            self.marks.resize(grown / 64, 0);
            self.tree.resize(grown / 64, 0);
        }
        let (full, rest) = (self.live as usize / 64, self.live % 64);
        self.marks[..full].fill(u64::MAX);
        if rest > 0 {
            self.marks[full] = (1 << rest) - 1;
        }
        self.time = self.live;
        // Linear-time Fenwick build over the full words: seed each entry
        // with its word's count, then push every entry into its parent.
        for (w, entry) in self.tree.iter_mut().enumerate() {
            *entry = if w < full { 64 } else { 0 };
        }
        let n = self.tree.len();
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent - 1] += self.tree[i - 1];
            }
        }
    }

    /// Number of marked positions `<= pos`.
    #[inline]
    fn rank(&self, pos: u32) -> u32 {
        let word = pos as usize / 64;
        let mut sum = (self.marks[word] << (63 - pos % 64)).count_ones();
        let mut i = word;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` (wrapping, so `u32::MAX` subtracts one) to word
    /// `word`'s count.
    #[inline]
    fn tree_add(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
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

    /// Stack distances of `trace` under a move-to-front list, the textbook
    /// model of an LRU stack.
    fn move_to_front_distances(trace: &[u32]) -> Vec<Option<u32>> {
        let mut stack: Vec<u32> = Vec::new();
        trace
            .iter()
            .map(|&b| {
                let depth = stack.iter().position(|&s| s == b);
                if let Some(i) = depth {
                    stack.remove(i);
                }
                stack.insert(0, b);
                depth.map(|i| i as u32 + 1)
            })
            .collect()
    }

    #[test]
    fn reset_after_a_long_trace_equals_a_fresh_profiler() {
        let long: Vec<u32> = (0..5 * MIN_POSITIONS as u32 + 17)
            .map(|i| i.wrapping_mul(2_654_435_761) % 3_000)
            .collect();
        let short = [9u32, 4, 9, 2_999, 4, 4];
        let mut reused = StackDistance::new();
        for &b in &long {
            reused.access(b);
        }
        assert_ne!(
            reused.time % 64,
            0,
            "the reset must meet a partly filled word"
        );
        reused.reset();
        let mut fresh = StackDistance::new();
        for &b in &short {
            assert_eq!(reused.access(b), fresh.access(b), "block {b}");
        }
        assert_eq!(reused.curve(), fresh.curve());
        assert_eq!(reused.live_blocks(), fresh.live_blocks());
        assert_eq!(reused.accesses(), short.len() as u64);
        // Walk on past every position the long trace used, through
        // compactions: no mark of it may survive the reset.
        for &b in &long {
            assert_eq!(reused.access(b), fresh.access(b), "block {b}");
        }
        assert_eq!(reused.curve(), fresh.curve());
    }

    #[test]
    fn compactions_at_every_live_residue_match_move_to_front() {
        // Live counts ≡ 0, 1 and 63 (mod 64), on both sides of the growth
        // threshold (half of MIN_POSITIONS) and of MIN_POSITIONS itself.
        let half = MIN_POSITIONS / 2;
        for live in [
            1,
            63,
            64,
            65,
            127,
            128,
            half - 1,
            half,
            half + 1,
            MIN_POSITIONS - 1,
            MIN_POSITIONS,
            MIN_POSITIONS + 1,
        ] {
            // Every block once, then uniformly random repeats among them, so
            // every later compaction runs with exactly `live` marks.
            let mut state = live as u32;
            let trace: Vec<u32> = (0..live as u32)
                .chain((0..5 * MIN_POSITIONS).map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 8) % live as u32
                }))
                .collect();
            let mut sd = StackDistance::new();
            let mut compactions = 0;
            for (i, (&b, want)) in trace
                .iter()
                .zip(move_to_front_distances(&trace))
                .enumerate()
            {
                if i >= live && sd.time as usize == sd.pos_block.len() {
                    assert_eq!(sd.live as usize, live);
                    compactions += 1;
                }
                assert_eq!(sd.access(b), want, "live {live}, access {i}");
            }
            assert!(compactions >= 2, "live {live}: {compactions} compactions");
        }
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
