//! Reusable simulation state, so repeated runs allocate nothing per step.
//!
//! A [`SimScratch`] owns every buffer [`crate::ParallelSimulator`] needs
//! during a run: the per-processor deques and caches, the readiness
//! tracker, the steal-candidate list and the set of processors with
//! non-empty deques. (The sequential-predecessor table belongs to the
//! [`crate::SeqReport`] and the initial in-degrees to the DAG, both
//! computed once when they are built.) A sweep that simulates the
//! same (or similarly sized) DAGs over and over passes one scratch to
//! [`crate::ParallelSimulator::run_with_scratch`] and pays for allocation
//! only until every buffer reaches its steady-state capacity — after that,
//! a whole run performs O(1) allocations (the returned report) and a step
//! performs none.

use crate::ready::ReadyTracker;
use crate::report::ProcStats;
use wsf_cache::CacheSim;
use wsf_dag::NodeId;
use wsf_deque::SimDeque;

/// Per-processor simulation state (deque, current node, private cache).
pub(crate) struct Proc {
    pub(crate) deque: SimDeque<NodeId>,
    /// The node this processor executes in its next step.
    pub(crate) current: Option<NodeId>,
    /// The step at which `current` completes, once a strand walk has run
    /// the chain before it; until then the processor counts as busy and
    /// the step loop skips it. Always 0 in a step-at-a-time run.
    pub(crate) ready_at: u64,
    pub(crate) last_completed: Option<NodeId>,
    pub(crate) cache: CacheSim,
    pub(crate) stats: ProcStats,
}

/// The set of processors whose deques are non-empty, maintained
/// incrementally as pushes, pops and steals happen.
///
/// A bitset (one bit per processor) plus a member count: updating it and
/// asking whether a processor is a member — how the simulator validates a
/// scheduler's victim choice — are O(1), and so is the idle processor's
/// "is there anyone to steal from" test. The candidate list handed to
/// [`crate::Scheduler::choose_victim`] is read off the set bits in
/// ascending processor order, the order every scheduler's random draws and
/// therefore every table depend on.
#[derive(Default)]
pub(crate) struct NonEmptySet {
    words: Vec<u64>,
    count: usize,
}

impl NonEmptySet {
    /// Empties the set and re-sizes it for `n` processors.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.count = 0;
    }

    /// Whether processor `q` currently has a non-empty deque.
    #[inline]
    pub(crate) fn contains(&self, q: usize) -> bool {
        self.words
            .get(q / 64)
            .is_some_and(|w| w >> (q % 64) & 1 == 1)
    }

    /// Whether no processor other than `p` has a non-empty deque.
    #[inline]
    pub(crate) fn has_no_victim_for(&self, p: usize) -> bool {
        self.count == 0 || (self.count == 1 && self.contains(p))
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// Records whether `q`'s deque is non-empty after an operation on it.
    #[inline]
    pub(crate) fn sync(&mut self, q: usize, nonempty: bool) {
        let bit = 1u64 << (q % 64);
        let word = &mut self.words[q / 64];
        if (*word & bit != 0) != nonempty {
            *word ^= bit;
            if nonempty {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }
}

/// Reusable buffers for [`crate::ParallelSimulator::run_with_scratch`].
///
/// Create one with [`SimScratch::new`] and pass it to every run of a sweep;
/// the buffers are re-initialized (not re-allocated) per run. The scratch
/// remembers the cache configuration its processors were built with and
/// transparently rebuilds them when a run uses a different configuration.
///
/// ```
/// use wsf_core::{ForkPolicy, ParallelSimulator, RandomScheduler, SimConfig, SimScratch};
/// use wsf_dag::DagBuilder;
///
/// let mut b = DagBuilder::new();
/// let main = b.main_thread();
/// let f = b.fork(main);
/// b.chain(f.future_thread, 3);
/// b.task(main);
/// b.touch_thread(main, f.future_thread);
/// b.task(main);
/// let dag = b.finish().unwrap();
///
/// let sim = ParallelSimulator::new(SimConfig::new(2, 8, ForkPolicy::FutureFirst));
/// let seq = sim.sequential(&dag);
/// let mut scratch = SimScratch::new();
/// for seed in 0..4 {
///     let mut sched = RandomScheduler::new(seed);
///     let report = sim.run_with_scratch(&dag, &seq, &mut sched, false, &mut scratch);
///     assert!(report.completed);
/// }
/// ```
#[derive(Default)]
pub struct SimScratch {
    pub(crate) procs: Vec<Proc>,
    pub(crate) nonempty: NonEmptySet,
    pub(crate) candidates: Vec<usize>,
    /// Per-candidate deque depths, parallel to `candidates` (the
    /// [`crate::StealContext`] load view).
    pub(crate) depths: Vec<usize>,
    /// Per-candidate "victim's top block is resident in the thief's cache",
    /// parallel to `candidates`; filled only for schedulers that ask for it
    /// via [`crate::Scheduler::wants_residency`].
    pub(crate) resident: Vec<bool>,
    /// Staging buffer for multi-entry steals ([`crate::StealAmount::Half`]).
    pub(crate) stolen: Vec<NodeId>,
    pub(crate) tracker: ReadyTracker,
    /// The line count the current `procs` caches were built with.
    cache_lines: Option<usize>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Prepares the per-processor state for a run with `p_count` processors
    /// and caches of `lines` lines, reusing existing storage when both
    /// match.
    ///
    /// `block_space` is the DAG's dense block range (see
    /// `wsf_dag::Dag::block_space`): it sizes the direct-mapped block→slot
    /// index of caches above the scan crossover. A scratch built for one
    /// DAG keeps its caches for another with the same `lines`:
    /// the per-run [`wsf_cache::CacheSim::reset`] is O(1) (a generation
    /// bump) and [`wsf_cache::CacheSim::rehint`] grows the index to the new
    /// DAG's space before the run, so the walk never grows it. Both
    /// allocate only when the space grows, preserving the allocation-free
    /// steady state that `crates/core/tests/alloc_free.rs` locks in.
    pub(crate) fn reset_procs(&mut self, p_count: usize, lines: usize, block_space: usize) {
        if self.cache_lines != Some(lines) || self.procs.len() != p_count {
            self.procs.clear();
            self.procs.extend((0..p_count).map(|_| Proc {
                deque: SimDeque::new(),
                current: None,
                ready_at: 0,
                last_completed: None,
                cache: CacheSim::with_block_hint(lines, block_space),
                stats: ProcStats::default(),
            }));
            self.cache_lines = Some(lines);
        } else {
            for proc in &mut self.procs {
                proc.deque.clear();
                proc.current = None;
                proc.ready_at = 0;
                proc.last_completed = None;
                proc.cache.reset();
                proc.cache.rehint(block_space);
                proc.stats = ProcStats::default();
            }
        }
        self.nonempty.reset(p_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonempty_set_keeps_members_sorted() {
        let mut s = NonEmptySet::default();
        s.reset(8);
        let members = |s: &NonEmptySet| s.iter().collect::<Vec<_>>();
        for q in [5, 1, 7, 3] {
            s.sync(q, true);
        }
        assert_eq!(members(&s), [1, 3, 5, 7]);
        assert!(s.contains(5) && !s.contains(0));
        s.sync(5, false);
        s.sync(5, false); // idempotent
        assert_eq!(members(&s), [1, 3, 7]);
        s.sync(1, true); // already present: no duplicate
        assert_eq!(members(&s), [1, 3, 7]);
        assert!(!s.contains(9), "out-of-range queries are false");
        assert!(!s.has_no_victim_for(1));
        s.sync(3, false);
        s.sync(7, false);
        assert!(s.has_no_victim_for(1), "only the thief itself is a member");
        assert!(!s.has_no_victim_for(0));
        s.sync(1, false);
        assert!(s.has_no_victim_for(0) && members(&s).is_empty());

        // Members past the first word, in ascending order.
        s.reset(130);
        for q in [129, 64, 0, 63, 65] {
            s.sync(q, true);
        }
        assert_eq!(members(&s), [0, 63, 64, 65, 129]);
        s.reset(130);
        assert!(members(&s).is_empty() && s.has_no_victim_for(0));
    }

    #[test]
    fn reset_procs_reuses_matching_config() {
        let mut scratch = SimScratch::new();
        scratch.reset_procs(4, 8, 64);
        scratch.procs[2].stats.steals = 9;
        scratch.reset_procs(4, 8, 64);
        assert_eq!(scratch.procs.len(), 4);
        assert_eq!(scratch.procs[2].stats.steals, 0, "stats cleared on reuse");
        scratch.reset_procs(2, 16, 64);
        assert_eq!(scratch.procs.len(), 2);
        assert_eq!(scratch.procs[0].cache.capacity(), 16);
    }

    #[test]
    fn reset_procs_reuses_caches_across_differing_block_spaces() {
        // The block-space hint pre-sizes the index; a different hint with
        // the same line count must not force a rebuild.
        let mut scratch = SimScratch::new();
        scratch.reset_procs(2, 4096, 64);
        scratch.procs[0].cache.access(63);
        scratch.reset_procs(2, 4096, 1 << 16);
        assert!(!scratch.procs[0].cache.contains(63), "reset cleared it");
        // Blocks far past the original hint still work (index grows).
        assert!(scratch.procs[0].cache.access(60_000).is_miss());
        assert!(scratch.procs[0].cache.contains(60_000));
    }
}
