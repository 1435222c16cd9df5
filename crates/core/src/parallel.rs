//! The simulated parallel work-stealing execution.
//!
//! `P` simulated processors execute the DAG in discrete time steps. Each
//! processor owns a deque of ready nodes and a private cache. In each step
//! an awake processor either executes its current node (every node is a
//! unit task) or, if it has nothing to do, attempts one steal from the top
//! of another processor's deque. Completing a node enables successors from
//! its frozen [`wsf_dag::SuccessorRecord`], and the parsimonious rule
//! ([`crate::next_and_push`], shared with the sequential and pool
//! executors) decides which enabled successor the processor continues with
//! and which it pushes.
//!
//! The simulator counts, per processor, executed nodes, successful and
//! failed steals, cache hits/misses and *deviations* (nodes not executed
//! immediately after their predecessor in the sequential order, by the same
//! processor), which are exactly the quantities bounded by the paper's
//! theorems.
//!
//! # Strands
//!
//! Most nodes of the served shapes are *chain* nodes: the node's only
//! successor has no other predecessor. Completing one enables exactly that
//! successor, which the parsimonious rule runs next on the same processor;
//! nothing is pushed, and nothing another processor reads changes. A chain
//! successor never deviates either: the sequential execution also runs it
//! right after its only predecessor, and so does the processor that ran
//! that predecessor. So when a processor takes a node (by a completion, a
//! steal, or the root at step 0), the simulator may run the whole
//! in-degree-1 chain from it — the *strand* — in one tight loop: one cache
//! access and one readiness update per node, a single deviation check at
//! the strand's first node. The processor is then left on the strand's
//! last, non-chain node, which completes through the ordinary per-step
//! path at the step the strand reaches it, and the step loop jumps over
//! steps in which only strands advance and no idle processor can steal.
//!
//! Strands need a [`Scheduler::step_blind`] scheduler — no processor
//! sleeps mid-chain, no stall hook runs, and `on_complete` for a strand's
//! last node stands in for all of them — and an untraced run, since a
//! trace lists completions in (step, processor) order. Every other run
//! (a [`crate::ScriptedScheduler`] adversary, any traced run) walks one
//! step at a time, which is also the oracle the strand walk is pinned to
//! in `crates/core/tests/policy_equivalence.rs`. Both walks produce equal
//! reports.
//!
//! # Touch-once DAGs
//!
//! When no block is touched by two nodes ([`SeqReport::reuses_blocks`] is
//! `false`), every access is the first one to its block: it misses in
//! every cache of every capacity, whichever processor makes it and
//! whatever ran before. An LRU cache then cannot change a count: a
//! processor's misses are its block-carrying completions, its silent
//! accesses its block-less ones, and its hits 0. So such a run counts
//! instead of caching, with the report the caches would give. Its caches
//! stay empty, so a residency probe reads "not resident", as a real cache
//! would: the victim's top block belongs to that unrun node alone. The
//! differential in `crates/core/tests/touch_once.rs` holds both there.
//!
//! The hot loop is allocation-free in steady state: every buffer lives in a
//! [`SimScratch`] that callers may reuse across runs, the set of non-empty
//! deques is an incrementally maintained bitset (so victim selection costs
//! O(candidates), not O(P) plus an allocation), and the trace vector is
//! pre-sized to the node count when tracing is requested.

use crate::config::SimConfig;
use crate::ready::{next_and_push, ReadyTracker};
use crate::report::{ExecutionReport, SeqReport, TraceEvent};
use crate::scheduler::{RandomScheduler, Scheduler, StealAmount, StealContext};
use crate::scratch::{NonEmptySet, Proc, SimScratch};
use crate::sequential::SequentialExecutor;
use wsf_dag::{Block, Dag, NodeId};

/// A simulated parallel execution of a computation DAG under parsimonious
/// work stealing.
#[derive(Copy, Clone, Debug)]
pub struct ParallelSimulator {
    config: SimConfig,
}

impl ParallelSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        ParallelSimulator { config }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the DAG with the default random steal scheduler, computing the
    /// sequential baseline (same fork policy) internally for deviation
    /// counting.
    pub fn run(&self, dag: &Dag) -> ExecutionReport {
        let seq = self.sequential(dag);
        let mut scheduler = RandomScheduler::new(self.config.seed);
        let mut scratch = SimScratch::new();
        // Concrete scheduler type: monomorphized, fully inlined loop.
        self.run_with_scratch(dag, &seq, &mut scheduler, false, &mut scratch)
    }

    /// Runs the DAG with a caller-supplied scheduler (e.g. a scripted
    /// adversary), computing the sequential baseline internally.
    pub fn run_with(&self, dag: &Dag, scheduler: &mut dyn Scheduler) -> ExecutionReport {
        let seq = self.sequential(dag);
        self.run_against(dag, &seq, scheduler, false)
    }

    /// The sequential baseline execution matching this simulator's fork
    /// policy and cache size.
    pub fn sequential(&self, dag: &Dag) -> SeqReport {
        SequentialExecutor::new(self.config.fork_policy)
            .with_cache_lines(self.config.cache_lines)
            .run(dag)
    }

    /// Runs the DAG against a precomputed sequential baseline.
    ///
    /// `record_trace` additionally records every completion event (step,
    /// processor, node), which the tests and some experiments use to verify
    /// execution orders node by node.
    pub fn run_against(
        &self,
        dag: &Dag,
        seq: &SeqReport,
        scheduler: &mut dyn Scheduler,
        record_trace: bool,
    ) -> ExecutionReport {
        let mut scratch = SimScratch::new();
        self.run_with_scratch(dag, seq, scheduler, record_trace, &mut scratch)
    }

    /// Like [`ParallelSimulator::run_against`], but reusing the buffers in
    /// `scratch`. Sweeps that simulate many DAGs should create one scratch
    /// and pass it to every run: after the first run no per-step (and, with
    /// a stable configuration, almost no per-run) heap allocation happens.
    ///
    /// The method is generic over the scheduler type so concrete callers
    /// (e.g. the analysis sweeps with a [`RandomScheduler`]) get a
    /// monomorphized loop with the scheduler inlined — `is_awake` folds to
    /// a constant for always-awake schedulers — while `&mut dyn Scheduler`
    /// callers keep working unchanged.
    pub fn run_with_scratch<S: Scheduler + ?Sized>(
        &self,
        dag: &Dag,
        seq: &SeqReport,
        scheduler: &mut S,
        record_trace: bool,
        scratch: &mut SimScratch,
    ) -> ExecutionReport {
        // On a touch-once DAG every access misses, so counting is the
        // cache. A residency probe then reads the empty caches left by
        // `reset_procs`, which is what a real cache would say. Each choice
        // gets its own loop, so the cache path pays no per-access test.
        if seq.reuses_blocks() {
            self.simulate::<S, false>(dag, seq, scheduler, record_trace, scratch)
        } else {
            self.simulate::<S, true>(dag, seq, scheduler, record_trace, scratch)
        }
    }

    /// [`ParallelSimulator::run_with_scratch`], counting misses instead of
    /// running the caches when `COUNT_ONLY`.
    fn simulate<S: Scheduler + ?Sized, const COUNT_ONLY: bool>(
        &self,
        dag: &Dag,
        seq: &SeqReport,
        scheduler: &mut S,
        record_trace: bool,
        scratch: &mut SimScratch,
    ) -> ExecutionReport {
        let p_count = self.config.processors.max(1);
        scratch.reset_procs(p_count, self.config.cache_lines, dag.block_space());
        scratch.tracker.reset(dag);
        let seq_prev = seq.predecessors();
        let SimScratch {
            procs,
            nonempty,
            candidates,
            depths,
            resident,
            stolen,
            tracker,
            ..
        } = scratch;
        // The residency probe costs a peek + cache lookup per candidate per
        // steal attempt; only locality-aware policies pay for it.
        let wants_residency = scheduler.wants_residency();
        let steal_amount = scheduler.steal_amount();

        let mut trace = if record_trace {
            Some(Vec::with_capacity(dag.num_nodes()))
        } else {
            None
        };

        // Strands need a step-blind scheduler, and an untraced run: a trace
        // lists completions in (step, processor) order.
        let strands = scheduler.step_blind() && !record_trace;

        let total = dag.num_nodes();
        let budget = self.config.step_budget(dag.work());
        let mut step: u64 = 0;
        let mut makespan = 0;

        // The computation starts with the root node on processor 0.
        procs[0].current = Some(dag.root());
        if strands {
            run_ahead::<COUNT_ONLY>(
                dag,
                tracker,
                &mut procs[0],
                seq_prev,
                0,
                budget,
                &mut makespan,
            );
        }

        while tracker.executed_count() < total && step < budget {
            let mut progressed = false;

            for p in 0..p_count {
                // Fast path: an idle processor with nothing to steal does
                // nothing this step no matter what the scheduler says, so
                // skip the scheduler calls entirely. (`is_awake` and
                // `choose_victim` are queries; deferring them over a no-op
                // step is unobservable — sleep conditions are monotone and
                // no scheduler consumes randomness on an empty candidate
                // list.)
                if procs[p].current.is_none() && nonempty.has_no_victim_for(p) {
                    continue;
                }
                // Still inside a strand its walk already ran.
                if procs[p].ready_at > step {
                    progressed = true;
                    continue;
                }
                if !scheduler.is_awake(p, step) {
                    continue;
                }
                match procs[p].current {
                    Some(node) => {
                        progressed = true;
                        self.complete::<S, COUNT_ONLY>(
                            dag,
                            tracker,
                            &mut procs[p],
                            seq_prev,
                            nonempty,
                            scheduler,
                            p,
                            node,
                            step,
                            &mut trace,
                        );
                        makespan = makespan.max(step + 1);
                    }
                    None => {
                        // Idle processor: its own deque is drained at
                        // completion time, so the only way to obtain work is
                        // to steal from the top of another processor's
                        // deque. The candidate list is read off the
                        // incrementally-maintained non-empty set (ascending
                        // processor order, O(candidates), no allocation);
                        // the per-candidate depth and residency views are
                        // rebuilt into reusable scratch buffers.
                        candidates.clear();
                        candidates.extend(nonempty.iter().filter(|&q| q != p));
                        depths.clear();
                        depths.extend(candidates.iter().map(|&q| procs[q].deque.len()));
                        resident.clear();
                        if wants_residency {
                            resident.extend(candidates.iter().map(|&q| {
                                procs[q].deque.peek_top().is_some_and(|&n| {
                                    dag.block_of(n)
                                        .is_some_and(|b| procs[p].cache.contains(b.0))
                                })
                            }));
                        }
                        let ctx = StealContext::new(candidates, depths, resident);
                        match scheduler.choose_victim(p, &ctx) {
                            // Validate the choice by membership instead of a
                            // linear re-scan of the candidate list.
                            Some(victim) if victim != p && nonempty.contains(victim) => {
                                match steal_amount {
                                    StealAmount::One => {
                                        let taken = procs[victim].deque.steal_top();
                                        nonempty.sync(victim, !procs[victim].deque.is_empty());
                                        match taken {
                                            Some(node) => {
                                                procs[p].current = Some(node);
                                                procs[p].stats.steals += 1;
                                                progressed = true;
                                            }
                                            None => procs[p].stats.failed_steals += 1,
                                        }
                                    }
                                    StealAmount::Half => {
                                        // Transfer the top ceil(len/2)
                                        // entries: the oldest becomes the
                                        // thief's current node, the rest go
                                        // into its deque oldest-topmost, so
                                        // both deques keep their age order.
                                        let take = procs[victim].deque.len().div_ceil(2);
                                        stolen.clear();
                                        for _ in 0..take {
                                            match procs[victim].deque.steal_top() {
                                                Some(n) => stolen.push(n),
                                                None => break,
                                            }
                                        }
                                        nonempty.sync(victim, !procs[victim].deque.is_empty());
                                        match stolen.first().copied() {
                                            Some(node) => {
                                                procs[p].current = Some(node);
                                                for &n in &stolen[1..] {
                                                    procs[p].deque.push_bottom(n);
                                                }
                                                nonempty.sync(p, !procs[p].deque.is_empty());
                                                procs[p].stats.steals += 1;
                                                progressed = true;
                                            }
                                            None => procs[p].stats.failed_steals += 1,
                                        }
                                    }
                                }
                            }
                            _ => {
                                if !candidates.is_empty() {
                                    procs[p].stats.failed_steals += 1;
                                }
                            }
                        }
                    }
                }
                // A current node set in this step, by a completion or a
                // steal, starts a strand at the next step.
                if strands && procs[p].current.is_some() {
                    run_ahead::<COUNT_ONLY>(
                        dag,
                        tracker,
                        &mut procs[p],
                        seq_prev,
                        step + 1,
                        budget,
                        &mut makespan,
                    );
                }
            }

            if !progressed {
                scheduler.on_stalled(step);
            }
            step = if strands {
                next_step(procs, nonempty, step, budget)
            } else {
                step + 1
            };
        }

        // Cache statistics are folded into the per-processor stats once per
        // run, not once per completion; a counting run kept them there.
        if !COUNT_ONLY {
            for proc in procs.iter_mut() {
                proc.stats.cache = proc.cache.stats();
            }
        }
        ExecutionReport {
            per_proc: procs.iter().map(|p| p.stats.clone()).collect(),
            makespan,
            completed: tracker.executed_count() == total,
            trace,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn complete<S: Scheduler + ?Sized, const COUNT_ONLY: bool>(
        &self,
        dag: &Dag,
        tracker: &mut ReadyTracker,
        proc: &mut Proc,
        seq_prev: &[Option<NodeId>],
        nonempty: &mut NonEmptySet,
        scheduler: &mut S,
        p: usize,
        node: NodeId,
        step: u64,
        trace: &mut Option<Vec<TraceEvent>>,
    ) {
        let record = dag.record(node);
        touch::<COUNT_ONLY>(proc, record.block());
        proc.stats.executed += 1;

        // A node is a deviation unless this same processor executed its
        // sequential predecessor immediately before it.
        let expected = seq_prev.get(node.index()).copied().flatten();
        if proc.last_completed != expected {
            proc.stats.deviations += 1;
        }
        proc.last_completed = Some(node);
        if let Some(t) = trace.as_mut() {
            t.push(TraceEvent {
                step,
                proc: p,
                node,
            });
        }

        let enabled = tracker.retire(node, record);
        let (next, push) = next_and_push(record, enabled, self.config.fork_policy);
        if let Some(push) = push {
            proc.deque.push_bottom(push);
        }
        // Continue with the chosen child, otherwise fall back to the bottom
        // of the own deque (the parsimonious rule).
        proc.current = next.or_else(|| proc.deque.pop_bottom());
        nonempty.sync(p, !proc.deque.is_empty());

        scheduler.on_complete(p, node, step);
    }
}

/// The cache access of a node that touches `block`: counted as a miss
/// (or a silent access) on a touch-once run, where the cache could only
/// say the same, and run through the processor's LRU cache otherwise.
#[inline]
fn touch<const COUNT_ONLY: bool>(proc: &mut Proc, block: Option<Block>) {
    if COUNT_ONLY {
        match block {
            Some(_) => proc.stats.cache.misses += 1,
            None => proc.stats.cache.silent += 1,
        }
    } else {
        proc.cache.access_opt(block.map(|b| b.0));
    }
}

/// Walks the strand that starts at `proc.current`, whose first node runs
/// at step `start`: every chain node (its only successor has no other
/// predecessor) completes in one tight loop, one step after the other, and
/// `proc` is left on the strand's last, non-chain node with `ready_at` the
/// step at which [`ParallelSimulator::complete`] runs it. The walk stops at
/// `budget`, the first step the run never reaches.
///
/// A chain completion touches only this processor's cache and counters
/// and its successor's readiness word, pushes nothing and runs no steal,
/// so running it ahead of the other processors' steps is unobservable to
/// them.
fn run_ahead<const COUNT_ONLY: bool>(
    dag: &Dag,
    tracker: &mut ReadyTracker,
    proc: &mut Proc,
    seq_prev: &[Option<NodeId>],
    start: u64,
    budget: u64,
    makespan: &mut u64,
) {
    let first = proc
        .current
        .expect("a strand starts at the processor's current node");
    let in_degrees = dag.in_degrees();
    let mut node = first;
    let mut last = None;
    let mut step = start;
    while step < budget {
        let record = dag.record(node);
        let [Some(succ), None] = record.successors() else {
            break;
        };
        if in_degrees[succ.index()] != 1 {
            break;
        }
        debug_assert_eq!(
            seq_prev.get(succ.index()).copied().flatten(),
            Some(node),
            "the sequential order runs a chain successor right after its predecessor"
        );
        touch::<COUNT_ONLY>(proc, record.block());
        tracker.retire_chain(node, succ);
        last = Some(node);
        node = succ;
        step += 1;
    }
    if last.is_some() {
        // Only the strand's first node can deviate: every later one runs
        // right after its only predecessor, as the sequential order does.
        let expected = seq_prev.get(first.index()).copied().flatten();
        if proc.last_completed != expected {
            proc.stats.deviations += 1;
        }
        proc.last_completed = last;
        proc.stats.executed += step - start;
        *makespan = (*makespan).max(step);
    }
    proc.current = Some(node);
    proc.ready_at = step;
}

/// The step a strand run visits after `step`: the next one while an idle
/// processor has a victim to steal from, otherwise the first step at which
/// a busy processor completes its strand's last node, capped at `budget`.
/// Only those steps push, pop, steal or count a failed steal.
fn next_step(procs: &[Proc], nonempty: &NonEmptySet, step: u64, budget: u64) -> u64 {
    let mut next = budget;
    for (p, proc) in procs.iter().enumerate() {
        if proc.current.is_some() {
            next = next.min(proc.ready_at);
        } else if !nonempty.has_no_victim_for(p) {
            return step + 1;
        }
    }
    debug_assert!(
        next > step,
        "a busy processor's strand ends after this step"
    );
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ForkPolicy;
    use crate::scheduler::{PolicyConfig, PolicyScheduler};
    use wsf_dag::{Block, DagBuilder};

    /// A balanced fork-join tree of depth `depth` where every leaf touches a
    /// distinct block.
    fn fork_tree(depth: usize) -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        // Recursively spawn: thread spawns two children at each level.
        fn expand(
            b: &mut DagBuilder,
            thread: wsf_dag::ThreadId,
            depth: usize,
            next_block: &mut u32,
        ) {
            if depth == 0 {
                let n = b.task(thread);
                b.set_block(n, Block(*next_block));
                *next_block += 1;
                return;
            }
            let f = b.fork(thread);
            expand(b, f.future_thread, depth - 1, next_block);
            b.task(thread);
            expand(b, thread, depth - 1, next_block);
            b.touch_thread(thread, f.future_thread);
        }
        let mut blocks = 0;
        expand(&mut b, main, depth, &mut blocks);
        b.task(main);
        b.finish().unwrap()
    }

    #[test]
    fn single_processor_run_matches_sequential_order() {
        let dag = fork_tree(3);
        let config = SimConfig {
            processors: 1,
            ..SimConfig::default()
        };
        let sim = ParallelSimulator::new(config);
        let seq = sim.sequential(&dag);
        let mut sched = PolicyScheduler::new(PolicyConfig::parsimonious(0));
        let report = sim.run_against(&dag, &seq, &mut sched, true);

        assert!(report.completed);
        assert_eq!(report.executed(), dag.num_nodes() as u64);
        assert_eq!(report.deviations(), 0, "one processor cannot deviate");
        assert_eq!(report.steals(), 0);
        assert_eq!(report.cache_misses(), seq.cache_misses());

        let trace = report.trace.unwrap();
        let order: Vec<NodeId> = trace.iter().map(|e| e.node).collect();
        assert_eq!(order, seq.order());
    }

    #[test]
    fn parallel_run_executes_every_node_exactly_once() {
        let dag = fork_tree(4);
        for processors in [2, 3, 4, 8] {
            for policy in ForkPolicy::ALL {
                let config = SimConfig {
                    processors,
                    fork_policy: policy,
                    ..SimConfig::default()
                };
                let report = ParallelSimulator::new(config).run(&dag);
                assert!(report.completed, "P={processors} {policy}");
                assert_eq!(report.executed(), dag.num_nodes() as u64);
            }
        }
    }

    #[test]
    fn parallel_run_is_deterministic_for_a_seed() {
        let dag = fork_tree(4);
        let config = SimConfig {
            processors: 4,
            seed: 42,
            ..SimConfig::default()
        };
        let a = ParallelSimulator::new(config).run(&dag);
        let b = ParallelSimulator::new(config).run(&dag);
        assert_eq!(a.deviations(), b.deviations());
        assert_eq!(a.cache_misses(), b.cache_misses());
        assert_eq!(a.steals(), b.steals());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_state() {
        // The same (dag, seed, config) run through one reused scratch must
        // produce exactly the report a fresh-state run produces — including
        // across intervening runs with different configurations.
        let dag = fork_tree(5);
        let mut scratch = SimScratch::new();
        for processors in [1usize, 3, 4] {
            for policy in ForkPolicy::ALL {
                let config = SimConfig {
                    processors,
                    fork_policy: policy,
                    seed: 7,
                    ..SimConfig::default()
                };
                let sim = ParallelSimulator::new(config);
                let seq = sim.sequential(&dag);
                let mut fresh_sched = RandomScheduler::new(config.seed);
                let fresh = sim.run_against(&dag, &seq, &mut fresh_sched, true);
                let mut reused_sched = RandomScheduler::new(config.seed);
                let reused =
                    sim.run_with_scratch(&dag, &seq, &mut reused_sched, true, &mut scratch);
                assert_eq!(fresh.makespan, reused.makespan);
                assert_eq!(fresh.deviations(), reused.deviations());
                assert_eq!(fresh.steals(), reused.steals());
                assert_eq!(fresh.cache_misses(), reused.cache_misses());
                assert_eq!(fresh.trace, reused.trace, "identical node-by-node order");
            }
        }
    }

    #[test]
    fn scratch_reused_after_a_mid_run_panic_yields_the_fresh_state_report() {
        // A run that unwinds midway leaves deques, caches, the tracker and
        // the non-empty set populated. The next run on that scratch — same
        // configuration, so the processors are reset in place rather than
        // rebuilt — must still equal a fresh-state run.
        struct PanicsAt {
            inner: RandomScheduler,
            completions_left: u32,
        }
        impl Scheduler for PanicsAt {
            fn on_complete(&mut self, proc: usize, node: NodeId, step: u64) {
                assert!(self.completions_left > 0, "injected mid-run panic");
                self.completions_left -= 1;
                self.inner.on_complete(proc, node, step);
            }
            fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
                self.inner.choose_victim(thief, ctx)
            }
        }

        let config = SimConfig {
            processors: 4,
            seed: 7,
            ..SimConfig::default()
        };
        let sim = ParallelSimulator::new(config);
        let big = fork_tree(6);
        let big_seq = sim.sequential(&big);
        for k in [1u32, 17, 60] {
            let mut scratch = SimScratch::new();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sched = PanicsAt {
                    inner: RandomScheduler::new(config.seed),
                    completions_left: k,
                };
                sim.run_with_scratch(&big, &big_seq, &mut sched, true, &mut scratch)
            }));
            assert!(
                unwound.is_err(),
                "the scheduler panics after {k} completions"
            );

            // Reuse on the same DAG and on a smaller one.
            for dag in [&big, &fork_tree(4)] {
                let seq = sim.sequential(dag);
                let fresh =
                    sim.run_against(dag, &seq, &mut RandomScheduler::new(config.seed), true);
                let reused = sim.run_with_scratch(
                    dag,
                    &seq,
                    &mut RandomScheduler::new(config.seed),
                    true,
                    &mut scratch,
                );
                assert!(reused.completed);
                assert_eq!(fresh.makespan, reused.makespan, "k={k}");
                assert_eq!(fresh.deviations(), reused.deviations(), "k={k}");
                assert_eq!(fresh.steals(), reused.steals(), "k={k}");
                assert_eq!(fresh.cache_misses(), reused.cache_misses(), "k={k}");
                assert_eq!(fresh.trace, reused.trace, "k={k}: identical order");
            }
        }
    }

    #[test]
    fn deviations_are_bounded_by_executed_nodes() {
        let dag = fork_tree(5);
        let config = SimConfig {
            processors: 4,
            ..SimConfig::default()
        };
        let report = ParallelSimulator::new(config).run(&dag);
        assert!(report.deviations() <= report.executed());
        assert!(report.busy_processors() >= 1);
    }

    #[test]
    fn work_is_actually_distributed_with_greedy_stealing() {
        let dag = fork_tree(6);
        let config = SimConfig {
            processors: 4,
            ..SimConfig::default()
        };
        let sim = ParallelSimulator::new(config);
        let seq = sim.sequential(&dag);
        let mut sched = PolicyScheduler::new(PolicyConfig::parsimonious(0));
        let report = sim.run_against(&dag, &seq, &mut sched, false);
        assert!(report.completed);
        assert!(report.steals() > 0, "thieves find work in a wide tree");
        assert!(report.busy_processors() > 1);
        assert!(
            report.makespan < dag.num_nodes() as u64,
            "parallelism shortens the makespan"
        );
    }

    #[test]
    fn incomplete_when_budget_too_small() {
        let dag = fork_tree(3);
        let config = SimConfig {
            processors: 2,
            max_steps: Some(3),
            ..SimConfig::default()
        };
        let report = ParallelSimulator::new(config).run(&dag);
        assert!(!report.completed);
        assert!(report.executed() < dag.num_nodes() as u64);
    }
}
