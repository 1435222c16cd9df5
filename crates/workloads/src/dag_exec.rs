//! Executes a simulator [`Dag`] on the real work-stealing pool.
//!
//! The hardware-validation loop (E21) needs the *same* computation DAGs the
//! simulator schedules to run on `wsf_runtime`'s thread pool, emitting a
//! block-touch trace that can be replayed through the cache simulator and
//! checked against the paper's bounds. This module is the bridge: a chain
//! interpreter that walks a structured single-touch DAG with exactly the
//! parsimonious scheduling rule of the executors in `wsf-core`.
//!
//! ## How a DAG becomes pool tasks
//!
//! Each pool task runs a **chain** of nodes: starting from one enabled
//! node, it repeatedly executes the node (recording the touch), enables
//! successors from its [`SuccessorRecord`](wsf_dag::SuccessorRecord), lets
//! [`next_and_push`] — the rule the sequential and parallel simulators
//! call — pick `next` and `push`, follows `next`, and spawns `push` as a
//! *new* chain task via [`Runtime::spawn`]. A chain is a task, not a
//! future: nobody touches it, and its result travels through the join
//! counters below, so it carries no completion slot. Spawned chains land on
//! the bottom of the running worker's deque, where the owner pops them LIFO
//! and other workers steal them FIFO — the same discipline the simulators'
//! deques follow.
//!
//! At `P = 1` this makes the node order **byte-identical** to
//! [`SequentialExecutor`](wsf_core::SequentialExecutor): a single worker's
//! own-deque pop is exactly the simulator's pop from its deque's bottom,
//! chains are the simulator's `next` walks, and both read the same record
//! through the same rule — the property the `trace_conformance` suite pins
//! down.
//!
//! ## Exactly-once and fault rescue
//!
//! Executing a node writes only that node's words and its successors';
//! nothing is written by every node. Each node has one state byte,
//! `UNCLAIMED → RUNNING → DONE`:
//!
//! * A chain **claims** a node by moving it from `UNCLAIMED` to `RUNNING`
//!   before executing it, so the node runs exactly once even if it is ever
//!   spawned twice. The claim is a compare-and-swap, so a late duplicate
//!   never moves a `DONE` node back to `RUNNING`.
//! * Once the node's successors are enabled, the chain stores `DONE` with a
//!   plain `Release` store, not a read-modify-write.
//!
//! A successor with in-degree 1 is enabled outright: its one predecessor
//! runs exactly once, so nobody else can enable it. Only joins keep an
//! atomic count of outstanding predecessors (`remaining`); the `AcqRel`
//! decrement that reaches zero enables the join.
//!
//! Nothing counts nodes while the DAG runs. A node's claim is sequenced
//! before the work that enables its successors, and that enabling carries
//! it on: program order along a chain, the deque's push/steal pair to a
//! spawned chain, and for a join the `AcqRel` decrements, whose release
//! sequence reaches the decrement that enables it. Every node precedes the
//! final node, so the claims all happen before the final node runs, and
//! the `done` mutex carries them to the caller: after `done`, one scan of
//! the state bytes finds every node claimed.
//!
//! When the fault injector kills a worker (or panics a task), the chain
//! task it was about to run is dropped without executing (its nodes stay
//! enabled but unclaimed). The caller's wait loop counts claimed nodes once
//! per 100 ms window that ends without `done`; when a window claimed
//! nothing, it respawns a chain for every enabled-but-unclaimed node — or,
//! once every worker is dead, executes them directly on the calling thread
//! (recorded on the trace's external lane). A node counts as enabled when
//! its `remaining` count is zero (the root, and joins) or when it has
//! in-degree 1 and its one predecessor is `DONE`. `RUNNING` is not enough:
//! a predecessor that has claimed but not yet traced would let its
//! respawned successor overtake it in the trace.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wsf_core::{next_and_push, ForkPolicy};
use wsf_dag::{Dag, NodeId};
use wsf_runtime::Runtime;

/// What a pool execution of a DAG did, beyond the runtime's own counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagRunReport {
    /// Nodes executed (always `dag.num_nodes()` on success).
    pub nodes_executed: usize,
    /// Chains respawned by the rescue sweep after a stalled execution
    /// (worker kills, or chain tasks lost to injected failures).
    pub rescued: usize,
    /// Rescue sweeps that found at least one node to respawn.
    pub rescue_rounds: usize,
    /// Nodes executed directly on the calling thread because every worker
    /// had been killed; they appear on the trace's external lane.
    pub direct_runs: usize,
}

/// Node states: not yet executed, claimed by a chain, successors enabled.
const UNCLAIMED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;

/// Aligned to 128 bytes so that inside its `Arc` the reference counts,
/// written by every chain spawn and exit on both workers, sit on another
/// cache-line pair than the fields every node reads.
#[repr(align(128))]
struct Ctx {
    rt: Arc<Runtime>,
    dag: Arc<Dag>,
    policy: ForkPolicy,
    /// Outstanding predecessors per join; the decrementer that reaches zero
    /// enables it. In-degree-1 nodes are enabled without touching theirs.
    remaining: Vec<AtomicU32>,
    /// Per-node `UNCLAIMED → RUNNING → DONE` (module docs).
    state: Vec<AtomicU8>,
    done: Mutex<bool>,
    done_cond: Condvar,
}

impl Ctx {
    /// Every node unclaimed, every count at the node's in-degree.
    fn new(rt: &Arc<Runtime>, dag: &Arc<Dag>, policy: ForkPolicy) -> Arc<Ctx> {
        Arc::new(Ctx {
            rt: Arc::clone(rt),
            dag: Arc::clone(dag),
            policy,
            remaining: dag
                .in_degrees()
                .iter()
                .map(|&d| AtomicU32::new(d))
                .collect(),
            state: (0..dag.num_nodes())
                .map(|_| AtomicU8::new(UNCLAIMED))
                .collect(),
            done: Mutex::new(false),
            done_cond: Condvar::new(),
        })
    }

    /// Executes the chain starting at `start`: run the node, enable its
    /// children, follow `next`, spawn `push` as a new chain. In `direct`
    /// mode (every worker dead) pushes go onto a local LIFO stack instead
    /// of the pool — the sequential executor's discipline on the caller
    /// thread. Returns the number of nodes this call executed.
    fn run_chain(self: &Arc<Self>, start: NodeId, direct: bool) -> usize {
        let in_degrees = self.dag.in_degrees();
        let mut ran = 0;
        let mut stack: Vec<NodeId> = Vec::new();
        let mut current = Some(start);
        while let Some(node) = current {
            let state = &self.state[node.index()];
            if state
                .compare_exchange(UNCLAIMED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Another chain (the original of a rescue duplicate, or
                // vice versa) already owns this node; its `next` walk
                // continues elsewhere.
                current = if direct { stack.pop() } else { None };
                continue;
            }
            let record = self.dag.record(node);
            self.rt.trace_node(node.0, record.block().map(|b| b.0));
            ran += 1;

            let enabled = record.successors().map(|succ| {
                succ.is_some_and(|s| {
                    in_degrees[s.index()] == 1
                        || self.remaining[s.index()].fetch_sub(1, Ordering::AcqRel) == 1
                })
            });
            state.store(DONE, Ordering::Release);
            if node == self.dag.final_node() {
                // Every node precedes the final node, so the DAG is done.
                let mut done = self.done.lock().expect("done lock");
                *done = true;
                self.done_cond.notify_all();
            }

            let (next, push) = next_and_push(record, enabled, self.policy);
            if let Some(push) = push {
                if direct {
                    stack.push(push);
                } else {
                    let ctx = Arc::clone(self);
                    self.rt.spawn(move || {
                        ctx.run_chain(push, false);
                    });
                }
            }
            current = next.or_else(|| if direct { stack.pop() } else { None });
        }
        ran
    }

    /// Whether node `index` is enabled but unclaimed — what a rescue sweep
    /// respawns. A node with a count (the root, joins) is enabled at zero;
    /// an in-degree-1 node once its predecessor is `DONE`.
    fn stranded(&self, index: usize) -> bool {
        if self.state[index].load(Ordering::Acquire) != UNCLAIMED {
            return false;
        }
        if self.dag.in_degrees()[index] == 1 {
            let pred = self.dag.predecessors(NodeId::from_index(index)).next();
            pred.is_some_and(|e| self.state[e.node.index()].load(Ordering::Acquire) == DONE)
        } else {
            self.remaining[index].load(Ordering::Acquire) == 0
        }
    }

    /// Nodes claimed so far. `Relaxed` suffices: while the DAG runs this is
    /// only a progress reading, and once `done` is set the `done` mutex
    /// orders every claim before the scan (module docs), so it counts
    /// every node.
    fn claimed(&self) -> usize {
        self.state
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != UNCLAIMED)
            .count()
    }

    /// Respawns a chain for every enabled-but-unclaimed node. With live
    /// workers the chains are spawned on the pool; with none they run
    /// directly on the calling thread. Returns `(respawned, direct_runs)`.
    fn rescue(self: &Arc<Self>) -> (usize, usize) {
        let direct = self.rt.live_workers() == 0;
        let mut respawned = 0;
        let mut direct_runs = 0;
        for index in 0..self.dag.num_nodes() {
            if self.stranded(index) {
                let node = NodeId::from_index(index);
                respawned += 1;
                if direct {
                    direct_runs += self.run_chain(node, true);
                } else {
                    let ctx = Arc::clone(self);
                    self.rt.spawn(move || {
                        ctx.run_chain(node, false);
                    });
                }
            }
        }
        (respawned, direct_runs)
    }
}

/// Runs `dag` to completion on the pool `rt` under the parsimonious
/// work-stealing discipline, with `policy` deciding which fork child a
/// worker executes first.
///
/// The root chain is submitted through the injector (the caller is not a
/// worker); everything after that flows through the workers' own deques
/// and steals. When the runtime was built with
/// [`touch_trace`](wsf_runtime::RuntimeBuilder::touch_trace), every node
/// execution lands in the lane of the worker that ran it.
///
/// Survives fault injection (worker kills, injected panics, stalls): lost
/// chains are respawned, and if the injector kills *every* worker the
/// remaining nodes execute on the calling thread. Panics if the DAG has
/// not completed within 60 seconds.
pub fn run_dag_on_pool(rt: &Arc<Runtime>, dag: &Arc<Dag>, policy: ForkPolicy) -> DagRunReport {
    let ctx = Ctx::new(rt, dag, policy);
    let mut report = DagRunReport::default();

    let root = dag.root();
    let ctx2 = Arc::clone(&ctx);
    rt.spawn(move || {
        ctx2.run_chain(root, false);
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last_claimed = 0usize;
    loop {
        let guard = ctx.done.lock().expect("done lock");
        let (guard, _) = ctx
            .done_cond
            .wait_timeout_while(guard, Duration::from_millis(100), |done| !*done)
            .expect("done lock");
        if *guard {
            break;
        }
        drop(guard);
        let claimed = ctx.claimed();
        last_claimed = if claimed == last_claimed {
            // No progress over a full wait window: chains were lost to
            // worker kills (or are stalled). Respawn everything enabled.
            let (respawned, direct_runs) = ctx.rescue();
            if respawned > 0 {
                report.rescued += respawned;
                report.rescue_rounds += 1;
                report.direct_runs += direct_runs;
            }
            claimed + direct_runs
        } else {
            claimed
        };
        assert!(
            Instant::now() < deadline,
            "DAG execution stalled: {last_claimed}/{} nodes after 60s",
            dag.num_nodes()
        );
    }

    report.nodes_executed = ctx.claimed();
    assert_eq!(
        report.nodes_executed,
        dag.num_nodes(),
        "the final node ran before every node was claimed"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{backpressure, sort, stencil};
    use wsf_core::SequentialExecutor;
    use wsf_dag::DagBuilder;
    use wsf_runtime::{Runtime, SpawnPolicy, TouchEvent};

    fn traced_runtime(threads: usize) -> Arc<Runtime> {
        Arc::new(
            Runtime::builder()
                .threads(threads)
                .policy(SpawnPolicy::ChildFirst)
                .touch_trace(1 << 16)
                .build(),
        )
    }

    fn full_node_trace(rt: &Runtime) -> Vec<(u32, Option<u32>)> {
        let trace = rt.touch_trace().expect("tracing enabled");
        assert_eq!(trace.dropped(), 0, "trace capacity exhausted");
        (0..trace.lanes())
            .flat_map(|lane| trace.node_trace(lane))
            .collect()
    }

    #[test]
    fn single_worker_matches_sequential_order() {
        for policy in [ForkPolicy::FutureFirst, ForkPolicy::ParentFirst] {
            let dag = Arc::new(sort::mergesort(64, 8));
            let rt = traced_runtime(1);
            let report = run_dag_on_pool(&rt, &dag, policy);
            assert_eq!(report.nodes_executed, dag.num_nodes());
            assert_eq!(report.rescued, 0);

            let seq = SequentialExecutor::new(policy).run(&dag);
            let runtime_order: Vec<u32> = rt
                .touch_trace()
                .unwrap()
                .node_trace(0)
                .iter()
                .map(|(n, _)| *n)
                .collect();
            let seq_order: Vec<u32> = seq.order().iter().map(|n| n.0).collect();
            assert_eq!(runtime_order, seq_order, "policy {policy:?}");
        }
    }

    #[test]
    fn every_node_executes_exactly_once_at_p4() {
        let dags = [
            Arc::new(sort::mergesort(128, 16)),
            Arc::new(stencil::stencil(4, 3, 3)),
            Arc::new(stencil::stencil_exchange(3, 2, 2)),
            Arc::new(backpressure::batched_pipeline(3, 12, 4, 1)),
        ];
        for dag in dags {
            let rt = traced_runtime(4);
            let report = run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
            assert_eq!(report.nodes_executed, dag.num_nodes());

            let mut nodes: Vec<u32> = full_node_trace(&rt).iter().map(|(n, _)| *n).collect();
            nodes.sort_unstable();
            let expected: Vec<u32> = (0..dag.num_nodes() as u32).collect();
            assert_eq!(nodes, expected, "each node traced exactly once");
        }
    }

    #[test]
    fn traced_blocks_match_the_dag() {
        let dag = Arc::new(stencil::stencil(3, 2, 2));
        let rt = traced_runtime(2);
        run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
        for (node, block) in full_node_trace(&rt) {
            let expected = dag.block_of(NodeId(node)).map(|b| b.0);
            assert_eq!(block, expected, "node {node}");
        }
    }

    #[test]
    fn task_provenance_events_are_recorded() {
        let dag = Arc::new(sort::mergesort(256, 16));
        let rt = traced_runtime(4);
        run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
        let trace = rt.touch_trace().unwrap();
        let task_events: usize = (0..trace.lanes())
            .map(|lane| {
                trace
                    .events(lane)
                    .iter()
                    .filter(|e| matches!(e, TouchEvent::Task { .. }))
                    .count()
            })
            .sum();
        assert!(task_events > 0, "chains must carry provenance");
    }

    #[test]
    fn rescue_respawns_exactly_the_enabled_unclaimed_nodes() {
        // root → fork → {future, cont} → join (the final node).
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let root = b.root();
        let fork = b.fork(main);
        let cont = b.task(main);
        let join = b.touch_thread(main, fork.future_thread);
        let (fork, future) = (fork.node, fork.future_first);
        let dag = Arc::new(b.finish().expect("valid DAG"));
        assert_eq!(dag.in_degrees()[future.index()], 1);
        assert_eq!(dag.in_degrees()[join.index()], 2);

        let rt = Arc::new(Runtime::new(1));
        let ctx = Ctx::new(&rt, &dag, ForkPolicy::FutureFirst);
        let set = |node: NodeId, state| ctx.state[node.index()].store(state, Ordering::Release);
        let stranded = || -> Vec<NodeId> {
            (0..dag.num_nodes())
                .filter(|&i| ctx.stranded(i))
                .map(NodeId::from_index)
                .collect()
        };

        assert_eq!(stranded(), [root], "an unclaimed root is respawned");

        set(root, DONE);
        set(fork, RUNNING);
        assert_eq!(stranded(), [], "a RUNNING predecessor enables nothing yet");

        set(fork, DONE);
        set(cont, RUNNING);
        assert_eq!(stranded(), [future], "a DONE predecessor enables its child");
        assert_eq!(ctx.rescue(), (1, 0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while ctx.state[future.index()].load(Ordering::Acquire) != DONE {
            assert!(Instant::now() < deadline, "the respawned chain never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ctx.rescue(), (0, 0), "respawned exactly once");

        // A join goes by its count alone, not its predecessors' states:
        // the respawned chain decremented it once, `cont`'s decrement is
        // withheld.
        set(cont, DONE);
        assert_eq!(ctx.remaining[join.index()].load(Ordering::Acquire), 1);
        assert_eq!(stranded(), [], "a join with remaining > 0 waits");
        ctx.remaining[join.index()].store(0, Ordering::Release);
        assert_eq!(stranded(), [join]);
    }

    #[test]
    fn works_without_tracing() {
        let dag = Arc::new(sort::mergesort(64, 8));
        let rt = Arc::new(Runtime::new(2));
        let report = run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
        assert_eq!(report.nodes_executed, dag.num_nodes());
        assert!(rt.touch_trace().is_none());
    }
}
