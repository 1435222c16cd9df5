//! The sequential (single-processor) execution.
//!
//! The baseline against which both cache misses and deviations are counted
//! is the execution of the DAG by a *single* processor running the same
//! parsimonious work-stealing scheduler (and the same fork policy): at a
//! fork it executes one child and pushes the other onto its deque, and when
//! it runs out of ready successors it pops the bottom of its deque.

use crate::policy::ForkPolicy;
use crate::ready::{next_and_push, ReadyTracker};
use crate::report::SeqReport;
use wsf_cache::{CacheSim, MAX_BLOCK_SPACE};
use wsf_dag::{Dag, NodeId};
use wsf_deque::SimDeque;

/// Executes a computation DAG on one simulated processor.
#[derive(Copy, Clone, Debug)]
pub struct SequentialExecutor {
    fork_policy: ForkPolicy,
    cache_lines: usize,
}

impl SequentialExecutor {
    /// Creates an executor with the given fork policy, an LRU cache and the
    /// default number of cache lines (8).
    pub fn new(fork_policy: ForkPolicy) -> Self {
        SequentialExecutor {
            fork_policy,
            cache_lines: 8,
        }
    }

    /// Sets the number of cache lines `C`.
    pub fn with_cache_lines(mut self, lines: usize) -> Self {
        self.cache_lines = lines;
        self
    }

    /// The fork policy used at forks.
    pub fn fork_policy(&self) -> ForkPolicy {
        self.fork_policy
    }

    /// Runs the sequential execution and returns its node order, its cache
    /// statistics and whether some block is touched twice
    /// ([`SeqReport::reuses_blocks`]).
    ///
    /// # Panics
    /// Panics if the execution does not visit every node, which indicates a
    /// malformed DAG (builder-produced DAGs always complete).
    pub fn run(&self, dag: &Dag) -> SeqReport {
        let mut tracker = ReadyTracker::new(dag);
        let mut deque: SimDeque<NodeId> = SimDeque::new();
        // Workload blocks are allocated densely from 0, so the DAG's block
        // space selects the direct-mapped cache index at large capacities.
        let mut cache = CacheSim::with_block_hint(self.cache_lines, dag.block_space());
        let mut order = Vec::with_capacity(dag.num_nodes());

        let mut current = Some(dag.root());
        while let Some(node) = current {
            let record = dag.record(node);
            cache.access_opt(record.block().map(|b| b.0));
            order.push(node);

            let enabled = tracker.retire(node, record);
            let (next, push) = next_and_push(record, enabled, self.fork_policy);
            if let Some(push) = push {
                deque.push_bottom(push);
            }
            current = next.or_else(|| deque.pop_bottom());
        }

        assert_eq!(
            tracker.executed_count(),
            dag.num_nodes(),
            "sequential execution did not reach every node"
        );
        // A hit is a second touch of its block. Only a walk without one
        // has to look for a repeat the cache evicted before it recurred.
        let stats = cache.stats();
        let reuses_blocks = stats.hits > 0 || some_block_repeats(dag);
        SeqReport::with_reuse(order, stats, reuses_blocks)
    }
}

/// Whether two nodes of `dag` touch the same block: one bit per block, set
/// at the block's first touch. A block space past the caches' limit is not
/// scanned and counts as reused.
fn some_block_repeats(dag: &Dag) -> bool {
    if dag.block_space() > MAX_BLOCK_SPACE {
        return true;
    }
    let mut touched = vec![0u64; dag.block_space().div_ceil(64)];
    let mut repeats = 0u64;
    for node in dag.node_ids() {
        if let Some(b) = dag.block_of(node) {
            let (word, bit) = (&mut touched[b.0 as usize / 64], 1u64 << (b.0 % 64));
            repeats |= *word & bit;
            *word |= bit;
        }
    }
    repeats != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_dag::{Block, DagBuilder};

    /// The paper's Figure 4-style DAG: two nested futures, each touched by
    /// the main thread after the corresponding fork's right child.
    fn nested_two_futures() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f1 = b.fork(main);
        b.chain(f1.future_thread, 2);
        let f2 = b.fork(main);
        b.chain(f2.future_thread, 2);
        b.task(main);
        b.touch_thread(main, f2.future_thread);
        b.touch_thread(main, f1.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    #[test]
    fn visits_every_node_exactly_once() {
        let dag = nested_two_futures();
        for policy in ForkPolicy::ALL {
            let report = SequentialExecutor::new(policy).run(&dag);
            assert_eq!(report.order().len(), dag.num_nodes());
            let mut sorted: Vec<_> = report.order().iter().map(|n| n.index()).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), dag.num_nodes());
            // Execution order must respect dependencies.
            let mut pos = vec![usize::MAX; dag.num_nodes()];
            for (i, n) in report.order().iter().enumerate() {
                pos[n.index()] = i;
            }
            for id in dag.node_ids() {
                for e in dag.node(id).out_edges() {
                    assert!(pos[id.index()] < pos[e.node.index()]);
                }
            }
        }
    }

    #[test]
    fn future_first_dives_into_the_future_thread() {
        let dag = nested_two_futures();
        let report = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
        let fork = dag.forks().next().unwrap();
        let left = dag.left_child(fork).unwrap();
        let right = dag.right_child(fork).unwrap();
        let pos = |n: NodeId| report.order().iter().position(|&x| x == n).unwrap();
        assert!(
            pos(left) < pos(right),
            "future thread runs before the parent continuation"
        );
    }

    #[test]
    fn parent_first_defers_the_future_thread() {
        let dag = nested_two_futures();
        let report = SequentialExecutor::new(ForkPolicy::ParentFirst).run(&dag);
        let fork = dag.forks().next().unwrap();
        let left = dag.left_child(fork).unwrap();
        let right = dag.right_child(fork).unwrap();
        let pos = |n: NodeId| report.order().iter().position(|&x| x == n).unwrap();
        assert!(
            pos(right) < pos(left),
            "parent continuation runs before the future thread"
        );
    }

    #[test]
    fn lemma4_future_parent_before_local_parent() {
        // Lemma 4: under future-first, every touch's future parent executes
        // before its local parent, and the fork's right child immediately
        // follows the future thread's last node.
        let dag = nested_two_futures();
        let report = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
        let pos = |n: NodeId| report.order().iter().position(|&x| x == n).unwrap();
        for touch in dag.touches() {
            let fp = dag.future_parent(touch).unwrap();
            let lp = dag.local_parent(touch).unwrap();
            assert!(pos(fp) < pos(lp), "future parent executes first");
            let fork = dag.corresponding_fork(touch).unwrap();
            let right = dag.right_child(fork).unwrap();
            let last_of_future = dag
                .thread(dag.future_thread_of_touch(touch).unwrap())
                .last();
            assert_eq!(
                pos(right),
                pos(last_of_future) + 1,
                "right child immediately follows the future thread"
            );
        }
    }

    #[test]
    fn cache_counts_reflect_blocks() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        // Access blocks 0,1,0,1 with a 2-line cache: 2 misses, 2 hits.
        for blk in [0u32, 1, 0, 1] {
            b.task_block(main, Block(blk));
        }
        let dag = b.finish().unwrap();
        let report = SequentialExecutor::new(ForkPolicy::FutureFirst)
            .with_cache_lines(2)
            .run(&dag);
        assert_eq!(report.cache.misses, 2);
        assert_eq!(report.cache.hits, 2);
        assert!(report.reuses_blocks());
        // The root and final nodes have no block: counted as silent.
        assert_eq!(report.cache.silent as usize, dag.num_nodes() - 4);
    }

    #[test]
    fn a_walk_records_whether_a_block_recurs() {
        let run = |blocks: &[u32]| {
            let mut b = DagBuilder::new();
            let main = b.main_thread();
            for &blk in blocks {
                b.task_block(main, Block(blk));
            }
            let dag = b.finish().unwrap();
            SequentialExecutor::new(ForkPolicy::FutureFirst)
                .run(&dag)
                .reuses_blocks()
        };
        assert!(!run(&[]), "no block at all");
        assert!(!run(&[3, 0, 64, 1, 200]));
        assert!(run(&[3, 0, 64, 3]));
        assert!(run(&[130, 130]));
        let evicted: Vec<u32> = (0..=8).chain([0]).collect();
        assert!(run(&evicted), "a repeat the 8-line cache evicted first");
        assert!(!run(&[(MAX_BLOCK_SPACE - 1) as u32]));
        assert!(
            run(&[MAX_BLOCK_SPACE as u32]),
            "a block space past the caches' limit is not tracked"
        );
    }

    #[test]
    fn builder_accessors() {
        let e = SequentialExecutor::new(ForkPolicy::ParentFirst).with_cache_lines(32);
        assert_eq!(e.fork_policy(), ForkPolicy::ParentFirst);
    }
}
