//! Execution reports produced by the executors.

use wsf_cache::{CacheStats, MissRatioCurve, StackDistanceSim};
use wsf_dag::{Dag, NodeId};

/// Result of a sequential (single-processor) execution.
///
/// The sequential execution defines both the baseline cache-miss count and
/// the node order against which *deviations* of parallel executions are
/// counted. The order's predecessor table is computed once, here, so every
/// parallel run against the same baseline (a served plan's, a sweep's)
/// reads it instead of rebuilding it.
#[derive(Clone, Debug)]
pub struct SeqReport {
    /// The nodes in execution order.
    order: Vec<NodeId>,
    /// `prev[n]`: the node executed immediately before `n` in `order`.
    prev: Vec<Option<NodeId>>,
    /// Whether some block is touched by more than one node.
    reuses_blocks: bool,
    /// Cache statistics of the single processor.
    pub cache: CacheStats,
}

impl SeqReport {
    /// The report of a sequential execution that ran `order` with `cache`
    /// statistics; derives the predecessor table. It knows nothing of the
    /// DAG's blocks, so it says [`SeqReport::reuses_blocks`] is `true`.
    pub fn new(order: Vec<NodeId>, cache: CacheStats) -> Self {
        Self::with_reuse(order, cache, true)
    }

    /// Like [`SeqReport::new`], for a walk that observed whether some
    /// block recurs.
    pub(crate) fn with_reuse(order: Vec<NodeId>, cache: CacheStats, reuses_blocks: bool) -> Self {
        let len = order.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut prev = vec![None; len];
        for pair in order.windows(2) {
            prev[pair[1].index()] = Some(pair[0]);
        }
        SeqReport {
            order,
            prev,
            reuses_blocks,
            cache,
        }
    }

    /// The nodes in execution order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Whether some block of the DAG is touched by more than one node.
    ///
    /// `false` means every block is touched once: each access misses at
    /// every capacity under every schedule, so an execution's misses are
    /// its block-carrying completions and its hits are 0.
    /// [`crate::ParallelSimulator`] then counts instead of caching. Only
    /// [`crate::SequentialExecutor::run`], which visits every node's block,
    /// can report `false`; a report made by [`SeqReport::new`] is
    /// conservative and says `true`.
    pub fn reuses_blocks(&self) -> bool {
        self.reuses_blocks
    }

    /// Number of cache misses of the sequential execution.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }

    /// For every node, the node executed immediately before it in the
    /// sequential order (`None` for the first node). Indexed by
    /// `NodeId::index`.
    pub fn predecessors(&self) -> &[Option<NodeId>] {
        &self.prev
    }
}

/// Per-processor statistics of a parallel execution.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    /// Number of nodes this processor executed.
    pub executed: u64,
    /// Number of successful steals this processor performed.
    pub steals: u64,
    /// Number of failed steal attempts.
    pub failed_steals: u64,
    /// Number of deviations among the nodes this processor executed.
    pub deviations: u64,
    /// Cache statistics of this processor's private cache.
    pub cache: CacheStats,
}

/// The schedule of an execution: one lane per processor, listing the
/// nodes that processor completed, in completion order, each with the
/// step at which it completed.
///
/// The simulator's traced runs record one, stepping by its global clock;
/// `wsf_analysis::validate` builds one from a pool's touch trace, where a
/// node's step is its index in its lane. Every locality count of the
/// paper is a function of a schedule: [`Schedule::deviations`] and
/// [`Schedule::curve`] compute the two.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// One lane per processor: `(node, step)` in completion order.
    pub lanes: Vec<Vec<(NodeId, u64)>>,
}

impl Schedule {
    /// Number of deviations against the sequential order whose
    /// predecessor table is `seq_prev` ([`SeqReport::predecessors`]): a
    /// node deviates unless its lane completed its sequential predecessor
    /// immediately before it. A lane's first node deviates unless it has
    /// no sequential predecessor.
    pub fn deviations(&self, seq_prev: &[Option<NodeId>]) -> u64 {
        let mut deviations = 0;
        for lane in &self.lanes {
            let mut last = None;
            for &(node, _) in lane {
                deviations += u64::from(last != seq_prev.get(node.index()).copied().flatten());
                last = Some(node);
            }
        }
        deviations
    }

    /// The schedule's miss-ratio curve on per-processor private LRU
    /// caches: `curve.misses_at(c)` is the summed miss count of the lanes,
    /// each run through its own cold cache of `c` lines.
    ///
    /// One profiler takes the lanes one after another, flushed before
    /// each, so every lane starts cold while the histogram accumulates:
    /// that is the merge of the per-lane curves (merging is a sum, so lane
    /// order changes no count), with one profiler's working set in cache.
    ///
    /// # Panics
    /// Panics if a node is not in `dag`.
    pub fn curve(&self, dag: &Dag) -> MissRatioCurve {
        let mut sd = StackDistanceSim::with_block_hint(dag.block_space());
        for lane in &self.lanes {
            sd.flush();
            for &(node, _) in lane {
                sd.access_opt(dag.block_of(node).map(|b| b.0));
            }
        }
        sd.curve()
    }
}

/// Result of a simulated parallel execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Per-processor statistics.
    pub per_proc: Vec<ProcStats>,
    /// Number of simulated steps until the last node completed.
    pub makespan: u64,
    /// Whether every node was executed within the step budget. `false`
    /// indicates the schedule (usually a scripted adversary) deadlocked.
    pub completed: bool,
    /// The schedule, present only for traced runs.
    pub trace: Option<Schedule>,
}

impl ExecutionReport {
    /// Total number of nodes executed across all processors.
    pub fn executed(&self) -> u64 {
        self.per_proc.iter().map(|p| p.executed).sum()
    }

    /// Total number of successful steals.
    pub fn steals(&self) -> u64 {
        self.per_proc.iter().map(|p| p.steals).sum()
    }

    /// Total number of deviations (drifted nodes) relative to the
    /// sequential execution with the same fork policy.
    pub fn deviations(&self) -> u64 {
        self.per_proc.iter().map(|p| p.deviations).sum()
    }

    /// Aggregate cache statistics over all processors.
    pub fn cache(&self) -> CacheStats {
        self.per_proc.iter().map(|p| p.cache).sum()
    }

    /// Total number of cache misses over all processors.
    pub fn cache_misses(&self) -> u64 {
        self.cache().misses
    }

    /// Cache misses incurred beyond the sequential execution `seq`
    /// (clamped at zero: a parallel execution can occasionally miss less,
    /// e.g. when a stolen subcomputation fits its thief's cache).
    pub fn additional_misses(&self, seq: &SeqReport) -> u64 {
        self.cache_misses().saturating_sub(seq.cache_misses())
    }

    /// Signed difference in cache misses against the sequential execution.
    pub fn miss_delta(&self, seq: &SeqReport) -> i64 {
        self.cache_misses() as i64 - seq.cache_misses() as i64
    }

    /// Number of processors that executed at least one node.
    pub fn busy_processors(&self) -> usize {
        self.per_proc.iter().filter(|p| p.executed > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(order: &[u32]) -> SeqReport {
        SeqReport::new(
            order.iter().map(|&i| NodeId(i)).collect(),
            CacheStats {
                hits: 0,
                misses: 3,
                silent: 0,
            },
        )
    }

    #[test]
    fn predecessors_follow_order() {
        let s = seq(&[0, 2, 1, 3]);
        let prev = s.predecessors();
        assert_eq!(prev[0], None);
        assert_eq!(prev[2], Some(NodeId(0)));
        assert_eq!(prev[1], Some(NodeId(2)));
        assert_eq!(prev[3], Some(NodeId(1)));
        assert_eq!(s.cache_misses(), 3);
    }

    #[test]
    fn report_aggregates_processors() {
        let report = ExecutionReport {
            per_proc: vec![
                ProcStats {
                    executed: 5,
                    steals: 1,
                    failed_steals: 2,
                    deviations: 2,
                    cache: CacheStats {
                        hits: 1,
                        misses: 4,
                        silent: 0,
                    },
                },
                ProcStats {
                    executed: 3,
                    steals: 0,
                    failed_steals: 0,
                    deviations: 1,
                    cache: CacheStats {
                        hits: 2,
                        misses: 1,
                        silent: 0,
                    },
                },
                ProcStats::default(),
            ],
            makespan: 9,
            completed: true,
            trace: None,
        };
        assert_eq!(report.executed(), 8);
        assert_eq!(report.steals(), 1);
        assert_eq!(report.deviations(), 3);
        assert_eq!(report.cache_misses(), 5);
        assert_eq!(report.busy_processors(), 2);

        let s = seq(&[0, 1, 2]);
        assert_eq!(report.additional_misses(&s), 2);
        assert_eq!(report.miss_delta(&s), 2);

        let expensive_seq = SeqReport::new(
            vec![],
            CacheStats {
                hits: 0,
                misses: 100,
                silent: 0,
            },
        );
        assert_eq!(report.additional_misses(&expensive_seq), 0);
        assert_eq!(report.miss_delta(&expensive_seq), -95);
    }

    #[test]
    fn schedule_counts_deviations_per_lane() {
        // Sequential order 0 1 2 3; processor 0 runs 0 1, processor 1
        // runs 3 2. Node 0 has no predecessor and 1 follows 0 on its lane;
        // 3 starts a lane although 2 precedes it, and 2 follows 3, not 1.
        let s = seq(&[0, 1, 2, 3]);
        let schedule = Schedule {
            lanes: vec![
                vec![(NodeId(0), 0), (NodeId(1), 1)],
                vec![(NodeId(3), 1), (NodeId(2), 2)],
            ],
        };
        assert_eq!(schedule.deviations(s.predecessors()), 2);
        assert_eq!(Schedule::default().deviations(s.predecessors()), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `Schedule::curve` against its oracle: one private `CacheSim`
        /// per lane, driven by hand, statistics summed over the lanes. The
        /// nodes form one chain whose blocks are random (`None` is a node
        /// that touches no memory); the lanes pick nodes at random, with
        /// repeats, since the curve reads nothing but a node's block.
        #[test]
        fn schedule_curve_is_per_lane_private_caches(
            (blocks, raw_lanes) in (
                proptest::collection::vec((0u8..10, 0u32..200), 1..150),
                proptest::collection::vec(proptest::collection::vec(0usize..1000, 0..120), 1..6),
            )
        ) {
            let mut b = wsf_dag::DagBuilder::new();
            let main = b.main_thread();
            for (tag, block) in blocks {
                let node = b.task(main);
                if tag < 9 {
                    b.set_block(node, wsf_dag::Block(block));
                }
            }
            let dag = b.finish().unwrap();
            let schedule = Schedule {
                lanes: raw_lanes
                    .into_iter()
                    .map(|lane| {
                        lane.into_iter()
                            .zip(0..)
                            .map(|(n, step)| (NodeId((n % dag.num_nodes()) as u32), step))
                            .collect()
                    })
                    .collect(),
            };
            let curve = schedule.curve(&dag);
            for capacity in [1, 2, 15, 16, 17, 64, 256] {
                let direct: CacheStats = schedule
                    .lanes
                    .iter()
                    .map(|lane| {
                        let mut sim = wsf_cache::CacheSim::with_block_hint(capacity, dag.block_space());
                        for &(node, _) in lane {
                            sim.access_opt(dag.block_of(node).map(|b| b.0));
                        }
                        sim.stats()
                    })
                    .sum();
                assert_eq!(curve.stats_at(capacity), direct, "C = {capacity}");
            }
        }
    }

    #[test]
    fn empty_order_has_no_predecessors() {
        let s = SeqReport::new(vec![], CacheStats::default());
        assert!(s.predecessors().is_empty());
        assert!(
            s.reuses_blocks(),
            "a report built from an order is conservative"
        );
    }
}
