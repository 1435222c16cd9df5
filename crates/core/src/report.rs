//! Execution reports produced by the executors.

use wsf_cache::CacheStats;
use wsf_dag::NodeId;

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

/// A single completion event of a traced execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time step at which the node completed.
    pub step: u64,
    /// The processor that executed the node.
    pub proc: usize,
    /// The node.
    pub node: NodeId,
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
    /// Completion trace, present only for traced runs.
    pub trace: Option<Vec<TraceEvent>>,
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
    fn empty_order_has_no_predecessors() {
        let s = SeqReport::new(vec![], CacheStats::default());
        assert!(s.predecessors().is_empty());
        assert!(
            s.reuses_blocks(),
            "a report built from an order is conservative"
        );
    }
}
