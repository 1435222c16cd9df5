//! Validates executed schedules against the paper's locality bounds.
//!
//! The simulator proves Theorem-12/16/18 verdicts over *simulated*
//! schedules; this module produces the same verdicts over schedules the
//! real pool actually executed. Given a [`TouchTrace`] recorded by
//! `wsf_runtime`, it
//!
//! 1. checks **coverage** — every DAG node executed exactly once, each
//!    touching exactly the block the DAG declares;
//! 2. counts **deviations** with the parallel executor's rule: walking a
//!    lane's node sequence, a node whose sequential predecessor is not the
//!    node the lane just executed is a deviation (the lane's first node
//!    deviates unless its sequential predecessor is `None`);
//! 3. replays each lane through a private [`CacheSim`](wsf_cache::CacheSim)
//!    of `C` lines (via [`wsf_cache::replay()`]) and counts **extra misses**
//!    over the sequential baseline, saturating at zero;
//! 4. compares both counts against the requested theorem's bounds —
//!    `O(P·T∞²)` deviations and `O(C·P·T∞²)` extra misses (with the
//!    Theorem-16/18 constants for super-final DAGs).
//!
//! At `P = 1` it additionally checks the strongest property the chain
//! interpreter guarantees: the single worker's trace is **byte-identical**
//! to the sequential executor's order.

use wsf_cache::replay::{ops_from_blocks, replay, ReplayOp};
use wsf_cache::MissRatioCurve;
use wsf_core::{bounds, ForkPolicy, SequentialExecutor};
use wsf_dag::{span, Dag, NodeId};
use wsf_runtime::TouchTrace;

/// Which theorem's bounds an executed schedule is checked against.
///
/// Theorem 12 covers structured single-touch DAGs; Theorems 16 and 18
/// extend it to computations with a super final node (one-round and
/// multi-round exchanges respectively), with larger constants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BoundFamily {
    /// Theorem 12: structured single-touch computations.
    Thm12,
    /// Theorem 16: one exchange round through a super final node.
    Thm16,
    /// Theorem 18: multi-round exchanges through a super final node.
    Thm18,
}

impl BoundFamily {
    /// The deviation bound for `processors` workers and span `span`.
    pub fn deviation_bound(self, processors: u64, span: u64) -> u64 {
        match self {
            BoundFamily::Thm12 => bounds::thm12_deviations(processors, span),
            BoundFamily::Thm16 => bounds::thm16_deviations(processors, span),
            BoundFamily::Thm18 => bounds::thm18_deviations(processors, span),
        }
    }

    /// The additional-miss bound for cache size `cache_lines`,
    /// `processors` workers and span `span`.
    pub fn miss_bound(self, cache_lines: u64, processors: u64, span: u64) -> u64 {
        match self {
            BoundFamily::Thm12 => bounds::thm12_additional_misses(cache_lines, processors, span),
            BoundFamily::Thm16 => bounds::thm16_additional_misses(cache_lines, processors, span),
            BoundFamily::Thm18 => bounds::thm18_additional_misses(cache_lines, processors, span),
        }
    }

    /// Short label for tables (`"thm12"` etc.).
    pub fn label(self) -> &'static str {
        match self {
            BoundFamily::Thm12 => "thm12",
            BoundFamily::Thm16 => "thm16",
            BoundFamily::Thm18 => "thm18",
        }
    }
}

/// The verdict of validating one executed schedule (see [`validate_trace`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceValidation {
    /// Nodes in the DAG.
    pub nodes: usize,
    /// Workers the bound is computed for.
    pub processors: u64,
    /// The DAG's span `T∞`.
    pub span: u64,
    /// Every node executed exactly once, touching its declared block.
    pub coverage_ok: bool,
    /// Deviations of the executed schedule from the sequential order.
    pub deviations: u64,
    /// The theorem's deviation bound.
    pub deviation_bound: u64,
    /// Misses of the sequential baseline at the same cache size.
    pub seq_misses: u64,
    /// Total misses of the executed schedule on per-worker private caches.
    pub runtime_misses: u64,
    /// `runtime_misses - seq_misses`, saturating at zero.
    pub extra_misses: u64,
    /// The theorem's additional-miss bound.
    pub miss_bound: u64,
    /// At `P = 1`: whether the worker's trace is byte-identical to the
    /// sequential order. `None` when `processors > 1`.
    pub p1_exact: Option<bool>,
    /// Overall verdict: coverage holds, both counts are within their
    /// bounds, and (at `P = 1`) the trace is exact.
    pub within: bool,
}

/// Converts a recorded trace into per-lane replay ops.
fn lane_ops(trace: &TouchTrace) -> Vec<Vec<ReplayOp>> {
    (0..trace.lanes())
        .map(|lane| ops_from_blocks(trace.node_trace(lane).into_iter().map(|(_, b)| b)))
        .collect()
}

/// Validates the executed schedule recorded in `trace` against `family`'s
/// bounds for an execution of `dag` on `processors` workers with
/// per-worker private LRU caches of `cache_lines` lines. The sequential
/// baseline is computed with `policy`, matching the fork policy the pool
/// execution used.
pub fn validate_trace(
    dag: &Dag,
    trace: &TouchTrace,
    policy: ForkPolicy,
    cache_lines: usize,
    processors: u64,
    family: BoundFamily,
) -> TraceValidation {
    assert_eq!(
        trace.dropped(),
        0,
        "trace under-recorded; raise its capacity"
    );
    let seq = SequentialExecutor::new(policy)
        .with_cache_lines(cache_lines)
        .run(dag);
    let seq_prev = seq.predecessors();

    // Coverage: every node exactly once, touching its declared block.
    let mut seen = vec![0u32; dag.num_nodes()];
    let mut blocks_ok = true;
    for lane in 0..trace.lanes() {
        for (node, block) in trace.node_trace(lane) {
            match seen.get_mut(node as usize) {
                Some(count) => *count += 1,
                None => blocks_ok = false,
            }
            if dag.block_of(NodeId(node)).map(|b| b.0) != block {
                blocks_ok = false;
            }
        }
    }
    let coverage_ok = blocks_ok && seen.iter().all(|&c| c == 1);

    // Deviations, by the parallel executor's rule, per lane.
    let mut deviations = 0u64;
    for lane in 0..trace.lanes() {
        let mut last: Option<NodeId> = None;
        for (node, _) in trace.node_trace(lane) {
            let node = NodeId(node);
            let expected = seq_prev.get(node.index()).copied().flatten();
            if last != expected {
                deviations += 1;
            }
            last = Some(node);
        }
    }

    // Misses on per-worker private caches, by exact replay.
    let summary = replay(&lane_ops(trace), cache_lines, dag.block_space());
    let seq_misses = seq.cache.misses;
    let runtime_misses = summary.total.misses;
    let extra_misses = runtime_misses.saturating_sub(seq_misses);

    let span = span(dag);
    let deviation_bound = family.deviation_bound(processors, span);
    let miss_bound = family.miss_bound(cache_lines as u64, processors, span);

    let p1_exact = (processors == 1).then(|| {
        let worker_order: Vec<NodeId> = trace
            .node_trace(0)
            .iter()
            .map(|&(n, _)| NodeId(n))
            .collect();
        let external_empty = (1..trace.lanes()).all(|lane| trace.node_trace(lane).is_empty());
        worker_order == seq.order() && external_empty
    });

    let within = coverage_ok
        && deviations <= deviation_bound
        && extra_misses <= miss_bound
        && p1_exact.unwrap_or(true);

    TraceValidation {
        nodes: dag.num_nodes(),
        processors,
        span,
        coverage_ok,
        deviations,
        deviation_bound,
        seq_misses,
        runtime_misses,
        extra_misses,
        miss_bound,
        p1_exact,
        within,
    }
}

/// The full per-capacity miss-ratio curve of the executed schedule on
/// per-worker private LRU caches — one Mattson pass per lane, merged.
pub fn trace_curve(dag: &Dag, trace: &TouchTrace) -> MissRatioCurve {
    wsf_cache::replay_curves(&lane_ops(trace), dag.block_space())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsf_runtime::{Runtime, SpawnPolicy};
    use wsf_workloads::dag_exec::run_dag_on_pool;
    use wsf_workloads::{sort, stencil};

    fn run_traced(dag: &Arc<Dag>, threads: usize) -> Arc<TouchTrace> {
        let rt = Arc::new(
            Runtime::builder()
                .threads(threads)
                .policy(SpawnPolicy::ChildFirst)
                .touch_trace(1 << 16)
                .build(),
        );
        run_dag_on_pool(&rt, dag, ForkPolicy::FutureFirst);
        rt.touch_trace().expect("tracing enabled")
    }

    #[test]
    fn p1_executions_validate_exactly() {
        let dag = Arc::new(sort::mergesort(64, 8));
        let trace = run_traced(&dag, 1);
        let v = validate_trace(
            &dag,
            &trace,
            ForkPolicy::FutureFirst,
            16,
            1,
            BoundFamily::Thm12,
        );
        assert!(v.coverage_ok, "{v:?}");
        assert_eq!(v.p1_exact, Some(true), "{v:?}");
        assert_eq!(v.deviations, 0, "an exact trace cannot deviate");
        assert_eq!(v.extra_misses, 0, "an exact trace repeats the baseline");
        assert!(v.within, "{v:?}");
    }

    #[test]
    fn p2_executions_stay_within_thm12_bounds() {
        let dag = Arc::new(sort::mergesort(128, 16));
        let trace = run_traced(&dag, 2);
        let v = validate_trace(
            &dag,
            &trace,
            ForkPolicy::FutureFirst,
            16,
            2,
            BoundFamily::Thm12,
        );
        assert!(v.coverage_ok, "{v:?}");
        assert_eq!(v.p1_exact, None);
        assert!(v.within, "{v:?}");
    }

    #[test]
    fn super_final_family_uses_thm16() {
        let dag = Arc::new(stencil::stencil_exchange(3, 2, 1));
        let trace = run_traced(&dag, 2);
        let v = validate_trace(
            &dag,
            &trace,
            ForkPolicy::FutureFirst,
            16,
            2,
            BoundFamily::Thm16,
        );
        assert!(v.coverage_ok && v.within, "{v:?}");
    }

    #[test]
    fn trace_curve_agrees_with_fixed_capacity_validation() {
        let dag = Arc::new(sort::mergesort(64, 8));
        let trace = run_traced(&dag, 2);
        let curve = trace_curve(&dag, &trace);
        let v = validate_trace(
            &dag,
            &trace,
            ForkPolicy::FutureFirst,
            16,
            2,
            BoundFamily::Thm12,
        );
        assert_eq!(curve.stats_at(16).misses, v.runtime_misses);
    }

    #[test]
    fn tampered_traces_fail_coverage() {
        let dag = Arc::new(sort::mergesort(64, 8));
        let trace = TouchTrace::new(1, 16);
        trace.record(
            0,
            wsf_runtime::TouchEvent::Node {
                node: 0,
                block: dag.block_of(NodeId(0)).map(|b| b.0),
            },
        );
        let v = validate_trace(
            &dag,
            &trace,
            ForkPolicy::FutureFirst,
            16,
            1,
            BoundFamily::Thm12,
        );
        assert!(!v.coverage_ok, "missing nodes must be caught");
        assert!(!v.within);
    }
}
