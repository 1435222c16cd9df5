//! Validates executed schedules against the paper's locality bounds.
//!
//! The simulator proves Theorem-12/16/18 verdicts over *simulated*
//! schedules; this module produces the same verdicts over schedules the
//! real pool actually executed. Given a [`TouchTrace`] recorded by
//! `wsf_runtime`, it
//!
//! 1. checks **coverage** — every DAG node executed exactly once, each
//!    touching exactly the block the DAG declares — and reads the trace as
//!    a [`Schedule`]: one lane per trace lane, each node's step its index
//!    in the lane, since the pool keeps no global clock;
//! 2. counts **deviations** with [`Schedule::deviations`], the parallel
//!    executor's rule: walking a lane, a node whose sequential predecessor
//!    is not the node the lane just executed is a deviation (the lane's
//!    first node deviates unless its sequential predecessor is `None`);
//! 3. reads the misses on per-worker private LRU caches of `C` lines off
//!    [`Schedule::curve`] at `C` — exact by LRU inclusion
//!    (`docs/DESIGN.md` §4) — and counts **extra misses** over the
//!    sequential baseline, saturating at zero;
//! 4. compares both counts against the requested theorem's bounds —
//!    `O(P·T∞²)` deviations and `O(C·P·T∞²)` extra misses (with the
//!    Theorem-16/18 constants for super-final DAGs).
//!
//! At `P = 1` it additionally checks the strongest property the chain
//! interpreter guarantees: the single worker's trace is **byte-identical**
//! to the sequential executor's order.

use wsf_core::{bounds, ForkPolicy, Schedule, SequentialExecutor};
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

/// The schedule a pool run executed, read off its trace: one lane per
/// trace lane, each node's step its index in the lane. Also says whether
/// the trace covers `dag`: every node exactly once, touching its declared
/// block. A node id outside `dag` fails coverage and is left out of the
/// schedule.
fn schedule_of(dag: &Dag, trace: &TouchTrace) -> (Schedule, bool) {
    let mut schedule = Schedule::default();
    let mut seen = vec![0u32; dag.num_nodes()];
    let mut blocks_ok = true;
    for lane in 0..trace.lanes() {
        let mut nodes = Vec::new();
        for (step, (node, block)) in (0..).zip(trace.node_trace(lane)) {
            let Some(count) = seen.get_mut(node as usize) else {
                blocks_ok = false;
                continue;
            };
            *count += 1;
            let node = NodeId(node);
            if dag.block_of(node).map(|b| b.0) != block {
                blocks_ok = false;
            }
            nodes.push((node, step));
        }
        schedule.lanes.push(nodes);
    }
    (schedule, blocks_ok && seen.iter().all(|&c| c == 1))
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
    let (schedule, coverage_ok) = schedule_of(dag, trace);
    let deviations = schedule.deviations(seq.predecessors());
    let seq_misses = seq.cache.misses;
    let runtime_misses = schedule.curve(dag).misses_at(cache_lines);
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
    fn one_schedule_accounting_for_simulated_and_pool_schedules() {
        // Simulated schedules: on the DAGs, P and schedulers of
        // `capacity_sweep_matches_per_capacity_simulation`, under both fork
        // policies, the recorded schedule's recount equals the simulator's
        // inline deviation count, and its curve at C equals an untraced run
        // at C that simulates its caches.
        use crate::policy::PolicySpec;
        use wsf_cache::CacheSim;
        use wsf_core::{ParallelSimulator, SeqReport, SimConfig};
        let capacities = [1usize, 8, 16, 64];
        for dag in [
            sort::mergesort(64, 8),
            stencil::stencil_exchange(4, 8, 1),
            stencil::stencil_exchange(4, 8, 3),
        ] {
            for fork_policy in ForkPolicy::ALL {
                let base = SimConfig {
                    fork_policy,
                    ..SimConfig::default()
                };
                let seq = ParallelSimulator::new(base).sequential(&dag);
                // Built from the order, so the untraced runs run their
                // caches even on a touch-once DAG.
                let seq = SeqReport::new(seq.order().to_vec(), seq.cache);
                for processors in [2usize, 4] {
                    for scheduler in [PolicySpec::ws_random(), PolicySpec::parsimonious()] {
                        let cfg = SimConfig { processors, ..base };
                        let traced = ParallelSimulator::new(cfg).run_against(
                            &dag,
                            &seq,
                            &mut scheduler.instantiate(cfg.seed),
                            true,
                        );
                        let at = format!("{fork_policy}, P={processors}, {scheduler}");
                        let schedule = traced.trace.as_ref().expect("traced run");
                        assert_eq!(
                            schedule.deviations(seq.predecessors()),
                            traced.deviations(),
                            "{at}"
                        );
                        let curve = schedule.curve(&dag);
                        for cache_lines in capacities {
                            let cfg = SimConfig { cache_lines, ..cfg };
                            let untraced = ParallelSimulator::new(cfg).run_against(
                                &dag,
                                &seq,
                                &mut scheduler.instantiate(cfg.seed),
                                false,
                            );
                            assert_eq!(
                                curve.misses_at(cache_lines),
                                untraced.cache_misses(),
                                "{at}, C={cache_lines}"
                            );
                        }
                    }
                }
            }
        }

        // A pool schedule: the one `validate_trace` reads off the trace,
        // run through one hand-driven private cache per lane, gives its
        // `runtime_misses`.
        let dag = Arc::new(sort::mergesort(64, 8));
        let trace = run_traced(&dag, 2);
        let (schedule, coverage_ok) = schedule_of(&dag, &trace);
        assert!(coverage_ok);
        for cache_lines in capacities {
            let replayed: u64 = schedule
                .lanes
                .iter()
                .map(|lane| {
                    let mut cache = CacheSim::with_block_hint(cache_lines, dag.block_space());
                    for &(node, _) in lane {
                        cache.access_opt(dag.block_of(node).map(|b| b.0));
                    }
                    cache.stats().misses
                })
                .sum();
            let v = validate_trace(
                &dag,
                &trace,
                ForkPolicy::FutureFirst,
                cache_lines,
                2,
                BoundFamily::Thm12,
            );
            assert_eq!(v.runtime_misses, replayed, "C={cache_lines}");
        }
    }

    #[test]
    fn tampered_traces_fail_coverage() {
        let dag = Arc::new(sort::mergesort(64, 8));
        let order = SequentialExecutor::new(ForkPolicy::FutureFirst)
            .run(&dag)
            .order()
            .to_vec();
        // A trace missing nodes, and the sequential order plus an id past
        // the DAG's nodes.
        let past_the_end = NodeId(dag.num_nodes() as u32);
        for nodes in [vec![NodeId(0)], [&order[..], &[past_the_end]].concat()] {
            let trace = TouchTrace::new(1, nodes.len());
            for node in nodes {
                let block = (node != past_the_end).then(|| dag.block_of(node)).flatten();
                trace.record(
                    0,
                    wsf_runtime::TouchEvent::Node {
                        node: node.0,
                        block: block.map(|b| b.0),
                    },
                );
            }
            let v = validate_trace(
                &dag,
                &trace,
                ForkPolicy::FutureFirst,
                16,
                1,
                BoundFamily::Thm12,
            );
            assert!(!v.coverage_ok, "a tampered trace must fail coverage");
            assert!(!v.within);
        }
    }
}
