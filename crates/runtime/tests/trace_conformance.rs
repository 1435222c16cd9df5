//! Conformance wall between the real pool and the simulators: the touch
//! traces `run_dag_on_pool` records must be the simulator's schedules.
//!
//! * At `P = 1` with the `ChildFirst` spawn policy, the single worker's
//!   trace must be **byte-identical** to the sequential executor's order
//!   for every Theorem-12/16 workload family, under both fork policies —
//!   a worker's own-deque LIFO pop is exactly the simulator's
//!   `pop_bottom`.
//! * At `P > 1` the schedule is nondeterministic, but every execution
//!   must satisfy the universal relations (each node exactly once,
//!   touching its declared block) and the theorem bounds on deviations
//!   and extra misses, checked by `wsf_analysis::validate` over repeated
//!   runs.
//! * Under injected worker kills and task panics (`FaultPlan` seeded from
//!   `WSF_FAULT_SEED`, swept by the CI fault matrix), the rescue path
//!   must still produce a bound-conformant trace.

use std::sync::Arc;
use std::time::Duration;
use wsf_analysis::validate::{validate_trace, BoundFamily};
use wsf_core::{ForkPolicy, SequentialExecutor};
use wsf_dag::Dag;
use wsf_runtime::{fault_seed_from_env, FaultPlan, FaultSpec, Runtime, SpawnPolicy, TouchTrace};
use wsf_workloads::dag_exec::run_dag_on_pool;
use wsf_workloads::{backpressure, sort, stencil};

/// Every Theorem-12/16/18 workload family the experiment suites sweep,
/// with the bound family its executed schedules are checked against.
fn families() -> Vec<(&'static str, Arc<Dag>, BoundFamily)> {
    vec![
        (
            "mergesort",
            Arc::new(sort::mergesort(64, 8)),
            BoundFamily::Thm12,
        ),
        (
            "mergesort_streaming",
            Arc::new(sort::mergesort_streaming(64, 8, 16)),
            BoundFamily::Thm12,
        ),
        (
            "stencil",
            Arc::new(stencil::stencil(3, 2, 3)),
            BoundFamily::Thm12,
        ),
        (
            "stencil_exchange/1",
            Arc::new(stencil::stencil_exchange(3, 2, 1)),
            BoundFamily::Thm16,
        ),
        (
            "stencil_exchange/2",
            Arc::new(stencil::stencil_exchange(3, 2, 2)),
            BoundFamily::Thm18,
        ),
        (
            "batched_pipeline",
            Arc::new(backpressure::batched_pipeline(3, 12, 4, 1)),
            BoundFamily::Thm12,
        ),
    ]
}

fn traced_pool(threads: usize) -> Arc<Runtime> {
    Arc::new(
        Runtime::builder()
            .threads(threads)
            .policy(SpawnPolicy::ChildFirst)
            .touch_trace(1 << 16)
            .build(),
    )
}

fn full_trace(trace: &TouchTrace) -> Vec<(u32, Option<u32>)> {
    (0..trace.lanes())
        .flat_map(|lane| trace.node_trace(lane))
        .collect()
}

#[test]
fn p1_traces_are_byte_identical_to_the_sequential_executor() {
    for (family, dag, _) in families() {
        for policy in [ForkPolicy::FutureFirst, ForkPolicy::ParentFirst] {
            let rt = traced_pool(1);
            let report = run_dag_on_pool(&rt, &dag, policy);
            assert_eq!(report.nodes_executed, dag.num_nodes(), "{family}");
            assert_eq!(report.rescued, 0, "{family}: fault-free runs never rescue");

            let trace = rt.touch_trace().expect("tracing enabled");
            assert_eq!(trace.dropped(), 0, "{family}");
            let worker: Vec<(u32, Option<u32>)> = trace.node_trace(0);
            for lane in 1..trace.lanes() {
                assert!(
                    trace.node_trace(lane).is_empty(),
                    "{family}: only the single worker may execute nodes"
                );
            }
            let seq = SequentialExecutor::new(policy).run(&dag);
            let expected: Vec<(u32, Option<u32>)> = seq
                .order()
                .iter()
                .map(|&n| (n.0, dag.block_of(n).map(|b| b.0)))
                .collect();
            assert_eq!(worker, expected, "{family} under {policy:?}");
        }
    }
}

#[test]
fn parallel_traces_satisfy_universal_relations_and_bounds() {
    // The P > 1 schedule depends on OS timing, so each configuration is
    // executed repeatedly; every observed schedule must validate.
    for (family, dag, bound_family) in families() {
        for p in [2usize, 4] {
            for run in 0..3 {
                let rt = traced_pool(p);
                let report = run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
                assert_eq!(report.nodes_executed, dag.num_nodes(), "{family} P={p}");

                let trace = rt.touch_trace().expect("tracing enabled");
                let v = validate_trace(
                    &dag,
                    &trace,
                    ForkPolicy::FutureFirst,
                    16,
                    p as u64,
                    bound_family,
                );
                assert!(v.coverage_ok, "{family} P={p} run {run}: {v:?}");
                assert!(
                    v.deviations <= v.deviation_bound && v.extra_misses <= v.miss_bound,
                    "{family} P={p} run {run}: {v:?}"
                );
                assert!(v.within, "{family} P={p} run {run}: {v:?}");

                // Exactly one node event per node, across all lanes.
                let mut nodes: Vec<u32> = full_trace(&trace).iter().map(|&(n, _)| n).collect();
                nodes.sort_unstable();
                let expected: Vec<u32> = (0..dag.num_nodes() as u32).collect();
                assert_eq!(nodes, expected, "{family} P={p} run {run}");
            }
        }
    }
}

#[test]
fn faulted_executions_still_produce_bound_conformant_traces() {
    // Worker kills and task panics lose chain tasks; the rescue sweep
    // must recover every node exactly once, and the resulting trace must
    // still sit within the theorem bounds (which hold for *any* executed
    // schedule of these shapes: deviations and extra misses are each at
    // most one per node). Mergesort loses fork subtrees; the stencil's
    // row chains and the pipeline's window joins put in-degree-1 nodes and
    // joins in the rescue sweep.
    let seed = fault_seed_from_env().unwrap_or(1);
    let mut dags = vec![(
        "mergesort",
        Arc::new(sort::mergesort(256, 8)),
        BoundFamily::Thm12,
    )];
    dags.extend(
        families()
            .into_iter()
            .filter(|(family, _, _)| ["stencil", "batched_pipeline"].contains(family)),
    );
    assert_eq!(dags.len(), 3);
    for (family, dag, bound_family) in dags {
        // Every fork pushes a chain on any schedule, so a fault-free run
        // dequeues at least `forks + 1` tasks: drawing faults below that
        // makes the first one fire before anything is lost.
        let spec = FaultSpec {
            horizon: 32.min(dag.num_forks() as u64 + 1),
            panics: 2,
            kills: 2,
            stall_period: 5,
            stall: Duration::from_micros(200),
            wakeup_period: 3,
            wakeup_delay: Duration::from_micros(100),
        };
        for round in 0..2 {
            let plan = Arc::new(FaultPlan::seeded(seed.wrapping_add(round), &spec));
            let rt = Arc::new(
                Runtime::builder()
                    .threads(4)
                    .policy(SpawnPolicy::ChildFirst)
                    .touch_trace(1 << 16)
                    .fault_hooks(Arc::clone(&plan) as _)
                    .build(),
            );
            let report = run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
            let at = format!("{family} seed {seed} round {round}");
            assert_eq!(
                report.nodes_executed,
                dag.num_nodes(),
                "{at}: rescue must recover every node"
            );
            assert!(
                plan.fired_kills() + plan.fired_panics() > 0,
                "{at}: the fault plan never fired"
            );

            let trace = rt.touch_trace().expect("tracing enabled");
            let v = validate_trace(&dag, &trace, ForkPolicy::FutureFirst, 16, 4, bound_family);
            assert!(
                dag.num_nodes() as u64 <= v.deviation_bound
                    && dag.num_nodes() as u64 <= v.miss_bound,
                "{at}: shape too large for schedule-independent verdicts: {v:?}"
            );
            assert!(v.coverage_ok, "{at}: {v:?}");
            assert!(v.within, "{at}: {v:?}");
            eprintln!(
                "fault conformance {at}: rescued={} deviations={}/{} \
                 extra={}/{} kills={} panics={}",
                report.rescued,
                v.deviations,
                v.deviation_bound,
                v.extra_misses,
                v.miss_bound,
                plan.fired_kills(),
                plan.fired_panics(),
            );
        }
    }
}
