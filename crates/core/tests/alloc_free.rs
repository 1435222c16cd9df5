//! Proves the simulator hot path is allocation-free in steady state.
//!
//! A counting global allocator tracks this thread's allocations. After a
//! warm-up run that grows every [`SimScratch`] buffer to capacity, a full
//! `run_with_scratch` must perform only the O(1) allocations of the
//! returned report — a count that is tiny and, crucially, *independent of
//! the DAG size and step count*, which is only possible if zero
//! allocations happen per step.

use wsf_core::{ParallelSimulator, RandomScheduler, SimConfig, SimScratch};
use wsf_workloads::random::{random_single_touch, RandomConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::thread_allocs as allocs;

/// Runs the simulator once with `scratch` and returns how many allocations
/// the run performed on this thread.
fn measured_run(
    sim: &ParallelSimulator,
    dag: &wsf_dag::Dag,
    seq: &wsf_core::SeqReport,
    scratch: &mut SimScratch,
) -> u64 {
    let mut sched = RandomScheduler::new(sim.config().seed);
    let before = allocs();
    let report = sim.run_with_scratch(dag, seq, &mut sched, false, scratch);
    let count = allocs() - before;
    assert!(report.completed);
    count
}

#[test]
fn steady_state_runs_do_not_allocate_per_step() {
    let config = SimConfig {
        processors: 8,
        cache_lines: 16,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);

    // Largest DAG first, so its warm-up grows every buffer to the maximum
    // capacity any later run needs.
    let large = random_single_touch(&RandomConfig {
        target_nodes: 30_000,
        seed: 5,
        ..RandomConfig::default()
    });
    let small = random_single_touch(&RandomConfig {
        target_nodes: 5_000,
        seed: 6,
        ..RandomConfig::default()
    });
    let seq_large = sim.sequential(&large);
    let seq_small = sim.sequential(&small);

    let mut scratch = SimScratch::new();
    let _warm = measured_run(&sim, &large, &seq_large, &mut scratch);

    let steady_large = measured_run(&sim, &large, &seq_large, &mut scratch);
    let steady_small = measured_run(&sim, &small, &seq_small, &mut scratch);
    let steady_large_again = measured_run(&sim, &large, &seq_large, &mut scratch);

    // The only remaining allocations are the O(1) construction of the
    // returned report (its per-processor stats vector).
    assert!(
        steady_large <= 4,
        "steady-state run allocated {steady_large} times; the hot loop must not allocate"
    );
    assert_eq!(
        steady_large, steady_large_again,
        "steady-state allocation count must be stable"
    );
    assert_eq!(
        steady_large, steady_small,
        "allocation count must be independent of DAG size ({steady_large} vs {steady_small} \
         for 30k- vs 5k-node DAGs) — anything else means per-step or per-node allocation"
    );
}

#[test]
fn served_machine_stays_allocation_free_across_growing_block_spaces() {
    // The served tenants' machine: P = 4, C = 64 — above the scan
    // crossover, so every cache is a direct-mapped arena that the scratch
    // re-hints with each DAG's block space — stealing half. Small → large
    // → small through one scratch: once the first pass has grown every
    // buffer, switching DAGs (a re-hint each way) allocates nothing beyond
    // the report.
    use wsf_core::{ForkPolicy, PolicyConfig, PolicyScheduler};
    use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

    let sim = ParallelSimulator::new(SimConfig::new(4, 64, ForkPolicy::FutureFirst));
    let build = |spec: ShapeSpec| {
        spec.build_into(&mut wsf_dag::DagBuilder::new(), &mut ShapeScratch::new())
    };
    let small = build(ShapeSpec::Stencil {
        rows: 16,
        width: 64,
        steps: 8,
    });
    let large = build(ShapeSpec::Pipeline {
        stages: 8,
        items: 256,
        window: 8,
        work: 4,
    });
    assert!(
        large.block_space() > 4_096 && small.block_space() < 2_048,
        "the large space must exceed the small one's initial growth limit"
    );
    let (seq_small, seq_large) = (sim.sequential(&small), sim.sequential(&large));
    let mut scratch = SimScratch::new();

    let mut pass = || -> Vec<u64> {
        [
            (&small, &seq_small),
            (&large, &seq_large),
            (&small, &seq_small),
        ]
        .into_iter()
        .map(|(dag, seq)| {
            let mut sched = PolicyScheduler::new(PolicyConfig::ws_half(1));
            let before = allocs();
            let report = sim.run_with_scratch(dag, seq, &mut sched, false, &mut scratch);
            let count = allocs() - before;
            assert!(report.completed);
            count
        })
        .collect()
    };
    let _warm = pass();
    let steady = pass();
    assert!(
        steady.iter().all(|&n| n == steady[0] && n <= 4),
        "small → large → small allocated {steady:?}; a re-hint may allocate only on growth"
    );
}

#[test]
fn recycled_builder_rebuilds_the_served_shapes_without_allocating() {
    // `DagBuilder::recycle` promises that rebuilding a DAG of similar shape
    // allocates nothing: every per-node table — edges, in-degrees,
    // successor records — and every thread buffer comes back from the
    // recycled DAG. Checked on the served medium shapes, each rebuilt
    // through one builder after a warm-up build of the same shape.
    use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

    let mut b = wsf_dag::DagBuilder::new();
    let mut scratch = ShapeScratch::new();
    let counts: Vec<u64> = [
        ShapeSpec::Mergesort { leaves: 512 },
        ShapeSpec::Stencil {
            rows: 16,
            width: 64,
            steps: 8,
        },
        ShapeSpec::Pipeline {
            stages: 8,
            items: 256,
            window: 8,
            work: 4,
        },
    ]
    .into_iter()
    .map(|spec| {
        let warm = spec.build_into(&mut b, &mut scratch);
        b.recycle(warm);
        let before = allocs();
        let dag = spec.build_into(&mut b, &mut scratch);
        b.recycle(dag);
        allocs() - before
    })
    .collect();
    assert_eq!(
        counts,
        [0, 0, 0],
        "same-shape build_into → recycle rebuilds allocated"
    );
}

#[test]
fn stack_distance_reset_is_allocation_free_in_steady_state() {
    // The one-pass profiler's `reset()` zeroes its buffers in place: re-profiling
    // the same trace through one warmed profiler must allocate nothing at
    // all — not per access, not per reset, not for the histogram.
    use wsf_cache::StackDistanceSim;
    use wsf_core::{ForkPolicy, SequentialExecutor};

    let dag = wsf_workloads::sort::mergesort(512, 8);
    let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
    let mut sd = StackDistanceSim::with_block_hint(dag.block_space());

    let profile = |sd: &mut StackDistanceSim| -> u64 {
        let before = allocs();
        sd.reset();
        for &node in seq.order() {
            sd.access_opt(dag.block_of(node).map(|b| b.0));
        }
        allocs() - before
    };

    let _warm = profile(&mut sd);
    let steady = profile(&mut sd);
    let steady_again = profile(&mut sd);
    assert_eq!(
        steady, 0,
        "steady-state reset + re-profile allocated {steady} times; \
         reset must reuse the profiler's storage"
    );
    assert_eq!(steady, steady_again);
    assert!(sd.accesses() > 0);
}

#[test]
fn fresh_scratch_amortizes_after_first_run() {
    // Even without pre-warming, the second identical run through one
    // scratch allocates only the O(1) report.
    let config = SimConfig {
        processors: 4,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let dag = random_single_touch(&RandomConfig {
        target_nodes: 8_000,
        seed: 9,
        ..RandomConfig::default()
    });
    let seq = sim.sequential(&dag);
    let mut scratch = SimScratch::new();
    let first = measured_run(&sim, &dag, &seq, &mut scratch);
    let second = measured_run(&sim, &dag, &seq, &mut scratch);
    assert!(second <= 4, "second run allocated {second} times");
    assert!(
        first > second,
        "first run ({first}) must be the one paying the buffer growth"
    );
}

#[test]
fn steal_half_and_residency_context_stay_allocation_free() {
    // The E19 policy machinery must not reintroduce per-step allocation:
    // `StealAmount::Half` stages multi-entry transfers in the scratch
    // `stolen` buffer and `prefer_cached` fills the scratch residency
    // view on every steal attempt — both reuse, never allocate, in steady
    // state. Exercised through the most demanding `PolicyScheduler` point
    // (MostLoaded needs the depth view too).
    use wsf_core::{PolicyConfig, PolicyScheduler, StealAmount, VictimOrder};

    let config = SimConfig {
        processors: 8,
        cache_lines: 16,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let dag = random_single_touch(&RandomConfig {
        target_nodes: 20_000,
        seed: 12,
        ..RandomConfig::default()
    });
    let seq = sim.sequential(&dag);
    let mut scratch = SimScratch::new();

    let run = |scratch: &mut SimScratch| -> u64 {
        let mut sched = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::MostLoaded,
            amount: StealAmount::Half,
            patience: 1,
            prefer_cached: true,
        });
        let before = allocs();
        let report = sim.run_with_scratch(&dag, &seq, &mut sched, false, scratch);
        let count = allocs() - before;
        assert!(report.completed);
        count
    };

    let _warm = run(&mut scratch);
    let steady = run(&mut scratch);
    let steady_again = run(&mut scratch);
    assert!(
        steady <= 4,
        "steady-state steal-half run allocated {steady} times; the staging \
         and residency buffers must come from the scratch"
    );
    assert_eq!(steady, steady_again);
}
