//! E12–E16 / Theorem 12/16/18 workload suites: DAG construction rate and
//! simulation throughput for divide-and-conquer mergesort, wavefront and
//! symmetric-exchange stencils and bounded-backpressure pipelines, under
//! random work stealing and the deterministic parsimonious scheduler.
//!
//! The construction benches double as the regression guard for the
//! `DagBuilder` capacity/validation work (ROADMAP: ~300 ns/node was the
//! sweep bottleneck). `WSF_BENCH_SMOKE=1` shrinks every size so CI can
//! execute one fast iteration of each benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use wsf_bench::{simulate, sizes};
use wsf_core::{
    ForkPolicy, ParallelSimulator, PolicyConfig, PolicyScheduler, SimConfig, SimScratch,
};
use wsf_workloads::backpressure::batched_pipeline;
use wsf_workloads::sort::{mergesort, mergesort_streaming};
use wsf_workloads::stencil::{stencil, stencil_exchange};

fn smoke() -> bool {
    std::env::var("WSF_BENCH_SMOKE").is_ok()
}

fn build(c: &mut Criterion) {
    let scale = if smoke() { 1 } else { 8 };
    let mut group = c.benchmark_group("workload_suite/build");
    group.bench_function("mergesort", |b| b.iter(|| mergesort(1_024 * scale, 16)));
    group.bench_function("mergesort_streaming", |b| {
        b.iter(|| mergesort_streaming(1_024 * scale, 16, 32))
    });
    group.bench_function("stencil", |b| b.iter(|| stencil(8 * scale, 8, 8 * scale)));
    group.bench_function("stencil_exchange", |b| {
        b.iter(|| stencil_exchange(8 * scale, 8, 8 * scale))
    });
    group.bench_function("batched_pipeline", |b| {
        b.iter(|| batched_pipeline(4, 16 * scale, 4, 3))
    });
    group.finish();
}

fn simulate_suite(c: &mut Criterion) {
    let scale = if smoke() { 1 } else { 4 };
    let workloads = [
        ("mergesort", mergesort(512 * scale, 16)),
        ("stencil", stencil(8, 8, 8 * scale)),
        ("stencil_exchange", stencil_exchange(8, 8, 8 * scale)),
        ("batched_pipeline", batched_pipeline(4, 16 * scale, 4, 3)),
    ];
    let mut group = c.benchmark_group("workload_suite/simulate");
    for (name, dag) in &workloads {
        group.bench_function(format!("{name}/ws_random_p4"), |b| {
            b.iter(|| simulate(dag, 4, sizes::CACHE, ForkPolicy::FutureFirst, None))
        });
        // The parsimonious cells reuse one scratch, as the sweeps do.
        let config = SimConfig {
            processors: 4,
            cache_lines: sizes::CACHE,
            ..SimConfig::default()
        };
        let sim = ParallelSimulator::new(config);
        let seq = sim.sequential(dag);
        let mut scratch = SimScratch::new();
        group.bench_function(format!("{name}/parsimonious_p4"), |b| {
            b.iter(|| {
                let mut sched = PolicyScheduler::new(PolicyConfig::parsimonious(4));
                sim.run_with_scratch(dag, &seq, &mut sched, false, &mut scratch)
                    .steals()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = build, simulate_suite
}
criterion_main!(benches);
