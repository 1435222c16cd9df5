//! Benchmarks of the one-pass Mattson stack-distance profiler against the
//! per-capacity indexed LRU simulation it replaces in the locality sweeps.
//!
//! One `StackDistanceSim` pass answers *every* capacity at once, so the
//! honest comparison is `stack_distance/one_pass` against the **sum** of
//! the `cache_sim/c*` rows over the capacities a sweep would re-simulate.
//! The end-to-end version of the same comparison is the `benchmark/`
//! crate's `cache.stack_distance.ns_per_access` and `analysis.e15_s` rows.
//! `WSF_BENCH_SMOKE=1` shrinks traces and capacities for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use wsf_bench::cache_bench::{drive, trace, warmed};
use wsf_cache::{LruCache, StackDistanceSim};

fn smoke() -> bool {
    std::env::var("WSF_BENCH_SMOKE").is_ok()
}

/// Replays `trace` through a reset profiler; returns a fold of the
/// distances so the work cannot be optimised away.
fn drive_sd(sd: &mut StackDistanceSim, trace: &[u32]) -> u64 {
    sd.reset();
    let mut acc = 0u64;
    for &b in trace {
        acc += u64::from(sd.access(b).unwrap_or(0));
    }
    acc
}

fn stack_distance(c: &mut Criterion) {
    let capacities: &[usize] = if smoke() {
        &[4_096]
    } else {
        &[16, 4_096, 32_768]
    };
    let len = if smoke() { 4_096 } else { 65_536 };
    // The block space the locality sweeps see: ~2x the largest capacity,
    // dense ids — the profiler and the dense-indexed LRU both use their
    // direct-mapped index representations.
    let space = 2 * 32_768;
    let sd_trace = trace(32_768, len);

    let mut group = c.benchmark_group("stack_distance");
    let mut sd = StackDistanceSim::with_block_hint(space);
    drive_sd(&mut sd, &sd_trace); // warm: allocations done, steady state
    group.bench_function(format!("one_pass/{len}_accesses"), |b| {
        b.iter(|| drive_sd(&mut sd, &sd_trace))
    });
    // Per-capacity baselines: what a sweep pays *per grid point* without
    // the profiler.
    for &cap in capacities {
        let mut lru = warmed(LruCache::indexed_dense(cap, space));
        group.bench_function(format!("cache_sim/c{cap}/{len}_accesses"), |b| {
            b.iter(|| drive(&mut lru, &sd_trace))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    let (samples, measure) = if smoke() { (2, 1) } else { (10, 2) };
    Criterion::default()
        .sample_size(samples)
        .warm_up_time(Duration::from_millis(if smoke() { 10 } else { 200 }))
        .measurement_time(Duration::from_secs(measure))
}

criterion_group! {
    name = benches;
    config = config();
    targets = stack_distance
}
criterion_main!(benches);
