//! Benchmarks of the cache-model representations: the seed O(C) scan
//! LRU/FIFO against the O(1) indexed arena (hash and direct-mapped block
//! index), at capacities from the paper's C = 16 up to 32K lines.
//!
//! The ISSUE-4 acceptance numbers come from here (archived as the
//! `cache_*` fields of `BENCH_simulator.json`; live per-access costs are
//! the `benchmark/` crate's `cache.*` rows): ≥ 10x per-access speedup at
//! C = 4096 and no regression at C = 16 (where the adaptive constructor
//! keeps the scan representation — the `adaptive/16` and `scan/16` rows
//! must be equal to noise). `WSF_BENCH_SMOKE=1` shrinks the trace lengths
//! so CI can execute one fast iteration of every row.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use wsf_bench::cache_bench::{drive, trace, warmed};
use wsf_cache::{FifoCache, LruCache};

fn smoke() -> bool {
    std::env::var("WSF_BENCH_SMOKE").is_ok()
}

fn cache_model(c: &mut Criterion) {
    // Trace lengths are scaled down for the scan representation at large C
    // (each access costs O(C) there); criterion reports per-iteration
    // times, not ns/access.
    let capacities: &[usize] = if smoke() {
        &[16, 4096]
    } else {
        &[16, 1024, 4096, 32768]
    };
    for &cap in capacities {
        let mut group = c.benchmark_group(format!("cache_model/c{cap}"));
        let long = if smoke() { 4_096 } else { 65_536 };
        let short = if smoke() {
            512
        } else {
            // Keep scan rows to ~10^8 block comparisons per iteration.
            (long / (cap / 16).max(1)).max(512)
        };
        let long_trace = trace(cap, long);
        let short_trace = trace(cap, short);

        // Warm (full) caches persist across iterations: every timed access
        // pays the steady-state full-cache cost.
        let mut scan_lru = warmed(LruCache::scan(cap));
        group.bench_function(format!("scan_lru/{short}_accesses"), |b| {
            b.iter(|| drive(&mut scan_lru, &short_trace))
        });
        let mut hash_lru = warmed(LruCache::indexed(cap));
        group.bench_function(format!("indexed_lru_hash/{long}_accesses"), |b| {
            b.iter(|| drive(&mut hash_lru, &long_trace))
        });
        let mut dense_lru = warmed(LruCache::indexed_dense(cap, 2 * cap));
        group.bench_function(format!("indexed_lru_dense/{long}_accesses"), |b| {
            b.iter(|| drive(&mut dense_lru, &long_trace))
        });
        let mut adaptive_lru = warmed(LruCache::with_block_hint(cap, 2 * cap));
        group.bench_function(format!("adaptive_lru/{long}_accesses"), |b| {
            b.iter(|| drive(&mut adaptive_lru, &long_trace))
        });
        let mut scan_fifo = warmed(FifoCache::scan(cap));
        group.bench_function(format!("scan_fifo/{short}_accesses"), |b| {
            b.iter(|| drive(&mut scan_fifo, &short_trace))
        });
        let mut dense_fifo = warmed(FifoCache::indexed_dense(cap, 2 * cap));
        group.bench_function(format!("indexed_fifo_dense/{long}_accesses"), |b| {
            b.iter(|| drive(&mut dense_fifo, &long_trace))
        });
        group.finish();
    }
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
    targets = cache_model
}
criterion_main!(benches);
