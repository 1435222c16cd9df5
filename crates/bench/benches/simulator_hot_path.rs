//! Benchmarks of the three ISSUE-2 hot paths: the allocation-free
//! simulator loop (steps/sec), the thread-sharded analysis sweep
//! (wall-clock at 1 vs 4 threads) and the lock-free injector
//! (push/steal throughput vs the old mutex queue).
//!
//! `WSF_BENCH_SMOKE=1` shrinks every size so CI can execute one fast
//! iteration of each benchmark. Machine-readable numbers for the same
//! paths come from the `benchmark/` crate (`core.sim.steps_per_s`,
//! `analysis.*`, `deque.injector.*`); `BENCH_simulator.json` is the frozen
//! PR 2–10 archive.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use wsf_analysis::{seed_sweep_cells, set_threads, SweepConfig};
use wsf_core::{ParallelSimulator, RandomScheduler, SimConfig, SimScratch};
use wsf_deque::Injector;
use wsf_workloads::random::{random_single_touch, RandomConfig};

fn smoke() -> bool {
    std::env::var("WSF_BENCH_SMOKE").is_ok()
}

fn simulator(c: &mut Criterion) {
    let nodes = if smoke() { 5_000 } else { 100_000 };
    let dag = random_single_touch(&RandomConfig {
        target_nodes: nodes,
        seed: 7,
        blocks: 256,
        ..RandomConfig::default()
    });
    let config = SimConfig {
        processors: 8,
        cache_lines: 16,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(&dag);

    let mut group = c.benchmark_group("simulator");
    group.bench_function(format!("fresh_scratch/{nodes}_nodes_p8"), |b| {
        b.iter(|| {
            let mut sched = RandomScheduler::new(config.seed);
            sim.run_against(&dag, &seq, &mut sched, false).steals()
        })
    });
    let mut scratch = SimScratch::new();
    group.bench_function(format!("reused_scratch/{nodes}_nodes_p8"), |b| {
        b.iter(|| {
            let mut sched = RandomScheduler::new(config.seed);
            sim.run_with_scratch(&dag, &seq, &mut sched, false, &mut scratch)
                .steals()
        })
    });
    group.finish();
}

fn sweep(c: &mut Criterion) {
    let config = SweepConfig {
        target_nodes: if smoke() { 1_000 } else { 10_000 },
        seeds: vec![0, 1],
        processors: vec![2, 4],
        cache_lines: vec![16],
        ..SweepConfig::default()
    };
    let mut group = c.benchmark_group("sweep");
    for threads in [1usize, 4] {
        group.bench_function(format!("{threads}_threads"), |b| {
            set_threads(threads);
            b.iter(|| seed_sweep_cells(&config).len());
            set_threads(0);
        });
    }
    group.finish();
}

fn injector(c: &mut Criterion) {
    let ops = if smoke() { 5_000 } else { 100_000 };
    let mut group = c.benchmark_group("injector");
    group.bench_function(format!("mutex_vecdeque/{ops}_ops_2p2c"), |b| {
        b.iter(|| {
            use std::collections::VecDeque;
            use std::sync::Mutex;
            let q: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..ops / 2 {
                            q.lock().unwrap().push_back(i);
                        }
                    });
                }
                for _ in 0..2 {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = 0;
                        while got < ops / 2 {
                            if q.lock().unwrap().pop_front().is_some() {
                                got += 1;
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        })
    });
    group.bench_function(format!("lockfree/{ops}_ops_2p2c"), |b| {
        b.iter(|| {
            let q: Injector<usize> = Injector::new();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..ops / 2 {
                            q.push(i);
                        }
                    });
                }
                for _ in 0..2 {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = 0;
                        while got < ops / 2 {
                            if q.steal().is_some() {
                                got += 1;
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        })
    });
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
    targets = simulator, sweep, injector
}
criterion_main!(benches);
