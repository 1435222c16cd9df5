//! `pool_dags`: execute large DAGs on the real work-stealing pool.
//!
//! The only workload where the Chase–Lev deques, steals and pool wake-ups
//! dominate: the served workloads hand the pool one future per DAG, this one
//! hands it one task per fork of a 70 k – 264 k node DAG.

use std::time::Instant;

use crate::adapter::{self, ForkPolicy, Pool, PoolDag, ShapeSpec};
use crate::stats::{median, time_median};
use crate::trace::{self, Tracer, ROOT};
use crate::{cold_setups, peak_rss_mb, Args, Outcome};

const THREADS: usize = 2;
/// 69 630 / 263 697 / 103 556 nodes.
const SHAPES: [ShapeSpec; 3] = [
    ShapeSpec::Mergesort { leaves: 4_096 },
    ShapeSpec::Stencil {
        rows: 64,
        width: 256,
        steps: 16,
    },
    ShapeSpec::Pipeline {
        stages: 16,
        items: 1_024,
        window: 8,
        work: 4,
    },
];
const POLICIES: [(ForkPolicy, &str); 2] = [
    (ForkPolicy::FutureFirst, "dag_exec.future_first"),
    (ForkPolicy::ParentFirst, "dag_exec.parent_first"),
];
/// Touch-trace events reserved per lane for the exactly-once pass: the
/// largest DAG's nodes plus one provenance event per task, with room.
const TRACE_CAPACITY: usize = 1 << 20;

/// Runtime, DAG builds, one warm-up run per DAG.
fn setup() -> Result<(Pool, Vec<PoolDag>), String> {
    let pool = Pool::new(THREADS, None);
    let dags: Vec<PoolDag> = SHAPES.into_iter().map(PoolDag::build).collect();
    for dag in &dags {
        pool.run(dag, ForkPolicy::FutureFirst)?;
    }
    Ok((pool, dags))
}

/// Sets the workload up once, tears it down, returns the set-up's seconds.
pub fn setup_once() -> Result<f64, String> {
    let t = Instant::now();
    let (pool, _dags) = setup()?;
    let seconds = t.elapsed().as_secs_f64();
    pool.shutdown()?;
    Ok(seconds)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = cold_setups(args)?;
    let t = Instant::now();
    let (pool, dags) = setup()?;
    setups.push(t.elapsed().as_secs_f64());
    out.put("setup_s", median(&mut setups));

    // Tracing on: half the window, then the layer probes.
    let window = if args.trace {
        0.5 * args.seconds
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut tracer = Tracer::new(started);
    let before = pool.counters();
    let (mut nodes, mut runs, mut short_counts, mut rescue_rounds) = (0u64, 0u64, 0u64, 0u64);
    let mut round_s = Vec::new();
    let mut us_per_node = [Vec::new(), Vec::new()];
    // Whole rounds only (every DAG under both policies), so each run of the
    // benchmark executes the same mix.
    while started.elapsed().as_secs_f64() < window {
        let round = Instant::now();
        for dag in &dags {
            for (p, (policy, span)) in POLICIES.into_iter().enumerate() {
                let report = tracer.time(span, runs, ROOT, || pool.run(dag, policy));
                us_per_node[p].push(tracer.last_ns() / 1e3 / dag.nodes() as f64);
                runs += 1;
                out.attempted += 1;
                match report {
                    Ok(r) if r.rescued == 0 && r.direct_runs == 0 => {
                        // A known counting race in `DagRunReport` (the final
                        // node can signal completion before the last
                        // `executed` increment lands): recorded, not failed.
                        // Coverage is proven by the exactly-once pass below.
                        short_counts += u64::from(r.nodes_executed != dag.nodes());
                        rescue_rounds += r.rescue_rounds as u64;
                        nodes += dag.nodes() as u64;
                    }
                    Ok(r) => {
                        out.failed += 1;
                        out.fail(format!("run {runs} needed rescue: {r:?}"));
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.fail(format!("run {runs}: {e}"));
                    }
                }
            }
        }
        round_s.push(round.elapsed().as_secs_f64());
    }
    let elapsed = started.elapsed().as_secs_f64();
    let after = pool.counters();
    let worker_tasks = pool.worker_tasks();
    out.put("process.peak_rss_mb", peak_rss_mb());
    out.put("throughput_per_s", nodes as f64 / elapsed);
    out.put("workloads.dag_exec.round_p50_s", median(&mut round_s));

    // Oracle: on a pool with the runtime's touch trace on, every node of
    // every DAG runs exactly once under both policies. Untimed, and after
    // the window so the trace's memory is not in `peak_rss_mb`.
    let t = Instant::now();
    let traced_pool = Pool::new(THREADS, Some(TRACE_CAPACITY));
    for dag in &dags {
        for (policy, name) in POLICIES {
            out.attempted += 1;
            let checked = traced_pool
                .run(dag, policy)
                .and_then(|_| traced_pool.check_exactly_once(dag));
            if let Err(e) = checked {
                out.failed += 1;
                out.fail(format!("{name} on {} nodes: {e}", dag.nodes()));
            }
        }
    }
    traced_pool.shutdown()?;
    out.put("bench.oracle_s", t.elapsed().as_secs_f64());

    if args.trace {
        let per_knode = |n: u64| n as f64 * 1e3 / nodes.max(1) as f64;
        out.put(
            "workloads.dag_exec.us_per_node.future_first",
            median(&mut us_per_node[0]),
        );
        out.put(
            "workloads.dag_exec.us_per_node.parent_first",
            median(&mut us_per_node[1]),
        );
        out.put(
            "runtime.steals_per_knode",
            per_knode(after.steals - before.steals),
        );
        out.put(
            "runtime.failed_steals_per_knode",
            per_knode(after.failed_steals - before.failed_steals),
        );
        out.put(
            "runtime.wakeups_per_knode",
            per_knode(after.wakeups - before.wakeups),
        );
        let mean = worker_tasks.iter().sum::<u64>() as f64 / worker_tasks.len() as f64;
        out.put(
            "runtime.worker_imbalance",
            worker_tasks.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        );
        out.put("workloads.dag_exec.rescue_rounds", rescue_rounds as f64);
        out.put("workloads.dag_exec.short_count_runs", short_counts as f64);
        out.put("trace.spans", tracer.spans.len() as f64);
        probes(&pool, &mut out);
        trace::write(&args.workload, &[("pool_dags", &tracer.spans)])
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    pool.shutdown()?;
    Ok(out)
}

/// Unit costs of the pool's layers, each the median of five timed
/// repetitions after a warm-up one.
fn probes(pool: &Pool, out: &mut Outcome) {
    const SAMPLES: usize = 5;
    const OPS: usize = 200_000;
    let mut per_op = |name: &str, ops: usize, f: &mut dyn FnMut() -> u64| {
        out.put(name, time_median(SAMPLES, f) * 1e9 / ops as f64);
    };
    per_op("runtime.spawn_touch_ns", OPS / 4, &mut || {
        pool.spawn_touch(OPS / 4)
    });
    per_op("runtime.join_ns", OPS / 4, &mut || pool.join(OPS / 4));
    per_op("deque.chase_lev.push_pop_ns", OPS, &mut || {
        adapter::chase_lev_push_pop(OPS) as u64
    });
    per_op("deque.chase_lev.steal_ns", OPS, &mut || {
        adapter::chase_lev_steal(OPS) as u64
    });
    per_op("deque.injector.mpmc_ns_per_op", 2 * OPS, &mut || {
        adapter::injector_spsc(OPS) as u64
    });
    per_op("deque.mutex_queue.mpmc_ns_per_op", 2 * OPS, &mut || {
        adapter::mutex_queue_spsc(OPS) as u64
    });
}
