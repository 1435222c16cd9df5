//! `tables`: regenerate the deterministic experiment tables, back to back.
//!
//! This is the reproduction's primary use, and the only workload where the
//! stack-distance profiler, the analysis crate's thread sharding and the
//! bulk simulator loop do most of the work. No socket, no pool.

use std::time::Instant;

use crate::adapter::{self, CacheProbe, SimProbe, StackProbe};
use crate::json::Json;
use crate::stats::{fnv1a, median, time_median, FNV_OFFSET};
use crate::trace::{self, Tracer, ROOT};
use crate::{cold_setups, peak_rss_mb, Args, Outcome};

/// Analysis threads of the timed regenerations (the box has 2 cores).
const THREADS: usize = 2;
/// Experiments that get a per-layer metric of their own; the others are
/// summed into `analysis.rest_s`.
const HEAVY: [&str; 4] = ["e11", "e15", "e16", "e17"];

/// What one regeneration produced: FNV-1a digest and byte count of every
/// rendered table, in registry order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rendered {
    digest: u64,
    bytes: u64,
}

fn regenerate(
    runners: &[(&'static str, impl Fn() -> String)],
    index: u64,
    tracer: &mut Tracer,
) -> Rendered {
    let root = tracer.open("regeneration", index, ROOT, Instant::now());
    let mut rendered = Rendered {
        digest: FNV_OFFSET,
        bytes: 0,
    };
    for (id, run) in runners {
        let text = tracer.time(id, index, root, run);
        rendered.digest = fnv1a(rendered.digest, text.as_bytes());
        rendered.bytes += text.len() as u64;
    }
    tracer.close(root, Instant::now());
    rendered
}

/// Set-up: pick the thread count and regenerate once, cold, so that lazy
/// state and the allocator's arenas are in place before anything is timed.
fn setup(runners: &[(&'static str, impl Fn() -> String)], tracer: &mut Tracer) -> (Rendered, f64) {
    let t = Instant::now();
    adapter::set_analysis_threads(THREADS);
    let rendered = regenerate(runners, 0, tracer);
    (rendered, t.elapsed().as_secs_f64())
}

/// Sets the workload up once; returns the set-up's seconds.
pub fn setup_once() -> Result<f64, String> {
    let runners = adapter::table_runners();
    Ok(setup(&runners, &mut Tracer::new(Instant::now())).1)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = cold_setups(args)?;
    let runners = adapter::table_runners();
    let mut tracer = Tracer::new(Instant::now());

    let (first, own_setup_s) = setup(&runners, &mut tracer);
    let mut results = vec![first];
    setups.push(own_setup_s);
    out.put("setup_s", median(&mut setups));
    tracer.spans.clear();

    // Tracing on: half the window, then the layer probes.
    let window = if args.trace {
        0.5 * args.seconds
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut regen_s = Vec::new();
    while started.elapsed().as_secs_f64() < window {
        let t = Instant::now();
        results.push(regenerate(&runners, regen_s.len() as u64, &mut tracer));
        regen_s.push(t.elapsed().as_secs_f64());
    }
    // Whole regenerations only, so throughput divides by the time they took.
    let elapsed = started.elapsed().as_secs_f64();
    out.put("process.peak_rss_mb", peak_rss_mb());
    out.put("throughput_per_s", regen_s.len() as f64 / elapsed);
    let regen_p50_s = median(&mut regen_s);
    out.put("analysis.regen_p50_s", regen_p50_s);

    // Oracle: tables are byte-identical at every thread count, so every
    // regeneration above must render what one thread renders.
    let t = Instant::now();
    adapter::set_analysis_threads(1);
    let reference = regenerate(&runners, u64::MAX, &mut Tracer::new(t));
    let one_thread_s = t.elapsed().as_secs_f64();
    out.put("bench.oracle_s", one_thread_s);
    out.attempted = results.len() as u64;
    out.failed = results.iter().filter(|&&r| r != reference).count() as u64;
    if out.failed > 0 {
        out.fail(format!(
            "{} of {} regenerations differ from the 1-thread tables ({reference:?})",
            out.failed, out.attempted
        ));
    }
    out.note(
        "tables_digest",
        Json::str(format!("{:016x}", reference.digest)),
    );

    if args.trace {
        let spans = &tracer.spans;
        for id in HEAVY {
            out.put(
                &format!("analysis.{id}_s"),
                trace::median_ns(spans, id) / 1e9,
            );
        }
        let mut rest: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "regeneration")
            .map(|(i, _)| {
                spans
                    .iter()
                    .filter(|c| c.parent == i as u32 && !HEAVY.contains(&c.name))
                    .map(|c| c.dur_ns() as f64 / 1e9)
                    .sum()
            })
            .collect();
        out.put("analysis.rest_s", median(&mut rest));
        out.put("analysis.par.speedup_2t", one_thread_s / regen_p50_s);
        out.put("analysis.tables_bytes", reference.bytes as f64);
        out.put("trace.spans", spans.len() as f64);
        probes(&mut out);
        trace::write(&args.workload, &[("tables", spans)])
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}

/// Unit costs of the layers under the tables, each the median of five
/// timed repetitions after a warm-up one.
fn probes(out: &mut Outcome) {
    const SAMPLES: usize = 5;
    let mut sim = SimProbe::build();
    out.put(
        "dag.builder.ns_per_node",
        time_median(3, SimProbe::build) * 1e9 / sim.nodes() as f64,
    );
    let mut makespan = 0;
    let secs = time_median(SAMPLES, || makespan = sim.run());
    out.put("core.sim.steps_per_s", makespan as f64 / secs);

    let mut cache = |name: &str, mut probe: CacheProbe| {
        let secs = time_median(SAMPLES, || probe.run());
        out.put(name, secs * 1e9 / probe.accesses() as f64);
    };
    cache("cache.lru_scan_c16.ns_per_access", CacheProbe::scan(16));
    cache(
        "cache.lru_dense_c1024.ns_per_access",
        CacheProbe::dense(1_024),
    );
    cache(
        "cache.lru_dense_c32768.ns_per_access",
        CacheProbe::dense(32_768),
    );
    let mut stack = StackProbe::new();
    let secs = time_median(SAMPLES, || stack.run());
    out.put(
        "cache.stack_distance.ns_per_access",
        secs * 1e9 / stack.accesses() as f64,
    );
}
