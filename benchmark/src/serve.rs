//! The three served workloads: a `wsf-server` on TCP loopback inside this
//! process, driven by [`crate::loadgen`].
//!
//! | workload       | loop                      | shapes            | what carries the round trip |
//! |----------------|---------------------------|-------------------|-----------------------------|
//! | `serve_small`  | closed, 2 conns × 1 frame | smoke mix, ~400 n | sockets, hand-offs, wake-ups |
//! | `serve_medium` | closed, 2 conns × 1 frame | ~9.6 k nodes      | `build_into` + simulator     |
//! | `serve_open4`  | open, 4 000/s, batch 4    | smoke mix         | same layers, parked workers, shedding armed |

use std::time::{Duration, Instant};

use crate::adapter::{self, frame_request, Shadow, ShapeSpec, TcpServer, STATUS_OK, TENANTS};
use crate::json::Json;
use crate::loadgen::{self, LoopResult, Mix, Oracle, Rx, Sample, Stop, Tx};
use crate::stats::{self, median};
use crate::trace::{self, Tracer, ROOT};
use crate::{cold_setups, peak_rss_mb, Args, Outcome};

/// Requests sent through a fresh server before anything is timed.
const WARMUP_REQUESTS: u64 = 2_000;
/// Shadow stages replay at most this many requests (fewer if the time
/// budget runs out first; the count is reported).
const SHADOW_REQUESTS: u64 = 2_000;
/// Length of the slices a window is summarised over.
const SLICE_S: f64 = 1.0;
/// Open loop: a reply later than this after its due time does not count
/// towards throughput.
const DEADLINE_US: f64 = 1_000.0;
/// Open loop: a window whose frames left later than this at the 99th
/// percentile is invalid (the generator, not the server, was measured).
const MAX_LATENESS_P99_US: f64 = 1_000.0;
/// Invalid windows at which a run is itself invalid.
const MAX_INVALID_WINDOWS: u64 = 3;
/// Ids of shadow requests start here, clear of the loaded windows'.
const SHADOW_FIRST_ID: u64 = 1 << 40;

pub struct Served {
    shapes: Vec<ShapeSpec>,
    /// `Some((batch, requests per second))` for the open loop.
    open: Option<(u64, u64)>,
    connections: usize,
}

pub fn workload(name: &str) -> Option<Served> {
    let medium = vec![
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
    ];
    match name {
        "serve_small" => Some(Served {
            shapes: ShapeSpec::smoke_mix().to_vec(),
            open: None,
            connections: 2,
        }),
        "serve_medium" => Some(Served {
            shapes: medium,
            open: None,
            connections: 2,
        }),
        // 4 000 DAGs/s is ~35 % of what `serve_small` sustains on the 2-core
        // reference box: a constant, never derived from a measurement.
        "serve_open4" => Some(Served {
            shapes: ShapeSpec::smoke_mix().to_vec(),
            open: Some((4, 4_000)),
            connections: 1,
        }),
        _ => None,
    }
}

/// A warmed-up server with its client connections.
struct Live {
    server: TcpServer,
    conns: Vec<(Tx, Rx)>,
    next_id: u64,
}

impl Served {
    fn shed(&self) -> bool {
        self.open.is_some()
    }

    /// Bind, spawn the runtime, connect, send the warm-up traffic.
    fn setup(&self, mix: &Mix, oracle: &Oracle) -> Result<Live, String> {
        let server = TcpServer::start(self.shed()).map_err(|e| format!("bind: {e}"))?;
        let conns = (0..self.connections)
            .map(|_| loadgen::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut live = Live {
            server,
            conns,
            next_id: 0,
        };
        // Warm-up goes through the loop that will be measured.
        let warm = match self.open {
            None => {
                let each = WARMUP_REQUESTS / self.connections as u64;
                live.closed(mix, oracle, Stop::Count(each), None)
            }
            Some(rate) => {
                let t0 = Instant::now();
                let end = t0 + Duration::from_secs_f64(WARMUP_REQUESTS as f64 / rate.1 as f64);
                live.open(mix, oracle, rate, (t0, end), false)
            }
        }?;
        if !warm.result.mismatches.is_empty() {
            return Err(format!("warm-up failed: {:?}", warm.result.mismatches));
        }
        Ok(live)
    }

    /// One timed window of this workload's loop.
    fn window(
        &self,
        live: &mut Live,
        mix: &Mix,
        oracle: &Oracle,
        seconds: f64,
        traced: bool,
    ) -> Result<Window, String> {
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(seconds);
        match self.open {
            None => live.closed(mix, oracle, Stop::At(end), traced.then_some(t0)),
            Some(rate) => live.open(mix, oracle, rate, (t0, end), traced),
        }
    }

    /// A timed window in which the generator offered the load the workload
    /// specifies. A window in which it did not (see [`generator_fault`])
    /// measured something else, so it is discarded and measured again; its
    /// operations still count as attempted and failed. A run that meets
    /// [`MAX_INVALID_WINDOWS`] of them is itself invalid.
    fn valid_window(
        &self,
        live: &mut Live,
        mix: &Mix,
        oracle: &Oracle,
        seconds: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Result<Window, String> {
        loop {
            let mut window = self.window(live, mix, oracle, seconds, traced)?;
            out.attempted += window.result.attempted;
            out.failed += window.result.failed;
            for m in &window.result.mismatches {
                out.fail(m.clone());
            }
            let Some(fault) = generator_fault(&mut window.result) else {
                return Ok(window);
            };
            out.discarded_windows += 1;
            if out.discarded_windows >= MAX_INVALID_WINDOWS {
                out.fail(format!("{fault}: run invalid"));
                return Ok(window);
            }
            eprintln!("wsf-benchmark: {fault}: window discarded");
        }
    }
}

/// The client-side numbers of one window.
struct Summary {
    /// Counted replies per second in each one-second slice of the window.
    slice_rates: Vec<f64>,
    /// The median slice: a burst of interference from outside the process
    /// (the reference box freezes a vCPU for ~4 ms about once a second, and
    /// for tens of milliseconds now and then) moves one slice, not the rate.
    rate: f64,
    /// Latency over every sample of the window; a tail percentile is `None`
    /// when fewer than ten samples lie beyond it.
    p50_us: f64,
    p90_us: Option<f64>,
    p99_us: Option<f64>,
}

impl Summary {
    fn of(w: &Served, samples: &[Sample], window_s: f64) -> Summary {
        let n = (window_s / SLICE_S).floor().max(1.0) as usize;
        let slice_s = window_s / n as f64;
        let mut counted = vec![0u64; n];
        for s in samples {
            // What arrives in an open loop is what was scheduled, so the rate
            // that can move is that of replies inside the deadline. Replies
            // that arrive after the window fall off the last slice.
            let counts = w.open.is_none() || s.latency_us <= DEADLINE_US;
            if let Some(slice) = counted.get_mut((s.at_s / slice_s) as usize) {
                *slice += u64::from(counts);
            }
        }
        let slice_rates: Vec<f64> = counted.iter().map(|&c| c as f64 / slice_s).collect();
        let mut latency: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        Summary {
            rate: median(&mut slice_rates.clone()),
            slice_rates,
            p50_us: median(&mut latency),
            p90_us: stats::quantile(&latency, 0.9),
            p99_us: stats::quantile(&latency, 0.99),
        }
    }
}

/// A loop's result plus what the main thread sampled meanwhile.
struct Window {
    result: LoopResult,
    queued: Vec<f64>,
}

impl Live {
    /// Runs `load` on its own thread(s) while this thread samples the
    /// server's queue depth at 100 Hz (only when `sample` is set: the
    /// untraced windows must not carry a sampler).
    fn drive<R: Send>(&self, sample: bool, load: impl FnOnce() -> R + Send) -> (R, Vec<f64>) {
        std::thread::scope(|s| {
            let handle = s.spawn(load);
            let mut queued = Vec::new();
            while sample && !handle.is_finished() {
                queued.push(self.server.queued() as f64);
                std::thread::sleep(Duration::from_millis(10));
            }
            (handle.join().expect("load thread"), queued)
        })
    }

    fn closed(
        &mut self,
        mix: &Mix,
        oracle: &Oracle,
        stop: Stop,
        trace_epoch: Option<Instant>,
    ) -> Result<Window, String> {
        let stride = self.conns.len() as u64;
        let first = self.next_id;
        // Ids are never reused on a server: skip far past this window's.
        self.next_id += 1 << 32;
        let mut conns = std::mem::take(&mut self.conns);
        let (results, queued) = self.drive(trace_epoch.is_some(), || {
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(i, (tx, rx))| {
                        let ids = (first + i as u64, stride);
                        let tracer = trace_epoch.map(Tracer::new);
                        s.spawn(move || {
                            loadgen::closed_loop((tx, rx), mix, oracle, ids, stop, tracer)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection thread"))
                    .collect::<Vec<_>>()
            })
        });
        self.conns = conns;
        let mut result = LoopResult::default();
        let n = results.len() as f64;
        for r in results {
            let r = r.map_err(|e| format!("closed loop: {e}"))?;
            result.busy_share += r.busy_share / n;
            result.merge(r);
        }
        Ok(Window { result, queued })
    }

    fn open(
        &mut self,
        mix: &Mix,
        oracle: &Oracle,
        rate: (u64, u64),
        span: (Instant, Instant),
        traced: bool,
    ) -> Result<Window, String> {
        let first = self.next_id;
        self.next_id += 1 << 32;
        let mut conns = std::mem::take(&mut self.conns);
        let (result, queued) = self.drive(traced, || {
            let (tx, rx) = &mut conns[0];
            loadgen::open_loop((tx, rx), mix, oracle, first, rate, span, traced)
        });
        self.conns = conns;
        let result = result.map_err(|e| format!("open loop: {e}"))?;
        Ok(Window { result, queued })
    }

    /// Holds the client's reply counts against the server's tenant reports,
    /// then stops the server. Returns `(completed, shed, pool counters)`.
    fn teardown(self) -> Result<(u64, u64, adapter::PoolCounters), String> {
        let ok: u64 = self.conns.iter().map(|(_, rx)| rx.ok_replies).sum();
        let shed: u64 = self.conns.iter().map(|(_, rx)| rx.shed_replies).sum();
        let (completed, server_shed, failed) = self.server.tenant_totals();
        if (completed, server_shed, failed) != (ok, shed, 0) {
            return Err(format!(
                "tenant reports (completed {completed}, shed {server_shed}, failed {failed}) \
                 disagree with the client (ok {ok}, shed {shed})"
            ));
        }
        drop(self.conns);
        Ok((completed, shed, self.server.shutdown()?))
    }
}

fn oracle(w: &Served) -> Oracle {
    (0..TENANTS)
        .map(|tenant| {
            w.shapes
                .iter()
                .map(|&s| adapter::expected(tenant, s))
                .collect()
        })
        .collect()
}

/// Sets the workload up once, tears it down, returns the set-up's seconds.
pub fn setup_once(w: &Served, seed: u64) -> Result<f64, String> {
    let mix = Mix::new(w.shapes.clone(), seed);
    let oracle = oracle(w);
    let t = Instant::now();
    let live = w.setup(&mix, &oracle)?;
    let seconds = t.elapsed().as_secs_f64();
    live.teardown()?;
    Ok(seconds)
}

pub fn run(w: &Served, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = Mix::new(w.shapes.clone(), args.seed);
    let mut setups = cold_setups(args)?;

    let t = Instant::now();
    let oracle = oracle(w);
    out.put("bench.oracle_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut live = w.setup(&mix, &oracle)?;
    setups.push(t.elapsed().as_secs_f64());
    out.put("setup_s", median(&mut setups));

    // Tracing off: the whole window. Tracing on: 40 % untraced, 40 % traced
    // (their difference is the tracing overhead), the rest for shadow stages.
    let plain_s = if args.trace {
        0.4 * args.seconds
    } else {
        args.seconds
    };
    let plain = w
        .valid_window(&mut live, &mix, &oracle, plain_s, false, &mut out)?
        .result;
    // Read before the traced window, whose span buffers are not the system's.
    out.put("process.peak_rss_mb", peak_rss_mb());
    let summary = Summary::of(w, &plain.samples, plain_s);
    out.put("throughput_per_s", summary.rate);
    out.put("loadgen.latency_p50_us", summary.p50_us);
    out.note("latency_samples", Json::Num(plain.samples.len() as f64));
    out.note(
        "slice_rates",
        Json::Arr(summary.slice_rates.iter().map(|&r| Json::Num(r)).collect()),
    );

    if args.trace {
        let Window {
            result: traced,
            queued,
        } = w.valid_window(&mut live, &mix, &oracle, plain_s, true, &mut out)?;
        let traced_rate = Summary::of(w, &traced.samples, plain_s).rate;
        out.put(
            "trace.overhead_share",
            (summary.rate - traced_rate) / summary.rate,
        );
        let column = |f: fn(&Sample) -> f64| {
            let mut xs: Vec<f64> = traced.samples.iter().map(f).collect();
            xs.sort_by(f64::total_cmp);
            xs
        };
        let mut residency = column(|s| s.residency_us);
        out.put_tail("loadgen.latency_p90_us", summary.p90_us, args)?;
        out.put_tail("loadgen.latency_p99_us", summary.p99_us, args)?;
        out.put_tail(
            "server.residency_p99_us",
            stats::quantile(&residency, 0.99),
            args,
        )?;
        out.put("server.residency_p50_us", median(&mut residency));
        out.put(
            "server.net.transit_p50_us",
            median(&mut column(|s| s.latency_us - s.residency_us)),
        );
        out.put(
            "server.core.queued_mean",
            queued.iter().sum::<f64>() / queued.len().max(1) as f64,
        );
        out.put(
            "server.core.queued_max",
            queued.iter().copied().fold(0.0, f64::max),
        );
        if w.open.is_some() {
            let late_p99 = stats::quantile(&traced.lateness_us, 0.99);
            out.put_tail("loadgen.lateness_p99_us", late_p99, args)?;
        }
        out.put("loadgen.discarded_windows", out.discarded_windows as f64);
        out.put("loadgen.client_busy_share", traced.busy_share);

        let (completed, shed, pool) = live.teardown()?;
        let per_dag = |n: u64| n as f64 / completed.max(1) as f64;
        out.put("server.tenant.completed", completed as f64);
        out.put("server.tenant.shed", shed as f64);
        out.put("runtime.tasks_per_dag", per_dag(pool.tasks));
        out.put("runtime.steals_per_dag", per_dag(pool.steals));
        out.put("runtime.wakeups_per_dag", per_dag(pool.wakeups));
        out.put(
            "runtime.steal_success_ratio",
            pool.steals as f64 / (pool.steals + pool.failed_steals).max(1) as f64,
        );
        out.put(
            "runtime.inline_share",
            pool.inline_runs as f64 / pool.futures.max(1) as f64,
        );

        let budget = Duration::from_secs_f64((0.2 * args.seconds).max(0.3));
        let shadow_spans = shadow(w, &mix, &oracle, budget, &mut out)?;
        out.put(
            "trace.spans",
            (traced.spans.len() + shadow_spans.len()) as f64,
        );
        trace::write(
            &args.workload,
            &[("loaded", &traced.spans), ("shadow", &shadow_spans)],
        )
        .map_err(|e| format!("writing the trace: {e}"))?;
    } else {
        live.teardown()?;
    }
    Ok(out)
}

/// Why a window is invalid, if it is: the generator was the bottleneck. One
/// frame in a hundred left more than 1 ms after its due time (open loop), or
/// the generator's threads spent more than half the window doing anything
/// but waiting. Sorts the window's lateness samples.
fn generator_fault(window: &mut LoopResult) -> Option<String> {
    window.lateness_us.sort_by(f64::total_cmp);
    let late_p99 = stats::quantile(&window.lateness_us, 0.99).unwrap_or(0.0);
    if late_p99 > MAX_LATENESS_P99_US {
        Some(format!("generator ran {late_p99:.0} us late at p99"))
    } else if window.busy_share > 0.5 {
        let busy = window.busy_share * 100.0;
        Some(format!("generator busy {busy:.0} % of the window"))
    } else {
        None
    }
}

/// Replays requests from the workload's stream one stage at a time on an
/// idle machine, one span per call, all spans of a request under its id.
///
/// The stages of `server.core.roundtrip` cannot be observed inside the
/// server from here, so each is re-executed right after the round trip and
/// recorded as its child; the round trip's self time (`handoff`) is then
/// what the server spends *between* those stages: queue hand-offs, condvar
/// wake-ups, stat snapshots, locks.
fn shadow(
    w: &Served,
    mix: &Mix,
    oracle: &Oracle,
    budget: Duration,
    out: &mut Outcome,
) -> Result<Vec<trace::Span>, String> {
    let mut sh = Shadow::new(w.shed());
    let server = TcpServer::start(w.shed()).map_err(|e| format!("bind: {e}"))?;
    let (mut tx, mut rx) = loadgen::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let mut t = Tracer::new(started);

    // What an empty span measures: the clock reads themselves.
    for _ in 0..1_000 {
        t.time("trace.empty", 0, ROOT, || ());
    }
    let span_cost = trace::median_ns(&t.spans, "trace.empty");

    let mut bytes = Vec::new();
    let mut replies = Vec::new();
    let (mut build_pn, mut seq_pn, mut par_pn, mut net_minus_core) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut requests = 0u64;
    let mut total_nodes = 0.0;
    while requests < SHADOW_REQUESTS && (requests < 50 || started.elapsed() < budget) {
        let id = SHADOW_FIRST_ID + requests;
        requests += 1;
        let (tenant, si) = mix.pick(id);
        let (shape, want) = (mix.shapes[si], oracle[tenant][si]);
        let root = t.open("shadow.request", id, ROOT, Instant::now());

        t.time("server.protocol.encode", id, root, || {
            frame_request(tenant as u64, &[(id, shape)], &mut bytes)
        });
        t.time("server.protocol.decode", id, root, || {
            sh.decode_frame(&bytes)
        });

        let core = t.open("server.core.roundtrip", id, root, Instant::now());
        let (got_id, status, got) = sh.core_round_trip();
        t.close(core, Instant::now());
        if (got_id, status, got) != (id, STATUS_OK, want) {
            return Err(format!(
                "shadow core round trip {id}: {got:?}, expected {want:?}"
            ));
        }
        let decoded = t.time("workloads.shape.decode", id, core, || sh.decode_shape());
        let admitted = t.time("server.admission.admit", id, core, || {
            sh.admit(want.footprint)
        });
        let nodes = t.time("workloads.shape.build", id, core, || sh.build(decoded)) as f64;
        build_pn.push(t.last_ns() / nodes);
        total_nodes += nodes;
        t.time("deque.injector.push_batch", id, core, || {
            sh.injector_push_batch()
        });
        t.time("deque.injector.steal", id, core, || sh.injector_steal());
        t.time("runtime.dispatch", id, core, || sh.dispatch());
        t.time("core.sim.sequential", id, core, || {
            sh.sim_sequential(tenant)
        });
        seq_pn.push(t.last_ns() / nodes);
        let replayed = t.time("core.sim.parallel", id, core, || {
            sh.sim_parallel(tenant, shape)
        });
        if decoded != shape || !admitted || replayed != want {
            return Err(format!(
                "shadow stages of request {id} disagree with the oracle"
            ));
        }
        par_pn.push(t.last_ns() / nodes);

        tx.encode(tenant, &[(id, shape)]);
        let net = t.open("server.net.roundtrip", id, root, Instant::now());
        tx.write().map_err(|e| format!("shadow write: {e}"))?;
        replies.clear();
        let got = rx
            .recv(&mut replies, Instant::now() + loadgen::GRACE)
            .map_err(|e| format!("shadow read: {e}"))?;
        let now = Instant::now();
        t.close(net, now);
        t.close(root, now);
        if got != 1 || (replies[0].id, replies[0].status, replies[0].got) != (id, STATUS_OK, want) {
            return Err(format!("shadow net round trip {id}: {replies:?}"));
        }
        let (net, core) = (t.spans[net as usize], t.spans[core as usize]);
        net_minus_core.push(net.dur_ns() as f64 - core.dur_ns() as f64);
    }
    drop((tx, rx));
    server.shutdown()?;
    sh.shutdown()?;

    out.put("trace.shadow_requests", requests as f64);
    out.note(
        "mean_nodes_per_dag",
        Json::Num(total_nodes / requests as f64),
    );
    out.put("trace.span_cost_ns", span_cost);
    // One metric per stage span: its median, less the clock's own cost.
    for (span, unit, per_unit) in [
        ("server.protocol.encode", "ns", 1.0),
        ("server.protocol.decode", "ns", 1.0),
        ("workloads.shape.decode", "ns", 1.0),
        ("server.admission.admit", "ns", 1.0),
        ("workloads.shape.build", "ns", 1.0),
        ("deque.injector.push_batch", "ns", 1.0),
        ("deque.injector.steal", "ns", 1.0),
        ("runtime.dispatch", "us", 1e3),
        ("server.core.roundtrip", "us", 1e3),
        ("server.net.roundtrip", "us", 1e3),
    ] {
        let ns = (trace::median_ns(&t.spans, span) - span_cost).max(0.0);
        out.put(&format!("{span}_{unit}"), ns / per_unit);
    }
    out.put("workloads.shape.build_ns_per_node", median(&mut build_pn));
    out.put("core.sim.sequential_ns_per_node", median(&mut seq_pn));
    out.put("core.sim.parallel_ns_per_node", median(&mut par_pn));
    out.put(
        "server.core.handoff_us",
        trace::median_self_ns(&t.spans, "server.core.roundtrip") / 1e3,
    );
    out.put("server.net.overhead_us", median(&mut net_minus_core) / 1e3);
    Ok(t.spans)
}
