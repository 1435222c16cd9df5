//! E10, E18, E20, E21: the experiments that drive real machinery — the
//! work-stealing pool, the crash-recovery streaming engine, the TCP server
//! and the hardware-validation loop. Their tables are counts and verdicts;
//! speed numbers come from the standalone `benchmark/` crate.

use super::suites::{thm12_family, verdict_row, VERDICT_COLUMNS, WS_VS_PARSIMONIOUS};
use super::Scale;
use crate::sweeps::capacity_sweep;
use crate::table::Table;
use crate::validate::{validate_trace, BoundFamily};
use std::sync::Arc;
use wsf_core::{ForkPolicy, ParallelSimulator};
use wsf_dag::DagBuilder;
use wsf_runtime::{Runtime, SpawnPolicy};
use wsf_workloads::{backpressure, dag_exec, runtime_apps, sort, stencil};

/// E10 — the real runtime: the closure kernels of
/// [`wsf_workloads::runtime_apps`] on OS threads, child-first vs
/// helper-first, result-checked. The runtime's steal and inline counters
/// vary run to run, so they go to stderr and the table stays
/// byte-identical. The suite families (mergesort, stencils, batched
/// pipeline) run on the real pool from their own DAGs in E21.
pub fn e10_runtime(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E10 — real work-stealing runtime (structured single-touch futures)",
        &["kernel", "policy", "threads", "result ok", "futures"],
    );
    let fib_n = scale.pick(12u64, 20);
    let sum_len = scale.pick(10_000usize, 400_000);
    let pipeline_items = scale.pick(256usize, 10_000);
    for &threads in &scale.pick(vec![2usize], vec![1, 2, 4]) {
        for policy in SpawnPolicy::ALL {
            let rt = Arc::new(Runtime::builder().threads(threads).policy(policy).build());
            let data: Arc<Vec<u64>> = Arc::new((0..sum_len as u64).collect());

            let fib_val = runtime_apps::fib(&rt, fib_n);
            let sum_val = runtime_apps::sum(&rt, &data, 0, data.len(), 512);
            let mr = runtime_apps::map_reduce(&rt, 32, |w| w as u64, |a, b| a + b);
            let piped = runtime_apps::pipeline(&rt, pipeline_items);

            let ok = fib_val == fib_reference(fib_n)
                && sum_val == data.iter().sum::<u64>()
                && mr == Some((0..32u64).sum())
                && piped
                    .iter()
                    .copied()
                    .eq((0..pipeline_items as u64).map(|x| x * x + 1));
            let stats = rt.stats();
            eprintln!(
                "E10 {policy} threads={threads}: steals={} inline_fraction={:.2}",
                stats.steals,
                stats.inline_fraction(),
            );
            t.push_row(vec![
                "fib+sum+map_reduce+pipeline".to_string(),
                policy.to_string(),
                threads.to_string(),
                ok.to_string(),
                stats.futures_created.to_string(),
            ]);
        }
    }
    vec![t]
}

/// The simulator replay behind E18: every committed epoch becomes one
/// [`backpressure::batched_pipeline`] DAG (the stage topology the engine
/// executed) and is measured as a standard Theorem-12 row under both
/// sweep schedulers. The rows depend only on the committed log — which is
/// exactly why a faulted run must reproduce the fault-free table byte for
/// byte.
fn e18_epoch_miss_rows(
    policy: SpawnPolicy,
    store: &wsf_runtime::CheckpointStore,
    stages: usize,
    window: usize,
    work: usize,
    p: usize,
    c: usize,
) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for cp in store.log() {
        let dag = backpressure::batched_pipeline(stages, cp.items as usize, window, work);
        let family = thm12_family(&dag);
        let sweep = capacity_sweep(&dag, ForkPolicy::FutureFirst, &[p], &WS_VS_PARSIMONIOUS);
        for run in &sweep.runs {
            let mut row = vec![
                policy.to_string(),
                cp.epoch.to_string(),
                cp.first_item.to_string(),
                cp.items.to_string(),
            ];
            row.extend(verdict_row(family, &sweep, run, c));
            out.push(row);
        }
    }
    out
}

/// E18 — fault-tolerant streaming epochs: the seeded stream runs through
/// the crash-recovery engine (`wsf_runtime::StreamEngine`) twice per spawn
/// policy — fault-free and under a seeded fault schedule of task panics,
/// worker kills, injector stalls and delayed wakeups
/// (`WSF_FAULT_SEED`, default 1; the CI fault-matrix job sweeps it) — and
/// every committed epoch is replayed as its `batched_pipeline` DAG on the
/// simulator for Theorem-12 per-epoch miss accounting. Because commits
/// happen only at barriers and transforms are pure over the epoch-start
/// snapshot, the faulted run must commit a byte-identical log, so its miss
/// table equals the fault-free one row for row; the summary table checks
/// the exactly-once invariants (valid contiguous log, states equal to the
/// sequential reference, fingerprint equal to the fault-free run).
pub fn e18_streaming_epochs(scale: Scale) -> Vec<Table> {
    use std::time::Duration;
    use wsf_runtime::{sequential_reference, EpochConfig, FaultPlan, FaultSpec, StreamEngine};
    use wsf_workloads::streaming::{mix_stages, SeededStream};

    let c = 16usize;
    let sim_p = scale.pick(2usize, 4);
    let stages_n = scale.pick(2usize, 4);
    let epoch_items = scale.pick(8usize, 64);
    let epochs = scale.pick(3u64, 8);
    let (window, work) = (4usize, 2usize);
    // Ragged final epoch: the last barrier commits fewer items.
    let len = epoch_items as u64 * epochs - 3;
    let fault_seed = wsf_runtime::fault_seed_from_env().unwrap_or(1);

    let source = SeededStream::new(0x5eed_0018, len);
    let stages = mix_stages(stages_n, 18);
    let reference = sequential_reference(&stages, &source, epoch_items);
    let config = EpochConfig {
        epoch_items,
        window,
        max_retries: 8,
        retry_backoff: Duration::from_millis(1),
        task_timeout: Duration::from_secs(10),
    };
    let spec = FaultSpec {
        // Well under the `len` dequeues the stream guarantees, so every
        // drawn fault actually fires (keeps the summary deterministic).
        horizon: len / 2,
        panics: 2,
        kills: 1,
        stall_period: 5,
        stall: Duration::from_micros(100),
        wakeup_period: 3,
        wakeup_delay: Duration::from_micros(50),
    };

    let mut columns = vec!["policy", "epoch", "first item", "items"];
    columns.extend(VERDICT_COLUMNS);
    let mut misses = Table::new(
        format!(
            "E18 / Theorem 12 — per-epoch miss accounting under injected faults (fault seed {fault_seed})"
        ),
        &columns,
    );
    let mut summary = Table::new(
        format!("E18 — crash-recovery summary (fault seed {fault_seed})"),
        &[
            "policy",
            "threads",
            "fault plan",
            "epochs",
            "items",
            "exactly-once",
        ],
    );

    for policy in SpawnPolicy::ALL {
        let rt = Arc::new(Runtime::builder().threads(2).policy(policy).build());
        let mut baseline = StreamEngine::new(rt, stages.clone(), config.clone());
        baseline.run(&source).expect("E18 fault-free baseline");

        let plan = Arc::new(FaultPlan::seeded(fault_seed, &spec));
        let rt = Arc::new(
            Runtime::builder()
                .threads(2)
                .policy(policy)
                .fault_hooks(Arc::clone(&plan) as _)
                .build(),
        );
        let mut faulted = StreamEngine::new(rt, stages.clone(), config.clone());
        let report = faulted
            .run(&source)
            .unwrap_or_else(|e| panic!("E18 faulted run (seed {fault_seed}, {policy}): {e}"));

        let clean_rows =
            e18_epoch_miss_rows(policy, baseline.store(), stages_n, window, work, sim_p, c);
        let fault_rows =
            e18_epoch_miss_rows(policy, faulted.store(), stages_n, window, work, sim_p, c);
        assert_eq!(
            clean_rows, fault_rows,
            "E18 {policy}: faulted run must reproduce the fault-free per-epoch miss table"
        );

        let exactly_once = faulted.store().validate().is_ok()
            && faulted.committed_states() == reference
            && faulted.store().fingerprint() == baseline.store().fingerprint();
        summary.push_row(vec![
            policy.to_string(),
            "2".to_string(),
            plan.describe(),
            report.epochs_committed.to_string(),
            report.items.to_string(),
            if exactly_once { "yes" } else { "NO" }.to_string(),
        ]);
        // Scheduling-dependent diagnostics stay out of the table so it is
        // byte-identical across runs and thread counts.
        eprintln!(
            "E18 {policy}: retries={} inline_epochs={} fired: {}p/{}k stalls={} delays={}",
            report.retries,
            report.inline_epochs,
            plan.fired_panics(),
            plan.fired_kills(),
            plan.fired_stalls(),
            plan.fired_delays(),
        );
        for row in fault_rows {
            misses.push_row(row);
        }
    }
    vec![misses, summary]
}

/// The E20 tenant roster: E19-promoted policy points on distinct
/// simulated machines, each with its own seed — every tenant's
/// per-submission counters are fully determined by (policy, machine,
/// seed, shape), which is what makes the E20 tables reproducible.
fn e20_tenants(scale: Scale) -> Vec<(&'static str, wsf_server::TenantSpec)> {
    use wsf_core::PolicyConfig;
    use wsf_server::TenantSpec;
    let tenant = |policy, processors, cache_lines, seed| TenantSpec {
        policy,
        processors,
        cache_lines,
        fork_policy: ForkPolicy::FutureFirst,
        seed,
    };
    let mut tenants = vec![
        (
            "ws-half",
            tenant(PolicyConfig::ws_half(0x2001), 4, 64, 0x2001),
        ),
        (
            "ws-rr-eager",
            tenant(PolicyConfig::rr_eager(), 2, 32, 0x2002),
        ),
    ];
    if scale == Scale::Full {
        tenants.push((
            "ws-loaded-frugal",
            tenant(PolicyConfig::loaded_frugal(), 8, 128, 0x2003),
        ));
        tenants.push((
            "parsimonious",
            tenant(PolicyConfig::parsimonious(4), 4, 64, 0x2004),
        ));
    }
    tenants
}

/// Human-readable shape label for the E20 tables.
fn e20_shape_label(spec: &wsf_workloads::submission::ShapeSpec) -> String {
    use wsf_workloads::submission::ShapeSpec;
    match *spec {
        ShapeSpec::Mergesort { leaves } => format!("mergesort/{leaves}"),
        ShapeSpec::Stencil { rows, width, steps } => {
            format!("stencil/{rows}x{width}x{steps}")
        }
        ShapeSpec::Pipeline {
            stages,
            items,
            window,
            work,
        } => format!("pipeline/{stages}x{items}w{window}k{work}"),
    }
}

/// E20 — futures as a service: a real `wsf-server` instance is bound on a
/// TCP loopback socket and driven through the wire protocol with a
/// scripted zipfian multi-tenant mix of the workload-suite shapes
/// (mergesort / stencil / batched pipeline). Every completion the server
/// returns is checked against a local replay of the same (tenant, shape)
/// cell on this process's simulator — the per-tenant deterministic-seed
/// contract means the server's misses and deviations must equal the
/// replay's exactly, no matter how submissions interleaved across
/// executors on the way there. The tables hold only replay-determined
/// columns, so they render byte-identically at every `--threads` setting
/// and across runs; served latency and throughput are measured by
/// `benchmark/` (`loadgen.latency_*`, `throughput_per_s`), not here.
pub fn e20_futures_service(scale: Scale) -> Vec<Table> {
    use std::time::{Duration, Instant};
    use wsf_server::{AdmissionMode, BenchClient, Server, ServerConfig, ZipfSampler, STATUS_OK};
    use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

    let tenants = e20_tenants(scale);
    let shapes: [ShapeSpec; 3] = scale.pick(
        ShapeSpec::smoke_mix(),
        [
            ShapeSpec::Mergesort { leaves: 256 },
            ShapeSpec::Stencil {
                rows: 16,
                width: 32,
                steps: 8,
            },
            ShapeSpec::Pipeline {
                stages: 6,
                items: 64,
                window: 8,
                work: 2,
            },
        ],
    );
    let total = scale.pick(24usize, 240);
    let batch = 8usize;

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            runtime_threads: scale.pick(2, 4),
            executors: 2,
            admission: AdmissionMode::QueueAll,
            tenants: tenants.iter().map(|&(_, t)| t).collect(),
            fault_hooks: None,
        },
    )
    .expect("bind E20 server");
    let mut client =
        BenchClient::connect_tcp(server.tcp_addr().expect("tcp addr")).expect("connect");

    // The scripted zipfian schedule: tenant popularity is zipf(s = 1.1)
    // over the roster, shapes cycle through the suite. Seeded, so the
    // expected per-tenant tallies below replay the same script.
    let mut zipf = ZipfSampler::new(tenants.len(), 1.1, 0xE20_5EED);
    let schedule: Vec<(usize, usize)> = (0..total)
        .map(|k| (zipf.sample(), k % shapes.len()))
        .collect();

    let mut staged: Vec<Vec<(u64, ShapeSpec)>> = vec![Vec::new(); tenants.len()];
    for (k, &(t, s)) in schedule.iter().enumerate() {
        staged[t].push((k as u64 + 1, shapes[s]));
        if staged[t].len() == batch {
            client.submit_batch(t as u64, &staged[t]).expect("submit");
            staged[t].clear();
        }
    }
    for (t, pending) in staged.iter().enumerate() {
        if !pending.is_empty() {
            client.submit_batch(t as u64, pending).expect("submit");
        }
    }

    let mut completions = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while completions.len() < total {
        assert!(
            Instant::now() < deadline,
            "E20 timed out at {}/{total} completions",
            completions.len()
        );
        client
            .recv_completions(&mut completions, Duration::from_secs(5))
            .expect("recv completions");
    }

    // Ground truth: one local replay per (tenant, shape) cell.
    let replay: Vec<Vec<(u64, u64)>> = tenants
        .iter()
        .map(|(_, tenant)| {
            shapes
                .iter()
                .map(|shape| {
                    let mut b = DagBuilder::new();
                    let mut scratch = ShapeScratch::new();
                    let dag = shape.build_into(&mut b, &mut scratch);
                    let sim = ParallelSimulator::new(tenant.sim_config());
                    let seq = sim.sequential(&dag);
                    let mut sched = wsf_core::PolicyScheduler::new(tenant.policy);
                    let report = sim.run_against(&dag, &seq, &mut sched, false);
                    (report.cache_misses(), report.deviations())
                })
                .collect()
        })
        .collect();

    // Check every completion against its cell's replay; aggregate per cell.
    let mut subs = vec![vec![0u64; shapes.len()]; tenants.len()];
    let mut matched = vec![vec![true; shapes.len()]; tenants.len()];
    for c in &completions {
        let k = (c.request_id - 1) as usize;
        let (t, s) = schedule[k];
        subs[t][s] += 1;
        let (misses, deviations) = replay[t][s];
        if c.status != STATUS_OK
            || c.misses != misses
            || c.deviations != deviations
            || c.footprint != shapes[s].footprint()
        {
            matched[t][s] = false;
        }
    }

    let mut per_cell = Table::new(
        format!(
            "E20 / futures as a service — scripted zipfian mix ({total} submissions, \
             {} tenants, TCP loopback), server vs local replay",
            tenants.len()
        ),
        &[
            "tenant",
            "policy",
            "P",
            "C",
            "shape",
            "subs",
            "footprint",
            "misses/sub",
            "devs/sub",
            "server == replay",
        ],
    );
    for (t, (name, tenant)) in tenants.iter().enumerate() {
        for (s, shape) in shapes.iter().enumerate() {
            let (misses, deviations) = replay[t][s];
            per_cell.push_row(vec![
                t.to_string(),
                name.to_string(),
                tenant.processors.to_string(),
                tenant.cache_lines.to_string(),
                e20_shape_label(shape),
                subs[t][s].to_string(),
                shape.footprint().to_string(),
                misses.to_string(),
                deviations.to_string(),
                if matched[t][s] { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }

    // Per-tenant accounting: the server's own tallies must equal the sums
    // the schedule and the replay predict.
    let mut summary = Table::new(
        "E20 / per-tenant accounting — server tallies vs schedule × replay",
        &[
            "tenant",
            "policy",
            "sent",
            "completed",
            "shed",
            "failed",
            "inflight",
            "misses",
            "deviations",
            "tallies match",
        ],
    );
    for (t, (name, _)) in tenants.iter().enumerate() {
        let sent: u64 = subs[t].iter().sum();
        let misses: u64 = (0..shapes.len()).map(|s| subs[t][s] * replay[t][s].0).sum();
        let deviations: u64 = (0..shapes.len()).map(|s| subs[t][s] * replay[t][s].1).sum();
        let r = server.core().tenant_report(t);
        let ok = r.completed == sent
            && r.shed == 0
            && r.failed == 0
            && r.inflight == 0
            && r.misses == misses
            && r.deviations == deviations;
        summary.push_row(vec![
            t.to_string(),
            name.to_string(),
            sent.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.failed.to_string(),
            r.inflight.to_string(),
            r.misses.to_string(),
            r.deviations.to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let report = server.shutdown(Duration::from_secs(30));
    assert!(report.drained, "E20 server failed to drain at shutdown");
    vec![per_cell, summary]
}

fn fib_reference(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let next = a + b;
        a = b;
        b = next;
    }
    a
}

/// E21 — the hardware-validation loop: the Theorem-12/16/18 suite
/// families executed on the *real* work-stealing pool at `P ∈ {1, 2, 4}`
/// (a fresh traced pool per cell, `C = 16` per-worker private LRU caches),
/// their block-touch traces read as a [`wsf_core::Schedule`], counted
/// per lane and checked against the theorem bounds — bound verdicts over executed
/// schedules rather than simulated ones.
///
/// The matrix is the four Theorem-12 suite families, the exchange stencil
/// twice (once per bound family), each sized so the theorem bounds exceed
/// the node count — which makes every verdict structurally "yes" on *any*
/// executed schedule, keeping the table byte-deterministic at any
/// `--threads` while the measured numbers — deviations, extra misses,
/// steals — vary run to run and go to stderr.
pub fn e21_hw_validate(scale: Scale) -> Vec<Table> {
    let columns = [
        "family",
        "nodes",
        "blocks",
        "thm",
        "P",
        "T_inf",
        "seq misses",
        "dev bound",
        "miss bound",
        "p1",
        "within",
    ];
    let mut t = Table::new(
        "E21 / hardware-validation loop — executed schedules vs Theorems 12/16/18 (C = 16)",
        &columns,
    );
    let c = 16usize;
    let (sort_shape, st, ex, bp) = scale.pick(
        (
            (64usize, 8usize),
            (3usize, 2, 3),
            (3usize, 2),
            (3usize, 12, 4, 1),
        ),
        ((512, 16), (8, 8, 4), (4, 8), (4, 48, 8, 1)),
    );
    let matrix = [
        (
            "mergesort",
            sort::mergesort(sort_shape.0, sort_shape.1),
            BoundFamily::Thm12,
        ),
        (
            "stencil",
            stencil::stencil(st.0, st.1, st.2),
            BoundFamily::Thm12,
        ),
        (
            "stencil_exchange/1",
            stencil::stencil_exchange(ex.0, ex.1, 1),
            BoundFamily::Thm16,
        ),
        (
            "stencil_exchange/2",
            stencil::stencil_exchange(ex.0, ex.1, 2),
            BoundFamily::Thm18,
        ),
        (
            "batched_pipeline",
            backpressure::batched_pipeline(bp.0, bp.1, bp.2, bp.3),
            BoundFamily::Thm12,
        ),
    ];
    for (family, dag, bound_family) in matrix {
        let dag = Arc::new(dag);
        for processors in [1usize, 2, 4] {
            let rt = Arc::new(
                Runtime::builder()
                    .threads(processors)
                    .policy(SpawnPolicy::ChildFirst)
                    .touch_trace(4 * dag.num_nodes() + 64)
                    .build(),
            );
            let report = dag_exec::run_dag_on_pool(&rt, &dag, ForkPolicy::FutureFirst);
            let trace = rt.touch_trace().expect("tracing enabled");
            let v = validate_trace(
                &dag,
                &trace,
                ForkPolicy::FutureFirst,
                c,
                processors as u64,
                bound_family,
            );
            // The structural determinism guarantee: with `nodes` at or
            // below both bounds, no executed schedule can violate them
            // (deviations and extra misses are each at most one per node).
            assert!(
                dag.num_nodes() as u64 <= v.deviation_bound
                    && dag.num_nodes() as u64 <= v.miss_bound,
                "{family}: shape too large for deterministic verdicts \
                 ({} nodes, bounds {} / {})",
                dag.num_nodes(),
                v.deviation_bound,
                v.miss_bound,
            );
            eprintln!(
                "E21 {family} P={processors}: deviations={} extra_misses={} runtime_misses={} \
                 steal_tasks={} rescued={} coverage={}",
                v.deviations,
                v.extra_misses,
                v.runtime_misses,
                trace.steal_tasks(),
                report.rescued,
                v.coverage_ok,
            );
            t.push_row(vec![
                family.to_string(),
                dag.num_nodes().to_string(),
                dag.block_space().to_string(),
                bound_family.label().to_string(),
                processors.to_string(),
                v.span.to_string(),
                v.seq_misses.to_string(),
                v.deviation_bound.to_string(),
                v.miss_bound.to_string(),
                match v.p1_exact {
                    Some(true) => "exact",
                    Some(false) => "DIVERGED",
                    None => "-",
                }
                .to_string(),
                if v.within { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    vec![t]
}
