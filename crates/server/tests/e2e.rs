//! End-to-end server tests over real sockets: round-trip correctness
//! against a local replay over TCP and over a Unix domain socket, in-frame
//! load shedding at the tenant budget, a burst on one connection paced by
//! the reader instead of shed, graceful shutdown with a hung client
//! attached, and exactly-once completion delivery under injected worker
//! kills, including requests that arrive as the last worker dies.
//!
//! The fault seed is taken from `WSF_FAULT_SEED` when set (the CI
//! fault-matrix job sweeps it), so a failure reproduces by exporting the
//! printed seed. Tests that arm no fault plan ignore it and must pass in
//! every leg of that matrix.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsf_runtime::{fault_seed_from_env, FaultPlan, FaultSpec};
use wsf_server::{
    AdmissionMode, BenchClient, Completion, Server, ServerConfig, TenantSpec, STATUS_OK,
    STATUS_SHED,
};
use wsf_workloads::submission::ShapeSpec;

mod common;
use common::local_replay;

fn two_tenant_config() -> ServerConfig {
    ServerConfig {
        runtime_threads: 2,
        executors: 2,
        admission: AdmissionMode::QueueAll,
        tenants: vec![
            TenantSpec::default_with_seed(11),
            TenantSpec::default_with_seed(22),
        ],
        fault_hooks: None,
    }
}

fn collect(client: &mut BenchClient, want: usize) -> Vec<Completion> {
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while out.len() < want {
        assert!(
            Instant::now() < deadline,
            "timed out at {}/{want}",
            out.len()
        );
        client
            .recv_completions(&mut out, Duration::from_secs(5))
            .expect("recv completions");
    }
    out
}

/// Submits the smoke mix to both tenants of `two_tenant_config()`, checks
/// every completion against the local replay and the tenant reports
/// against the counts, then shuts the server down cleanly.
fn round_trip_matches_local_replay(server: Server, mut client: BenchClient) {
    let shapes = ShapeSpec::smoke_mix();
    let mut expected = Vec::new();
    for (t, tenant_seed) in [(0u64, 11u64), (1, 22)] {
        let batch: Vec<(u64, ShapeSpec)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &s)| (t * 100 + i as u64, s))
            .collect();
        client.submit_batch(t, &batch).expect("submit");
        for &(id, s) in &batch {
            expected.push((id, s, TenantSpec::default_with_seed(tenant_seed)));
        }
    }

    let completions = collect(&mut client, expected.len());
    assert_eq!(completions.len(), expected.len());
    for (id, spec, tenant) in expected {
        let c = completions
            .iter()
            .find(|c| c.request_id == id)
            .unwrap_or_else(|| panic!("no completion for request {id}"));
        assert_eq!(c.status, STATUS_OK, "request {id}");
        assert_eq!(c.footprint, spec.footprint(), "request {id} footprint");
        let (misses, deviations) = local_replay(&tenant, spec);
        assert_eq!(c.misses, misses, "request {id} misses");
        assert_eq!(c.deviations, deviations, "request {id} deviations");
    }

    for t in 0..2 {
        let r = server.core().tenant_report(t);
        assert_eq!(r.completed, 3, "tenant {t}");
        assert_eq!(r.inflight, 0, "tenant {t}");
    }
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.drained);
    assert_eq!(report.hung_workers, 0);
    assert_eq!(report.detached_executors, 0);
    // Without fault hooks the executors run every submission themselves:
    // nothing is offered to the pool, so no request waits on a worker.
    assert_eq!(report.runtime_stats.futures_created, 0, "{report:?}");
    assert_eq!(report.pool_runs, 0);
}

#[test]
fn tcp_round_trip_matches_local_replay() {
    let server = Server::bind_tcp("127.0.0.1:0", two_tenant_config()).expect("bind");
    let client = BenchClient::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    round_trip_matches_local_replay(server, client);
}

#[test]
fn uds_round_trip_matches_local_replay() {
    let dir = std::env::temp_dir().join(format!("wsf-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("server.sock");
    let server = Server::bind_uds(&path, two_tenant_config()).expect("bind");
    assert_eq!(server.uds_path(), Some(path.as_path()));
    let client = BenchClient::connect_uds(&path).expect("connect");
    round_trip_matches_local_replay(server, client);
    assert!(!path.exists(), "shutdown must unlink the socket file");
    std::fs::remove_dir(&dir).expect("temp dir is empty again");
}

#[test]
fn one_frame_over_tenant_budget_sheds_the_excess() {
    // Admission counts the frame's own staged submissions, and nothing can
    // complete before the frame's `push_batch`, so against an idle server
    // the split is exact: the first K are admitted, the rest shed.
    const K: u64 = 3;
    const N: u64 = 8;
    let config = ServerConfig {
        admission: AdmissionMode::Shed {
            max_depth: usize::MAX,
            max_tenant_inflight: K,
            max_tenant_footprint: u64::MAX,
        },
        ..two_tenant_config()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let mut client = BenchClient::connect_tcp(server.tcp_addr().unwrap()).expect("connect");

    let spec = ShapeSpec::Mergesort { leaves: 32 };
    let frame: Vec<(u64, ShapeSpec)> = (1..=N).map(|id| (id, spec)).collect();
    client.submit_batch(1, &frame).expect("submit");
    let completions = collect(&mut client, N as usize);

    let ids: BTreeSet<u64> = completions.iter().map(|c| c.request_id).collect();
    assert_eq!(ids, (1..=N).collect::<BTreeSet<u64>>(), "one reply each");
    for c in &completions {
        let want = if c.request_id <= K {
            STATUS_OK
        } else {
            STATUS_SHED
        };
        assert_eq!(c.status, want, "request {}", c.request_id);
        assert_eq!(c.footprint, spec.footprint(), "request {}", c.request_id);
    }

    let shedder = server.core().tenant_report(1);
    assert_eq!((shedder.completed, shedder.shed), (K, N - K));
    assert_eq!(shedder.inflight, 0);
    let idle = server.core().tenant_report(0);
    assert_eq!(
        (idle.completed, idle.shed),
        (0, 0),
        "budgets are per tenant"
    );
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.drained);
}

#[test]
fn a_burst_on_one_connection_is_paced_not_shed() {
    // Ingest costs microseconds a frame and an execution far more, so a
    // burst of one-submission frames would be admitted whole and run into
    // the tenant budget. The reader's connection window holds it in the
    // socket instead: at the default budgets one connection never sheds.
    const N: u64 = 600;
    let config = ServerConfig {
        admission: AdmissionMode::shed_default(),
        ..two_tenant_config()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let mut client = BenchClient::connect_tcp(server.tcp_addr().unwrap()).expect("connect");

    let spec = ShapeSpec::Mergesort { leaves: 64 };
    for id in 1..=N {
        client.submit_batch(0, &[(id, spec)]).expect("submit");
    }
    let completions = collect(&mut client, N as usize);
    let ids: BTreeSet<u64> = completions.iter().map(|c| c.request_id).collect();
    assert_eq!(ids, (1..=N).collect::<BTreeSet<u64>>(), "one reply each");
    assert!(completions.iter().all(|c| c.status == STATUS_OK));

    let tenant = server.core().tenant_report(0);
    assert_eq!((tenant.completed, tenant.shed), (N, 0));
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.drained);
}

#[test]
fn hung_client_cannot_wedge_shutdown() {
    let server = Server::bind_tcp("127.0.0.1:0", two_tenant_config()).expect("bind");
    let addr = server.tcp_addr().unwrap();

    // A healthy client proves the server is live...
    let mut healthy = BenchClient::connect_tcp(addr).expect("connect healthy");
    healthy
        .submit_batch(0, &[(7, ShapeSpec::Mergesort { leaves: 16 })])
        .expect("submit");
    let done = collect(&mut healthy, 1);
    assert_eq!(done[0].status, STATUS_OK);

    // ...and a hung one sends half a frame, then goes silent forever.
    let mut hung = std::net::TcpStream::connect(addr).expect("connect hung");
    hung.write_all(&[0x03, 0, 0, 0, 0]).expect("partial frame");
    // (keep `hung` open across the shutdown)

    let started = Instant::now();
    let report = server.shutdown(Duration::from_secs(5));
    let took = started.elapsed();
    assert!(report.drained, "nothing should remain queued");
    assert!(
        took < Duration::from_secs(5),
        "shutdown took {took:?} with a hung client attached"
    );
    drop(hung);
}

#[test]
fn exactly_once_completions_under_injected_worker_kills() {
    let seed = fault_seed_from_env().unwrap_or(1);
    // Three of the four workers get killed mid-run; a few task panics and
    // injector stalls ride along. The horizon is well under the task count
    // so every drawn fault actually fires, and past the first pass so some
    // fire while the second runs.
    let spec = FaultSpec {
        horizon: 48,
        panics: 2,
        kills: 3,
        stall_period: 5,
        stall: Duration::from_micros(200),
        wakeup_period: 4,
        wakeup_delay: Duration::from_micros(100),
    };
    let plan = Arc::new(FaultPlan::seeded(seed, &spec));
    let config = ServerConfig {
        runtime_threads: 4,
        executors: 2,
        admission: AdmissionMode::QueueAll,
        tenants: vec![TenantSpec::default_with_seed(5)],
        fault_hooks: Some(plan),
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.tcp_addr().unwrap();
    let mut client = BenchClient::connect_tcp(addr).expect("connect");

    // The mix goes through twice: the first pass builds the three plans
    // (every later request hits them), the second runs on hits alone.
    let shapes = ShapeSpec::smoke_mix();
    const PASS: u64 = 40;
    const TOTAL: u64 = 2 * PASS;
    let mut completions = Vec::new();
    let mut sent = 0u64;
    for pass in 1..=2 {
        let built_before = server.core().plan_stats().misses;
        while sent < pass * PASS {
            let batch: Vec<(u64, ShapeSpec)> = (0..8)
                .map(|i| {
                    let id = sent + i + 1;
                    (id, shapes[id as usize % shapes.len()])
                })
                .collect();
            client.submit_batch(0, &batch).expect("submit");
            sent += batch.len() as u64;
        }
        completions.extend(collect(&mut client, PASS as usize));
        if pass == 2 {
            let built = server.core().plan_stats().misses - built_before;
            assert_eq!(built, 0, "second pass built a plan under seed {seed}");
        }
    }
    let ids: BTreeSet<u64> = completions.iter().map(|c| c.request_id).collect();
    assert_eq!(
        ids.len(),
        completions.len(),
        "duplicate completions under seed {seed}"
    );
    assert_eq!(
        ids,
        (1..=TOTAL).collect::<BTreeSet<u64>>(),
        "lost completions under seed {seed}"
    );
    // Every submission must still succeed: the executor runs each attempt
    // no worker claimed, against the same shared plans, and runs every
    // attempt once the pool is gone.
    for c in &completions {
        assert_eq!(
            c.status, STATUS_OK,
            "request {} under seed {seed}",
            c.request_id
        );
    }
    // Simulation results stay deterministic on whichever thread ran them,
    // from a plan built by another request (both passes are checked).
    let tenant = TenantSpec::default_with_seed(5);
    let checked = completions.iter().take(6);
    for c in checked.chain(completions.iter().skip(PASS as usize).take(6)) {
        let spec = shapes[c.request_id as usize % shapes.len()];
        let (misses, deviations) = local_replay(&tenant, spec);
        assert_eq!(
            c.misses, misses,
            "request {} under seed {seed}",
            c.request_id
        );
        assert_eq!(
            c.deviations, deviations,
            "request {} under seed {seed}",
            c.request_id
        );
    }

    let report = server.shutdown(Duration::from_secs(10));
    assert!(
        report.drained,
        "drain must survive worker deaths (seed {seed})"
    );
    // Faults fire before a task's body, so each submission resolved its
    // plan exactly once, on a worker or on its executor.
    assert_eq!(report.plan.hits + report.plan.misses, TOTAL);
    assert_eq!(report.plan.resident_plans, shapes.len() as u64);
    assert!(report.pool_runs <= TOTAL, "seed {seed}: {report:?}");
    println!(
        "seed {seed}: pool workers ran {} attempts of {TOTAL} requests",
        report.pool_runs
    );
}

#[test]
fn no_request_strands_behind_the_last_workers_death() {
    let seed = fault_seed_from_env().unwrap_or(1);
    // Both workers die within the first four dequeued tasks, so attempts
    // are offered to a pool whose last worker is dying or dead. An attempt
    // whose body never started is never claimed by a worker, so its
    // executor runs it instead of waiting on a task nobody will dequeue.
    let spec = FaultSpec {
        horizon: 4,
        panics: 0,
        kills: 2,
        stall_period: 0,
        stall: Duration::ZERO,
        wakeup_period: 0,
        wakeup_delay: Duration::ZERO,
    };
    let plan = Arc::new(FaultPlan::seeded(seed, &spec));
    let config = ServerConfig {
        runtime_threads: 2,
        executors: 2,
        admission: AdmissionMode::QueueAll,
        tenants: vec![TenantSpec::default_with_seed(5)],
        fault_hooks: Some(Arc::clone(&plan) as _),
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let mut client = BenchClient::connect_tcp(server.tcp_addr().unwrap()).expect("connect");

    // Frames of four until the pool is gone, then as many again with no
    // worker left; `collect` fails the test if any reply misses its deadline.
    const FRAME: u64 = 4;
    let shapes = ShapeSpec::smoke_mix();
    let mut completions = Vec::new();
    let mut frame = |completions: &mut Vec<Completion>| {
        let first = completions.len() as u64 + 1;
        let batch: Vec<(u64, ShapeSpec)> = (first..first + FRAME)
            .map(|id| (id, shapes[id as usize % shapes.len()]))
            .collect();
        client.submit_batch(0, &batch).expect("submit");
        completions.extend(collect(&mut client, FRAME as usize));
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.core().live_workers() > 0 {
        assert!(
            Instant::now() < deadline,
            "a worker outlived its kill under seed {seed}"
        );
        frame(&mut completions);
    }
    let frames_to_die = completions.len() as u64 / FRAME;
    for _ in 0..frames_to_die.max(4) {
        frame(&mut completions);
    }
    let total = completions.len() as u64;

    let ids: BTreeSet<u64> = completions.iter().map(|c| c.request_id).collect();
    assert_eq!(
        ids,
        (1..=total).collect::<BTreeSet<u64>>(),
        "lost or duplicate completions under seed {seed}"
    );
    for c in &completions {
        assert_eq!(
            c.status, STATUS_OK,
            "request {} under seed {seed}",
            c.request_id
        );
    }
    assert_eq!(plan.fired_kills(), 2, "seed {seed}");
    assert_eq!(server.core().live_workers(), 0, "seed {seed}");

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.drained, "seed {seed}");
    assert_eq!(report.plan.hits + report.plan.misses, total, "seed {seed}");
    // No worker is left to claim an attempt offered after the pool died.
    assert!(
        report.pool_runs <= frames_to_die * FRAME,
        "seed {seed}: {report:?}"
    );
    println!(
        "seed {seed}: pool workers ran {} attempts of {total} requests",
        report.pool_runs
    );
}
