//! The plan cache seen from outside the server: every reply — built on a
//! miss, served from a hit, or rebuilt after an eviction — equals a fresh
//! local replay; tenants share a resident plan exactly when they agree on
//! `(fork policy, cache lines)`; residency never exceeds
//! [`PLAN_BUDGET_NODES`] and the least-recently-hit plan goes first; two
//! connections racing on a cold key each get one correct completion and
//! leave one resident plan; and a warm hit's cost in allocations does not
//! depend on how large the DAG is.
//!
//! Tests drive [`ServerCore`] directly (no sockets): a [`Conn`] plays the
//! connection reader, framing requests and feeding them to
//! [`ServerCore::ingest_frame`]. Servers that arm a fault plan take the
//! seed from `WSF_FAULT_SEED` like `e2e.rs`, so the CI fault matrix runs
//! this file under injected worker kills too.

use std::sync::{Arc, Barrier, RwLock};
use std::time::{Duration, Instant};

use wsf_core::ForkPolicy;
use wsf_runtime::{fault_seed_from_env, FaultHooks, FaultPlan, FaultSpec};
use wsf_server::{
    frame_request, AdmissionMode, Completion, ConnShared, FrameReader, Ingest, PlanStats,
    ServerConfig, ServerCore, TenantSpec, PLAN_BUDGET_NODES, STATUS_OK,
};
use wsf_workloads::submission::ShapeSpec;

mod common;
use common::{build, local_replay};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocs;

/// The allocation test counts every thread's allocations, so it takes this
/// lock exclusively and every other test of the file takes it shared.
static ALLOC_WINDOW: RwLock<()> = RwLock::new(());

/// A light seeded fault plan (a couple of worker kills and task panics
/// early in the run): attempts the executor takes back from the pool must
/// go through the same plans as everything else.
fn fault_hooks() -> Option<Arc<dyn FaultHooks>> {
    let seed = fault_seed_from_env()?;
    let spec = FaultSpec {
        horizon: 40,
        panics: 2,
        kills: 2,
        stall_period: 7,
        stall: Duration::from_micros(100),
        wakeup_period: 5,
        wakeup_delay: Duration::from_micros(50),
    };
    Some(Arc::new(FaultPlan::seeded(seed, &spec)))
}

fn server(tenants: Vec<TenantSpec>) -> ServerCore {
    ServerCore::new(ServerConfig {
        runtime_threads: 4,
        executors: 2,
        admission: AdmissionMode::QueueAll,
        tenants,
        fault_hooks: fault_hooks(),
    })
}

/// The connection-reader role: frames one submission at a time and waits
/// for its completion.
struct Conn {
    ingest: Ingest,
    shared: Arc<ConnShared>,
    reader: FrameReader,
    bytes: Vec<u8>,
    drained: Vec<Completion>,
    next_id: u64,
}

impl Conn {
    fn new(core: &ServerCore) -> Conn {
        let (ingest, shared) = core.connection();
        Conn {
            ingest,
            shared,
            reader: FrameReader::new(),
            bytes: Vec::new(),
            drained: Vec::new(),
            next_id: 0,
        }
    }

    /// Submits `spec` for `tenant` and returns its `(misses, deviations)`,
    /// asserting exactly one `STATUS_OK` completion with the right id.
    fn round_trip(&mut self, core: &ServerCore, tenant: usize, spec: ShapeSpec) -> (u64, u64) {
        self.next_id += 1;
        frame_request(tenant as u64, &[(self.next_id, spec)], &mut self.bytes);
        self.send_framed(core);
        self.await_one(self.next_id)
    }

    fn send_framed(&mut self, core: &ServerCore) {
        self.reader.push_bytes(&self.bytes);
        while self.reader.poll_frame().expect("well-formed frame") {
            core.ingest_frame(&mut self.ingest, &self.shared, self.reader.words())
                .expect("ingest");
        }
    }

    fn await_one(&mut self, id: u64) -> (u64, u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        self.drained.clear();
        while self.drained.is_empty() {
            assert!(Instant::now() < deadline, "request {id} timed out");
            self.shared
                .drain_completions(&mut self.drained, Duration::from_millis(50));
        }
        assert_eq!(self.drained.len(), 1, "one completion per submission");
        let c = self.drained[0];
        assert_eq!((c.request_id, c.status), (id, STATUS_OK));
        (c.misses, c.deviations)
    }
}

fn nodes(spec: ShapeSpec) -> u64 {
    build(spec).num_nodes() as u64
}

fn shutdown_clean(core: ServerCore) -> PlanStats {
    let report = core.shutdown(Duration::from_secs(10));
    assert!(report.drained);
    assert_eq!(report.detached_executors, 0);
    report.plan
}

#[test]
fn miss_hit_and_replay_agree_and_plans_are_shared_per_machine() {
    let _shared = ALLOC_WINDOW.read().unwrap();
    // Four tenants that differ only in seed share a machine; one with a
    // smaller cache and one forking parent-first each need their own
    // sequential baseline.
    let mut tenants: Vec<TenantSpec> = (1..=4).map(TenantSpec::default_with_seed).collect();
    tenants.push(TenantSpec {
        cache_lines: 32,
        ..TenantSpec::default_with_seed(5)
    });
    tenants.push(TenantSpec {
        fork_policy: ForkPolicy::ParentFirst,
        ..TenantSpec::default_with_seed(6)
    });
    let core = server(tenants.clone());
    let mut conn = Conn::new(&core);

    let shapes = ShapeSpec::smoke_mix();
    for (t, tenant) in tenants.iter().enumerate() {
        for &spec in &shapes {
            let first = conn.round_trip(&core, t, spec);
            let second = conn.round_trip(&core, t, spec);
            let replay = local_replay(tenant, spec);
            assert_eq!(first, replay, "tenant {t} {spec:?}: first reply");
            assert_eq!(second, replay, "tenant {t} {spec:?}: second reply");
        }
    }

    // One connection, one request in flight: no racing builds, so the
    // counts are exact — three machines × three shapes built once each.
    let machines = 3u64;
    let requests = (tenants.len() * shapes.len() * 2) as u64;
    let want = PlanStats {
        hits: requests - machines * shapes.len() as u64,
        misses: machines * shapes.len() as u64,
        evictions: 0,
        resident_nodes: machines * shapes.iter().map(|&s| nodes(s)).sum::<u64>(),
        resident_plans: machines * shapes.len() as u64,
    };
    assert_eq!(core.plan_stats(), want);
    assert_eq!(shutdown_clean(core), want, "the report carries the same");
}

/// `(misses, deviations)` of the default tenants (seeds 1–4, in order) on
/// the smoke mix and on `serve_medium`'s three shapes, recorded while every
/// served C = 64 cache still ran on the scan representation. Absolute, unlike
/// the replay comparisons above: a change that moved the server and the
/// local replay alike would pass those and fail this. Listed by ascending
/// block space, so each worker's reused scratch sees growing spaces.
const SERVED: [(ShapeSpec, [(u64, u64); 4]); 6] = [
    (
        ShapeSpec::Stencil {
            rows: 8,
            width: 16,
            steps: 4,
        },
        [(204, 12), (236, 14), (204, 12), (172, 11)],
    ),
    (
        ShapeSpec::Mergesort { leaves: 32 },
        [(192, 4), (192, 3), (192, 3), (192, 3)],
    ),
    (
        ShapeSpec::Pipeline {
            stages: 4,
            items: 16,
            window: 4,
            work: 2,
        },
        [(212, 28); 4],
    ),
    (
        ShapeSpec::Stencil {
            rows: 16,
            width: 64,
            steps: 8,
        },
        [(7_992, 30), (7_928, 30), (7_928, 30), (7_928, 28)],
    ),
    (
        ShapeSpec::Mergesort { leaves: 512 },
        [(5_120, 4), (5_120, 3), (5_120, 3), (5_120, 3)],
    ),
    (
        ShapeSpec::Pipeline {
            stages: 8,
            items: 256,
            window: 8,
            work: 4,
        },
        [(10_528, 480); 4],
    ),
];

#[test]
fn served_outputs_equal_the_recorded_constants() {
    let _shared = ALLOC_WINDOW.read().unwrap();
    let core = server((1..=4).map(TenantSpec::default_with_seed).collect());
    let mut conn = Conn::new(&core);
    let mut last_space = 0;
    for (spec, want) in SERVED {
        let space = build(spec).block_space();
        assert!(space > last_space, "{spec:?}: spaces ascend");
        last_space = space;
        for (t, &want) in want.iter().enumerate() {
            let got = conn.round_trip(&core, t, spec);
            assert_eq!(got, want, "tenant seed {} {spec:?}", t + 1);
        }
    }
    shutdown_clean(core);
}

#[test]
fn residency_stays_within_budget_and_evicts_least_recently_hit() {
    let _shared = ALLOC_WINDOW.read().unwrap();
    // Four shapes of 0.5–0.7 M nodes: any three fit the budget, all four
    // do not.
    let a = ShapeSpec::Pipeline {
        stages: 16,
        items: 4096,
        window: 16,
        work: 8,
    };
    let b = ShapeSpec::Stencil {
        rows: 64,
        width: 256,
        steps: 36,
    };
    let c = ShapeSpec::Stencil {
        rows: 32,
        width: 128,
        steps: 128,
    };
    let d = ShapeSpec::Stencil {
        rows: 64,
        width: 256,
        steps: 32,
    };
    let shapes = [a, b, c, d];
    let [na, nb, nc, nd] = shapes.map(nodes);
    assert!(na + nb + nc <= PLAN_BUDGET_NODES);
    assert!(na + nc + nd + nb.min(nc) > PLAN_BUDGET_NODES);

    let tenant = TenantSpec::default_with_seed(9);
    let truth = shapes.map(|s| local_replay(&tenant, s));
    let core = server(vec![tenant]);
    let mut conn = Conn::new(&core);
    let mut request = |spec: ShapeSpec, want_miss: bool, what: &str| {
        let before = core.plan_stats();
        let got = conn.round_trip(&core, 0, spec);
        let i = shapes.iter().position(|&s| s == spec).expect("one of four");
        assert_eq!(got, truth[i], "{what}: replay-exact");
        let after = core.plan_stats();
        assert!(after.resident_nodes <= PLAN_BUDGET_NODES, "{what}");
        assert_eq!(after.misses - before.misses, want_miss as u64, "{what}");
        assert_eq!(after.hits - before.hits, !want_miss as u64, "{what}");
        after
    };

    request(a, true, "a cold");
    request(b, true, "b cold");
    let s = request(c, true, "c cold");
    assert_eq!((s.resident_plans, s.evictions), (3, 0));
    assert_eq!(s.resident_nodes, na + nb + nc);

    request(a, false, "a again"); // b is now the least recently hit
    let s = request(d, true, "d cold");
    assert_eq!((s.resident_plans, s.evictions), (3, 1));
    assert_eq!(s.resident_nodes, na + nc + nd, "b was evicted");

    request(a, false, "a survived");
    request(c, false, "c survived");
    let s = request(b, true, "b again, after its eviction");
    assert_eq!((s.resident_plans, s.evictions), (3, 2));
    assert_eq!(s.resident_nodes, na + nc + nb, "d went this time");
    shutdown_clean(core);
}

#[test]
fn two_connections_racing_on_a_cold_key_leave_one_plan() {
    let _shared = ALLOC_WINDOW.read().unwrap();
    const ROUNDS: u32 = 40;
    let tenants = [
        TenantSpec::default_with_seed(1),
        TenantSpec::default_with_seed(2),
    ];
    let core = server(tenants.to_vec());
    let barrier = Barrier::new(2);

    std::thread::scope(|scope| {
        let racers: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                let (core, barrier) = (&core, &barrier);
                scope.spawn(move || {
                    let mut conn = Conn::new(core);
                    for round in 0..ROUNDS {
                        // A key nobody has asked for yet.
                        let spec = ShapeSpec::Stencil {
                            rows: 8,
                            width: 16 + round,
                            steps: 4,
                        };
                        let before = core.plan_stats();
                        barrier.wait(); // both read `before`; the key is cold
                        let got = conn.round_trip(core, t, spec);
                        assert_eq!(got, local_replay(tenant, spec), "round {round}");
                        barrier.wait(); // both completions are in
                        let after = core.plan_stats();
                        assert_eq!(
                            after.resident_plans - before.resident_plans,
                            1,
                            "round {round}: one resident plan for the key"
                        );
                        let built = after.misses - before.misses;
                        assert!((1..=2).contains(&built), "round {round}: built {built}×");
                        assert_eq!(after.hits - before.hits, 2 - built, "round {round}");
                        barrier.wait(); // nobody starts the next round early
                    }
                })
            })
            .collect();
        for r in racers {
            r.join().expect("racer");
        }
    });

    let s = shutdown_clean(core);
    assert_eq!(s.resident_plans, ROUNDS as u64);
    assert_eq!(s.hits + s.misses, 2 * ROUNDS as u64, "one execution each");
}

#[test]
fn serve_medium_traffic_runs_on_hits() {
    let _shared = ALLOC_WINDOW.read().unwrap();
    // The benchmark's `serve_medium`: three ~9 k-node shapes, the four
    // default tenants, two closed-loop connections.
    let shapes = [
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
    const REQUESTS: usize = 1_000;
    let tenants: Vec<TenantSpec> = (1..=4).map(TenantSpec::default_with_seed).collect();
    let core = server(tenants.clone());

    std::thread::scope(|scope| {
        for c in 0..2usize {
            let (core, tenants) = (&core, &tenants);
            scope.spawn(move || {
                let mut conn = Conn::new(core);
                for i in (c..REQUESTS).step_by(2) {
                    let (t, spec) = (i % tenants.len(), shapes[i / 4 % shapes.len()]);
                    let got = conn.round_trip(core, t, spec);
                    if i < 24 {
                        assert_eq!(got, local_replay(&tenants[t], spec), "request {i}");
                    }
                }
            });
        }
    });

    let s = shutdown_clean(core);
    assert_eq!(s.hits + s.misses, REQUESTS as u64);
    assert_eq!(s.resident_plans, 3, "tenants share one plan per shape");
    assert!(
        s.misses <= 6,
        "a racing double build per key at most: {s:?}"
    );
    assert!(s.hits as f64 / REQUESTS as f64 >= 0.99, "{s:?}");
    assert_eq!(s.evictions, 0);
}

#[test]
fn a_warm_hit_allocates_independently_of_dag_size() {
    let _exclusive = ALLOC_WINDOW.write().unwrap();
    // No fault plan here, so nothing is offered to the pool: the executor
    // runs every round on its own thread.
    let core = ServerCore::new(ServerConfig {
        runtime_threads: 1,
        executors: 1,
        admission: AdmissionMode::QueueAll,
        tenants: vec![TenantSpec::default_with_seed(3)],
        fault_hooks: None,
    });
    let mut conn = Conn::new(&core);
    let small = ShapeSpec::Mergesort { leaves: 32 };
    let large = ShapeSpec::Mergesort { leaves: 512 };
    assert!(nodes(large) > 10 * nodes(small));

    // Process-wide allocations of one whole round trip: the reader role on
    // this thread, the executor's future, the worker's simulation.
    let mut round = |spec: ShapeSpec| -> u64 {
        conn.next_id += 1;
        frame_request(0, &[(conn.next_id, spec)], &mut conn.bytes);
        let before = process_allocs();
        conn.send_framed(&core);
        conn.await_one(conn.next_id);
        process_allocs() - before
    };

    // Warm both plans, the worker's scratch (sized by the larger DAG), the
    // injector's queue and the completion queue.
    for _ in 0..200 {
        round(large);
        round(small);
    }
    // The steady-state cost of a round is its most frequent count (a rare
    // round pays for a timed-out wait or a parked thread's wake-up).
    let mut steady = |spec: ShapeSpec| -> u64 {
        let mut counts: Vec<u64> = (0..100).map(|_| round(spec)).collect();
        counts.sort_unstable();
        counts[counts.len() / 2]
    };
    let (small_allocs, large_allocs) = (steady(small), steady(large));
    assert_eq!(
        small_allocs,
        large_allocs,
        "a warm hit on {} nodes and on {} nodes must allocate the same",
        nodes(small),
        nodes(large)
    );
    assert!(small_allocs > 0, "the counter sees the pool's threads");

    let s = shutdown_clean(core);
    assert_eq!((s.misses, s.resident_plans), (2, 2), "everything else hit");
}
