//! The only file of the benchmark that names the repository's crates.
//!
//! Everything else reaches the system under test through the items below, so
//! a later PR that moves or renames an API edits this file and nothing else,
//! and the README's "pinned API surface" is the `use` list that follows.
//! Functions here do one unit of repository work each and take no
//! measurements: timing, statistics and checking live in the callers.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wsf_analysis::{registry, set_threads, Scale};
use wsf_cache::{Cache, LruCache, StackDistanceSim};
use wsf_core::{
    ParallelSimulator, PolicyScheduler, RandomScheduler, SeqReport, SimConfig, SimScratch,
};
use wsf_dag::{Dag, DagBuilder};
use wsf_deque::{deque, Injector};
use wsf_runtime::{Runtime, RuntimeStats, TouchEvent};
use wsf_server::{
    AdmissionMode, Completion, ConnShared, Ingest, Server, ServerConfig, ServerCore, TenantSpec,
};
use wsf_workloads::dag_exec::run_dag_on_pool;
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::submission::ShapeScratch;

pub use wsf_core::ForkPolicy;
use wsf_server::protocol::parse_request_header;
pub use wsf_server::protocol::{
    frame_request, parse_response_header, FrameReader, COMPLETION_WORDS, STATUS_OK, STATUS_SHED,
};
pub use wsf_workloads::submission::ShapeSpec;

// ---------------------------------------------------------------- serving

/// Tenants of every served workload: `TenantSpec::default_with_seed(1..=4)`.
pub const TENANTS: usize = 4;
/// Word offset of the shape in a one-submission request frame
/// (`[magic, version, tenant, count, request_id, shape...]`).
const SHAPE_OFFSET: usize = 5;

fn tenant_spec(tenant: usize) -> TenantSpec {
    TenantSpec::default_with_seed(tenant as u64 + 1)
}

/// `serve_open4` runs with shedding armed at the repository's default
/// budgets; the closed loops queue everything.
fn admission(shed: bool) -> AdmissionMode {
    if shed {
        AdmissionMode::shed_default()
    } else {
        AdmissionMode::QueueAll
    }
}

/// The server under test is always sized for this 2-core box: 2 runtime
/// workers, 2 executors, 4 tenants.
fn server_config(shed: bool) -> ServerConfig {
    ServerConfig {
        runtime_threads: 2,
        executors: 2,
        admission: admission(shed),
        tenants: (0..TENANTS).map(tenant_spec).collect(),
        fault_hooks: None,
    }
}

/// Pool counters in plain numbers (a copy of the `RuntimeStats` fields the
/// benchmark reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounters {
    pub tasks: u64,
    pub steals: u64,
    pub failed_steals: u64,
    pub wakeups: u64,
    pub inline_runs: u64,
    pub futures: u64,
}

impl From<RuntimeStats> for PoolCounters {
    fn from(s: RuntimeStats) -> Self {
        PoolCounters {
            tasks: s.tasks_executed,
            steals: s.steals,
            failed_steals: s.failed_steals,
            wakeups: s.wakeups,
            inline_runs: s.inline_runs,
            futures: s.futures_created,
        }
    }
}

/// A served instance on TCP loopback (`TCP_NODELAY` is set by the listener).
pub struct TcpServer(Server);

impl TcpServer {
    pub fn start(shed: bool) -> std::io::Result<TcpServer> {
        Server::bind_tcp("127.0.0.1:0", server_config(shed)).map(TcpServer)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.tcp_addr().expect("bound over TCP")
    }

    /// Submissions queued or executing (`ServerCore::queued`).
    pub fn queued(&self) -> usize {
        self.0.core().queued()
    }

    /// `(completed, shed, failed)` summed over the tenant table.
    pub fn tenant_totals(&self) -> (u64, u64, u64) {
        (0..self.0.core().num_tenants())
            .map(|t| self.0.core().tenant_report(t))
            .fold((0, 0, 0), |acc, r| {
                (acc.0 + r.completed, acc.1 + r.shed, acc.2 + r.failed)
            })
    }

    /// Drains and stops the server; `Err` when it did not stop cleanly.
    pub fn shutdown(self) -> Result<PoolCounters, String> {
        let report = self.0.shutdown(Duration::from_secs(5));
        if !report.drained || report.detached_executors > 0 || report.hung_workers > 0 {
            return Err(format!("unclean server shutdown: {report:?}"));
        }
        Ok(report.runtime_stats.into())
    }
}

/// What a completion of `(tenant, shape)` must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub misses: u64,
    pub deviations: u64,
    pub footprint: u64,
}

/// Local replay of one submission, step for step what the server's executor
/// does: tenant machine, sequential baseline, tenant steal policy.
pub fn expected(tenant: usize, shape: ShapeSpec) -> Expected {
    let spec = tenant_spec(tenant);
    let dag = shape.build_into(&mut DagBuilder::new(), &mut ShapeScratch::new());
    let sim = ParallelSimulator::new(spec.sim_config());
    let seq = sim.sequential(&dag);
    let report = sim.run_against(&dag, &seq, &mut PolicyScheduler::new(spec.policy), false);
    Expected {
        misses: report.cache_misses(),
        deviations: report.deviations(),
        footprint: shape.footprint(),
    }
}

/// The stages of one served request, callable one at a time on an idle
/// machine so the caller can put a span around each.
pub struct Shadow {
    shed: bool,
    reader: FrameReader,
    builder: DagBuilder,
    scratch: ShapeScratch,
    dag: Option<Dag>,
    injector: Injector<Dag>,
    seq: Option<SeqReport>,
    rt: Runtime,
    core: ServerCore,
    ingest: Ingest,
    conn: Arc<ConnShared>,
    completions: Vec<Completion>,
}

impl Shadow {
    pub fn new(shed: bool) -> Shadow {
        let core = ServerCore::new(server_config(shed));
        let (ingest, conn) = core.connection();
        Shadow {
            shed,
            reader: FrameReader::new(),
            builder: DagBuilder::new(),
            scratch: ShapeScratch::new(),
            dag: None,
            injector: Injector::new(),
            seq: None,
            rt: Runtime::new(2),
            core,
            ingest,
            conn,
            completions: Vec::new(),
        }
    }

    /// `FrameReader::push_bytes` + `poll_frame` + `parse_request_header`.
    pub fn decode_frame(&mut self, bytes: &[u8]) -> (u64, u64) {
        self.reader.push_bytes(bytes);
        assert!(
            self.reader.poll_frame().expect("own frame decodes"),
            "whole frame pushed"
        );
        parse_request_header(self.reader.words()).expect("own header parses")
    }

    /// `ShapeSpec::decode` of the frame last decoded.
    pub fn decode_shape(&self) -> ShapeSpec {
        ShapeSpec::decode(&self.reader.words()[SHAPE_OFFSET..])
            .expect("own shape decodes")
            .0
    }

    /// `AdmissionMode::admit` against an idle server.
    pub fn admit(&self, footprint: u64) -> bool {
        admission(self.shed).admit(0, 0, 0, footprint)
    }

    /// `build_into` on the recycled builder; returns the node count.
    pub fn build(&mut self, shape: ShapeSpec) -> usize {
        match self.dag.take() {
            Some(spent) => self.builder.recycle(spent),
            None => self.builder.reset(),
        }
        let dag = shape.build_into(&mut self.builder, &mut self.scratch);
        let nodes = dag.num_nodes();
        self.dag = Some(dag);
        nodes
    }

    pub fn injector_push_batch(&mut self) {
        self.injector.push_batch(self.dag.take());
    }

    pub fn injector_steal(&mut self) {
        self.dag = self.injector.steal();
        assert!(self.dag.is_some(), "the DAG just pushed is stealable");
    }

    /// `defer_future` from this (external) thread until the value is ready:
    /// injector hand-off, worker wake-up, completion signal.
    pub fn dispatch(&self) {
        self.rt.defer_future(|| ()).touch();
    }

    /// `ParallelSimulator::sequential` of the built DAG on the tenant's
    /// machine (the baseline the parallel run is measured against).
    pub fn sim_sequential(&mut self, tenant: usize) {
        let dag = self.dag.as_ref().expect("build ran first");
        self.seq = Some(ParallelSimulator::new(tenant_spec(tenant).sim_config()).sequential(dag));
    }

    /// The parallel simulation under the tenant's steal policy.
    pub fn sim_parallel(&mut self, tenant: usize, shape: ShapeSpec) -> Expected {
        let spec = tenant_spec(tenant);
        let dag = self.dag.as_ref().expect("build ran first");
        let seq = self.seq.as_ref().expect("sim_sequential ran first");
        let report = ParallelSimulator::new(spec.sim_config()).run_against(
            dag,
            seq,
            &mut PolicyScheduler::new(spec.policy),
            false,
        );
        Expected {
            misses: report.cache_misses(),
            deviations: report.deviations(),
            footprint: shape.footprint(),
        }
    }

    /// `ServerCore::ingest_frame` of the frame last decoded, then
    /// `ConnShared::drain_completions` until its completion arrives. No
    /// socket is involved.
    pub fn core_round_trip(&mut self) -> (u64, u64, Expected) {
        self.core
            .ingest_frame(&mut self.ingest, &self.conn, self.reader.words())
            .expect("own frame ingests");
        self.completions.clear();
        while self.completions.is_empty() {
            self.conn
                .drain_completions(&mut self.completions, Duration::from_millis(100));
        }
        let c = self.completions[0];
        (
            c.request_id,
            c.status,
            Expected {
                misses: c.misses,
                deviations: c.deviations,
                footprint: c.footprint,
            },
        )
    }

    pub fn shutdown(self) -> Result<(), String> {
        let report = self.core.shutdown(Duration::from_secs(5));
        self.rt
            .shutdown_timeout(Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        if report.drained && report.hung_workers == 0 {
            Ok(())
        } else {
            Err(format!("unclean core shutdown: {report:?}"))
        }
    }
}

// ----------------------------------------------------------------- tables

/// Experiments whose tables are deterministic and whose grid is stable:
/// `e10/e18/e20/e21` carry wall-clock columns of the real pool, and `e19`'s
/// grid is about to shrink (ROADMAP code diet).
const TABLE_IDS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13", "e14", "e15", "e16",
    "e17",
];

pub fn set_analysis_threads(threads: usize) {
    set_threads(threads);
}

/// One runner per selected experiment: regenerates its tables at
/// `Scale::Full` and renders them.
pub fn table_runners() -> Vec<(&'static str, impl Fn() -> String)> {
    let runners: Vec<_> = registry()
        .into_iter()
        .filter(|(id, _, _)| TABLE_IDS.contains(id))
        .map(|(id, _, run)| {
            (id, move || {
                run(Scale::Full)
                    .iter()
                    .map(|t| t.render())
                    .collect::<String>()
            })
        })
        .collect();
    assert_eq!(
        runners.len(),
        TABLE_IDS.len(),
        "registry lost an experiment"
    );
    runners
}

// ------------------------------------------------------------------- pool

/// A DAG shared with the pool's tasks.
pub struct PoolDag(Arc<Dag>);

impl PoolDag {
    pub fn build(shape: ShapeSpec) -> PoolDag {
        PoolDag(Arc::new(
            shape.build_into(&mut DagBuilder::new(), &mut ShapeScratch::new()),
        ))
    }

    pub fn nodes(&self) -> usize {
        self.0.num_nodes()
    }
}

/// `DagRunReport` in plain numbers.
#[derive(Clone, Copy, Debug)]
pub struct DagRun {
    pub nodes_executed: usize,
    pub rescued: usize,
    pub rescue_rounds: usize,
    pub direct_runs: usize,
}

pub struct Pool(Arc<Runtime>);

impl Pool {
    /// A `threads`-worker runtime; `trace_capacity` turns on the runtime's
    /// touch trace with that many events reserved per lane.
    pub fn new(threads: usize, trace_capacity: Option<usize>) -> Pool {
        let mut b = Runtime::builder().threads(threads);
        if let Some(capacity) = trace_capacity {
            b = b.touch_trace(capacity);
        }
        Pool(Arc::new(b.build()))
    }

    /// `dag_exec::run_dag_on_pool`; `Err` when it panicked.
    pub fn run(&self, dag: &PoolDag, policy: ForkPolicy) -> Result<DagRun, String> {
        let (rt, dag) = (&self.0, &dag.0);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_dag_on_pool(rt, dag, policy)
        }))
        .map(|r| DagRun {
            nodes_executed: r.nodes_executed,
            rescued: r.rescued,
            rescue_rounds: r.rescue_rounds,
            direct_runs: r.direct_runs,
        })
        .map_err(|_| "run_dag_on_pool panicked".to_owned())
    }

    pub fn counters(&self) -> PoolCounters {
        self.0.stats().into()
    }

    /// Tasks executed per worker.
    pub fn worker_tasks(&self) -> Vec<u64> {
        self.0
            .worker_stats()
            .iter()
            .map(|w| w.tasks_executed)
            .collect()
    }

    /// Checks the touch trace of the run just finished: every node of `dag`
    /// recorded exactly once, nothing dropped. Clears the trace.
    pub fn check_exactly_once(&self, dag: &PoolDag) -> Result<(), String> {
        let trace = self
            .0
            .touch_trace()
            .ok_or("pool was built without a trace")?;
        if trace.dropped() > 0 {
            return Err(format!("touch trace dropped {} events", trace.dropped()));
        }
        let mut seen = vec![0u8; dag.nodes()];
        for lane in 0..trace.lanes() {
            for event in trace.events(lane) {
                if let TouchEvent::Node { node, .. } = event {
                    let slot = seen
                        .get_mut(node as usize)
                        .ok_or(format!("node {node} is not in the DAG"))?;
                    *slot = slot.saturating_add(1);
                }
            }
        }
        trace.clear();
        match seen.iter().position(|&n| n != 1) {
            None => Ok(()),
            Some(node) => Err(format!("node {node} executed {} times", seen[node])),
        }
    }

    /// `n` times `defer_future` + `touch` from inside a pool task: push on
    /// the worker's own deque, pop it back while helping in the touch.
    pub fn spawn_touch(&self, n: usize) -> u64 {
        let rt = Arc::clone(&self.0);
        self.0
            .defer_future(move || {
                (0..n as u64)
                    .map(|i| rt.defer_future(move || i).touch())
                    .sum()
            })
            .touch()
    }

    /// `n` times `Runtime::join` of two trivial closures from inside a task.
    pub fn join(&self, n: usize) -> u64 {
        let rt = Arc::clone(&self.0);
        self.0
            .defer_future(move || {
                (0..n as u64)
                    .map(|i| {
                        let (a, b) = rt.join(move || i, move || 1u64);
                        a + b
                    })
                    .sum()
            })
            .touch()
    }

    pub fn shutdown(self) -> Result<(), String> {
        // The last chain tasks of a DAG run may still hold their handle on
        // the runtime for a moment after the run reports completion.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut rt = self.0;
        loop {
            match Arc::try_unwrap(rt) {
                Ok(rt) => {
                    return rt
                        .shutdown_timeout(Duration::from_secs(5))
                        .map(drop)
                        .map_err(|e| e.to_string())
                }
                Err(_) if std::time::Instant::now() >= deadline => {
                    return Err("pool still referenced by a task at shutdown".to_owned())
                }
                Err(shared) => {
                    rt = shared;
                    std::thread::yield_now();
                }
            }
        }
    }
}

// ----------------------------------------------------------- layer probes

/// `bench_json`'s simulator protocol, kept for continuity with
/// `BENCH_simulator.json`: `random_single_touch`, 100 k nodes, seed 7,
/// 256 blocks, P = 8, C = 16, random stealing.
pub struct SimProbe {
    dag: Dag,
    sim: ParallelSimulator,
    scratch: SimScratch,
}

const SIM_PROBE: RandomConfig = RandomConfig {
    target_nodes: 100_000,
    fork_probability: 0.25,
    max_depth: 8,
    blocks: 256,
    access_probability: 0.8,
    seed: 7,
};

impl SimProbe {
    /// Builds the probe DAG (`DagBuilder` is the layer under test here).
    pub fn build() -> SimProbe {
        let config = SimConfig {
            processors: 8,
            cache_lines: 16,
            ..SimConfig::default()
        };
        SimProbe {
            dag: random_single_touch(&SIM_PROBE),
            sim: ParallelSimulator::new(config),
            scratch: SimScratch::new(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.dag.num_nodes()
    }

    /// One parallel simulation; returns the makespan in simulated steps.
    pub fn run(&mut self) -> u64 {
        let seq = self.sim.sequential(&self.dag);
        let mut sched = RandomScheduler::new(self.sim.config().seed);
        let report =
            self.sim
                .run_with_scratch(&self.dag, &seq, &mut sched, false, &mut self.scratch);
        assert!(report.completed, "probe simulation ran out of steps");
        report.makespan
    }
}

/// Xorshift trace over `2 * capacity` blocks: against a full cache about half
/// the accesses hit (the protocol of `wsf_bench::cache_bench`).
fn cache_trace(capacity: usize, len: usize) -> Vec<u32> {
    let space = 2 * capacity as u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % space) as u32
        })
        .collect()
}

/// A warm (full) LRU cache and the trace to drive through it.
pub struct CacheProbe {
    cache: LruCache,
    trace: Vec<u32>,
}

impl CacheProbe {
    fn warmed(mut cache: LruCache, len: usize) -> CacheProbe {
        for b in 0..cache.capacity() as u32 {
            cache.access(b);
        }
        let trace = cache_trace(cache.capacity(), len);
        CacheProbe { cache, trace }
    }

    /// The O(C) scan representation the paper-sized experiments use.
    pub fn scan(capacity: usize) -> CacheProbe {
        Self::warmed(LruCache::scan(capacity), 65_536)
    }

    /// The direct-mapped indexed representation the simulators use above
    /// the scan crossover.
    pub fn dense(capacity: usize) -> CacheProbe {
        Self::warmed(LruCache::indexed_dense(capacity, 2 * capacity), 65_536)
    }

    pub fn accesses(&self) -> usize {
        self.trace.len()
    }

    pub fn run(&mut self) -> u64 {
        let cache = &mut self.cache;
        self.trace
            .iter()
            .filter(|&&b| cache.access(b).is_miss())
            .count() as u64
    }
}

/// The Mattson stack-distance profiler over the C = 1024 trace.
pub struct StackProbe {
    sim: StackDistanceSim,
    trace: Vec<u32>,
}

impl StackProbe {
    pub fn new() -> StackProbe {
        StackProbe {
            sim: StackDistanceSim::with_block_hint(2 * 1_024),
            trace: cache_trace(1_024, 65_536),
        }
    }

    pub fn accesses(&self) -> usize {
        self.trace.len()
    }

    pub fn run(&mut self) -> u64 {
        self.sim.reset();
        let sim = &mut self.sim;
        self.trace
            .iter()
            .map(|&b| u64::from(sim.access(b).unwrap_or(0)))
            .sum()
    }
}

/// `n` push+pop pairs on one Chase–Lev deque, owner side only.
pub fn chase_lev_push_pop(n: usize) -> usize {
    let (worker, _stealer) = deque::<usize>();
    (0..n)
        .filter(|&i| {
            worker.push(i);
            worker.pop().is_some()
        })
        .count()
}

/// One owner pushing `n` items while one thief steals them all; returns when
/// the thief holds `n`.
pub fn chase_lev_steal(n: usize) -> usize {
    let (worker, stealer) = deque::<usize>();
    std::thread::scope(|s| {
        let thief = s.spawn(move || {
            let mut got = 0;
            while got < n {
                match stealer.steal_until_resolved() {
                    Some(_) => got += 1,
                    None => std::hint::spin_loop(),
                }
            }
            got
        });
        for i in 0..n {
            worker.push(i);
        }
        thief.join().expect("thief thread")
    })
}

/// `n` items through the lock-free injector, 1 producer × 1 consumer.
pub fn injector_spsc(n: usize) -> usize {
    let q: Injector<usize> = Injector::new();
    spsc(n, |i| q.push(i), || q.steal())
}

/// The same traffic through a `Mutex<VecDeque>`: the comparator the ROADMAP
/// holds the lock-free injector "on notice" against. It lives here because
/// the repository's copy is inside `bench_json`, which is due to be retired.
pub fn mutex_queue_spsc(n: usize) -> usize {
    let q: Mutex<std::collections::VecDeque<usize>> = Mutex::default();
    spsc(
        n,
        |i| q.lock().expect("queue lock").push_back(i),
        || q.lock().expect("queue lock").pop_front(),
    )
}

fn spsc(n: usize, push: impl Fn(usize) + Sync, pop: impl Fn() -> Option<usize> + Sync) -> usize {
    std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut got = 0;
            while got < n {
                match pop() {
                    Some(_) => got += 1,
                    None => std::thread::yield_now(),
                }
            }
            got
        });
        (0..n).for_each(&push);
        consumer.join().expect("consumer thread")
    })
}
