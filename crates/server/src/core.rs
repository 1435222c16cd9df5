//! The transport-independent server core: ingest, admission, execution.
//!
//! [`ServerCore`] owns the shared submission queue (a locked
//! [`Injector`]), the tenant table, the plan cache ([`crate::plan`]), the
//! execution [`Runtime`] and a small pool of executor threads. The network
//! layer (or a test) drives it with already-framed request words:
//!
//! ```text
//! reader thread ──ingest_frame──▶ decode → admit → stage → push_batch
//!                                                              │
//! executor thread ◀── steal ───────────────────────────────────┘
//!    └─ simulate on this thread; exactly one completion per accepted
//!       submission, pushed to the connection's completion queue.
//!       (With fault hooks installed it first offers the attempt to the
//!       Runtime under a one-shot claim, and touches a worker's result if
//!       a worker claimed it.)
//!
//! simulate = resolve the shared plan (hit: an `Arc` clone; miss: build
//!            the DAG and its sequential baseline once), then the tenant's
//!            seeded stealing run on the thread's reused `SimScratch`.
//! ```
//!
//! **The ingest hot path allocates nothing in steady state.** Ingest
//! builds nothing: a job is the decoded [`ShapeSpec`] plus its routing
//! words, staged into a reused buffer and entered into the injector
//! through [`Injector::push_batch`] — one lock per frame instead of one
//! per submission.
//! `crates/server/tests/alloc_free.rs` proves the full
//! decode→admit→stage→push_batch path under a counting allocator.
//! Nothing here paces it against the executors; a network reader does that
//! itself, between frames ([`ConnShared::wait_for_window`]).
//!
//! **One execution path.** Every execution — on the executor, or on a pool
//! worker that claimed an offered attempt — is the same function,
//! `simulate`. The DAG and its sequential baseline come from the server's
//! plan cache and are immutable, so nothing an attempt does can damage
//! them; only the per-tenant stealing run is computed per request, and it
//! is never cached.
//!
//! **The executor runs its own submission.** A served submission is a
//! future touched once, by the thread that dequeued it, so the executor
//! simulates it on its own thread: no thread wake-up sits between the
//! request and its reply, and the pool stays idle. Only when fault hooks
//! are installed is each attempt first offered to the pool, because seeded
//! fault plans count dequeued tasks and the fault tests need every attempt
//! dequeued. The offered attempt carries a one-shot claim: the task's body
//! simulates only if it takes the claim, and the executor tries to take it
//! right after offering. An injected kill, panic or stall fires before the
//! body starts, so it never holds the claim, and the executor runs the
//! attempt itself. A worker that holds the claim is past every fault
//! point, so the executor just waits for it; if `simulate` panics there,
//! the executor simulates once more on its own thread. Either way exactly
//! one completion is delivered per accepted submission, however many
//! workers die.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsf_core::{ParallelSimulator, PolicyConfig, PolicyScheduler, SimConfig, SimScratch};
use wsf_deque::Injector;
use wsf_runtime::{FaultHooks, Runtime, RuntimeStats};
use wsf_workloads::submission::ShapeSpec;

use crate::admission::AdmissionMode;
use crate::plan::{PlanCache, PlanKey, PlanStats};
use crate::protocol::{
    parse_request_header, ProtocolError, STATUS_OK, STATUS_SHED, STATUS_SHUTTING_DOWN,
};
use crate::tenant::{TenantReport, TenantSpec, TenantState};

/// Server construction parameters.
pub struct ServerConfig {
    /// Worker threads of the execution [`Runtime`].
    pub runtime_threads: usize,
    /// Executor threads draining the submission queue.
    pub executors: usize,
    /// Reject-vs-queue policy.
    pub admission: AdmissionMode,
    /// Tenant table; a request's tenant word indexes into it.
    pub tenants: Vec<TenantSpec>,
    /// Optional fault injection for the runtime workers.
    pub fault_hooks: Option<Arc<dyn FaultHooks>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime_threads: 2,
            executors: 1,
            admission: AdmissionMode::QueueAll,
            tenants: vec![TenantSpec::default_with_seed(1)],
            fault_hooks: None,
        }
    }
}

/// One completed (or rejected) submission, ready to frame as a response.
#[derive(Copy, Clone, Debug)]
pub struct Completion {
    /// Echo of the client's request id.
    pub request_id: u64,
    /// One of the `STATUS_*` protocol codes.
    pub status: u64,
    /// Simulated cache misses (0 unless `STATUS_OK`).
    pub misses: u64,
    /// Simulated deviations (0 unless `STATUS_OK`).
    pub deviations: u64,
    /// Declared block footprint of the submission.
    pub footprint: u64,
    /// Server-side submission-to-completion latency in microseconds.
    pub micros: u64,
}

/// State shared between a connection's reader, its writer and the
/// executors: the completion queue, and the count of accepted submissions
/// still executing that paces the reader.
#[derive(Debug)]
pub struct ConnShared {
    completions: Mutex<VecDeque<Completion>>,
    cv: Condvar,
    open: AtomicBool,
    /// Accepted submissions of this connection not yet completed.
    outstanding: AtomicUsize,
}

impl ConnShared {
    fn new() -> Self {
        ConnShared {
            completions: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            open: AtomicBool::new(true),
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Enqueues a completion and wakes the connection's writer.
    pub fn push_completion(&self, c: Completion) {
        self.completions.lock().unwrap().push_back(c);
        self.cv.notify_all();
    }

    /// Drains every pending completion into `out`, waiting up to `timeout`
    /// for at least one. Returns how many were drained.
    pub fn drain_completions(&self, out: &mut Vec<Completion>, timeout: Duration) -> usize {
        let mut q = self.completions.lock().unwrap();
        if q.is_empty() {
            let (guard, _res) = self.cv.wait_timeout(q, timeout).unwrap();
            q = guard;
        }
        let n = q.len();
        out.extend(q.drain(..));
        n
    }

    /// Waits up to `timeout` until fewer than `window` accepted submissions
    /// of this connection are still executing; returns whether that holds.
    ///
    /// A network reader calls this between frames, so a burst waits in the
    /// socket (back-pressure on its own sender) instead of running ahead of
    /// the executors: ingest builds nothing, so nothing else paces it.
    pub fn wait_for_window(&self, window: usize, timeout: Duration) -> bool {
        let below = || self.outstanding.load(Ordering::Acquire) < window;
        if below() {
            return true;
        }
        // `execute_job` decrements before it takes this lock to push the
        // completion, so the decrement is either seen here or notifies.
        let q = self.completions.lock().unwrap();
        let _ = self
            .cv
            .wait_timeout_while(q, timeout, |_| !below())
            .unwrap();
        below()
    }

    /// Marks the connection closed (reader or writer exited).
    pub fn close(&self) {
        self.open.store(false, Ordering::Release);
        self.cv.notify_all();
    }

    /// Whether the connection is still open.
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// A queued submission travelling from ingest to an executor.
struct Job {
    tenant: usize,
    request_id: u64,
    spec: ShapeSpec,
    footprint: u64,
    conn: Arc<ConnShared>,
    start: Instant,
}

/// Per-connection ingest state: the reusable job staging buffer. Owned by
/// the connection's reader thread.
#[derive(Default)]
pub struct Ingest {
    staging: Vec<Job>,
}

impl Ingest {
    /// Creates an empty staging buffer (it grows to the largest frame).
    pub fn new() -> Self {
        Self::default()
    }
}

struct CoreInner {
    queue: Injector<Job>,
    depth: AtomicUsize,
    tenants: Vec<TenantState>,
    admission: AdmissionMode,
    plans: Arc<PlanCache>,
    runtime: RwLock<Option<Runtime>>,
    /// Whether attempts are offered to the pool first: only when fault
    /// hooks are installed (see the module docs).
    offer_to_pool: bool,
    /// Offered attempts a pool worker claimed before the executor could.
    pool_runs: AtomicU64,
    draining: AtomicBool,
    halt: AtomicBool,
    work_mx: Mutex<()>,
    work_cv: Condvar,
}

impl CoreInner {
    fn runtime_stats(&self) -> RuntimeStats {
        self.runtime
            .read()
            .unwrap()
            .as_ref()
            .map(|rt| rt.stats())
            .unwrap_or_default()
    }

    /// Wakes every parked executor. Passing through `work_mx` first orders
    /// the caller's update (a push, the halt flag) against an executor that
    /// is between its re-check under the lock and its wait: either the
    /// executor sees the update, or it is already waiting when the
    /// notification fires.
    fn wake_executors(&self) {
        drop(self.work_mx.lock().expect("nothing panics under work_mx"));
        self.work_cv.notify_all();
    }
}

/// Outcome of [`ServerCore::shutdown`].
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Whether the submission queue fully drained before the deadline.
    pub drained: bool,
    /// Executor threads detached because they missed the deadline.
    pub detached_executors: usize,
    /// Runtime workers detached hung by [`Runtime::shutdown_timeout`].
    pub hung_workers: usize,
    /// Final runtime counter snapshot.
    pub runtime_stats: RuntimeStats,
    /// Final plan-cache counters and residency.
    pub plan: PlanStats,
    /// Attempts a pool worker claimed and ran; executors ran the rest.
    /// Always 0 unless fault hooks are installed, since only then is an
    /// attempt offered to the pool.
    pub pool_runs: u64,
}

/// The transport-independent futures-as-a-service core.
pub struct ServerCore {
    inner: Arc<CoreInner>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerCore {
    /// Builds the runtime, spawns the executors and returns the core.
    pub fn new(config: ServerConfig) -> Self {
        assert!(
            !config.tenants.is_empty(),
            "server needs at least one tenant"
        );
        let mut rb = Runtime::builder().threads(config.runtime_threads);
        let offer_to_pool = config.fault_hooks.is_some();
        if let Some(hooks) = config.fault_hooks {
            rb = rb.fault_hooks(hooks);
        }
        let inner = Arc::new(CoreInner {
            queue: Injector::new(),
            depth: AtomicUsize::new(0),
            tenants: config.tenants.into_iter().map(TenantState::new).collect(),
            admission: config.admission,
            plans: Arc::new(PlanCache::new()),
            runtime: RwLock::new(Some(rb.build())),
            offer_to_pool,
            pool_runs: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            work_mx: Mutex::new(()),
            work_cv: Condvar::new(),
        });
        let executors = (0..config.executors.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wsf-exec-{i}"))
                    .spawn(move || executor_loop(&inner))
                    .expect("spawn executor")
            })
            .collect();
        ServerCore {
            inner,
            executors: Mutex::new(executors),
        }
    }

    /// Per-connection state: the reader-owned staging buffer and the shared
    /// completion queue.
    pub fn connection(&self) -> (Ingest, Arc<ConnShared>) {
        (Ingest::new(), Arc::new(ConnShared::new()))
    }

    /// Processes one request frame: decode each submission, admit or shed
    /// it, stage the accepted ones and batch them into the injector (one
    /// lock per frame). Nothing is built here; the executing worker
    /// resolves the shape's plan.
    ///
    /// Shed/draining rejections complete immediately on the connection's
    /// completion queue. An `Err` is fatal for the connection; accepted
    /// submissions of the same frame still execute.
    pub fn ingest_frame(
        &self,
        ingest: &mut Ingest,
        conn: &Arc<ConnShared>,
        words: &[u64],
    ) -> Result<(), ProtocolError> {
        let inner = &*self.inner;
        let (tenant_w, count) = parse_request_header(words)?;
        let tid = tenant_w as usize;
        if tenant_w >= inner.tenants.len() as u64 {
            return Err(ProtocolError::UnknownTenant(tenant_w));
        }
        let tenant = &inner.tenants[tid];
        let mut off = 4usize;
        let mut result = Ok(());
        for _ in 0..count {
            let Some(&request_id) = words.get(off) else {
                result = Err(ProtocolError::Malformed("submission truncated"));
                break;
            };
            off += 1;
            let spec = match ShapeSpec::decode(&words[off..]) {
                Ok((spec, used)) => {
                    off += used;
                    spec
                }
                Err(e) => {
                    // Undecodable shapes destroy the frame boundary: fail
                    // the connection after answering this request id.
                    conn.push_completion(Completion {
                        request_id,
                        status: crate::protocol::STATUS_BAD_SHAPE,
                        misses: 0,
                        deviations: 0,
                        footprint: 0,
                        micros: 0,
                    });
                    result = Err(e.into());
                    break;
                }
            };
            let footprint = spec.footprint();
            if inner.draining.load(Ordering::Acquire) {
                conn.push_completion(Completion {
                    request_id,
                    status: STATUS_SHUTTING_DOWN,
                    misses: 0,
                    deviations: 0,
                    footprint,
                    micros: 0,
                });
                continue;
            }
            let depth = inner.depth.load(Ordering::Relaxed) + ingest.staging.len();
            let admitted = inner.admission.admit(
                depth,
                tenant.inflight.load(Ordering::Relaxed),
                tenant.footprint_inflight.load(Ordering::Relaxed),
                footprint,
            );
            if !admitted {
                tenant.shed.fetch_add(1, Ordering::Relaxed);
                conn.push_completion(Completion {
                    request_id,
                    status: STATUS_SHED,
                    misses: 0,
                    deviations: 0,
                    footprint,
                    micros: 0,
                });
                continue;
            }
            tenant.inflight.fetch_add(1, Ordering::Relaxed);
            tenant
                .footprint_inflight
                .fetch_add(footprint, Ordering::Relaxed);
            ingest.staging.push(Job {
                tenant: tid,
                request_id,
                spec,
                footprint,
                conn: Arc::clone(conn),
                start: Instant::now(),
            });
        }
        if result.is_ok() && off != words.len() {
            result = Err(ProtocolError::Malformed("trailing words"));
        }
        if !ingest.staging.is_empty() {
            let n = ingest.staging.len();
            conn.outstanding.fetch_add(n, Ordering::Relaxed);
            inner.depth.fetch_add(n, Ordering::Relaxed);
            inner.queue.push_batch(ingest.staging.drain(..));
            inner.wake_executors();
        }
        result
    }

    /// Submissions currently queued or executing.
    pub fn queued(&self) -> usize {
        self.inner.depth.load(Ordering::Relaxed)
    }

    /// Rejects all future submissions with `STATUS_SHUTTING_DOWN` while
    /// already-accepted ones keep executing.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// A tenant's accounting snapshot.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn tenant_report(&self, tenant: usize) -> TenantReport {
        self.inner.tenants[tenant].report()
    }

    /// Plan-cache counters and residency right now.
    pub fn plan_stats(&self) -> PlanStats {
        self.inner.plans.stats()
    }

    /// Number of tenants in the table.
    pub fn num_tenants(&self) -> usize {
        self.inner.tenants.len()
    }

    /// Live runtime workers (0 once the pool degrades fully or shuts down).
    pub fn live_workers(&self) -> usize {
        self.inner
            .runtime
            .read()
            .unwrap()
            .as_ref()
            .map_or(0, |rt| rt.live_workers())
    }

    /// Graceful shutdown: drain accepted-but-unexecuted submissions, stop
    /// the executors, then shut the runtime down with the remaining budget.
    /// Hung executors and hung runtime workers are detached, never joined,
    /// so a wedged task cannot wedge shutdown.
    pub fn shutdown(&self, timeout: Duration) -> ServerReport {
        let deadline = Instant::now() + timeout;
        self.begin_drain();
        while self.inner.depth.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = self.inner.depth.load(Ordering::Relaxed) == 0;

        self.inner.halt.store(true, Ordering::Release);
        self.inner.wake_executors();
        let mut detached = 0usize;
        for h in self.executors.lock().unwrap().drain(..) {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            } else {
                detached += 1;
                drop(h);
            }
        }

        let rt = self.inner.runtime.write().unwrap().take();
        let (hung_workers, runtime_stats) = match rt {
            Some(rt) => {
                let budget = deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(10));
                match rt.shutdown_timeout(budget) {
                    Ok(stats) => (0, stats),
                    Err(e) => (e.hung.len(), RuntimeStats::default()),
                }
            }
            None => (0, RuntimeStats::default()),
        };
        ServerReport {
            drained,
            detached_executors: detached,
            hung_workers,
            runtime_stats,
            plan: self.inner.plans.stats(),
            pool_runs: self.inner.pool_runs.load(Ordering::Relaxed),
        }
    }
}

fn executor_loop(inner: &CoreInner) {
    loop {
        if let Some(job) = inner.queue.steal() {
            inner.depth.fetch_sub(1, Ordering::Relaxed);
            execute_job(inner, job);
        } else if inner.halt.load(Ordering::Acquire) {
            return;
        } else {
            // Re-check under the lock `wake_executors` passes through: a
            // frame pushed after the failed steal either shows in `depth`
            // here or finds this thread already waiting.
            let guard = inner.work_mx.lock().expect("nothing panics under work_mx");
            if inner.depth.load(Ordering::Relaxed) == 0 && !inner.halt.load(Ordering::Acquire) {
                let _ = inner
                    .work_cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("nothing panics under work_mx");
            }
        }
    }
}

thread_local! {
    /// The executing thread's simulator buffers, reused by every run on it
    /// (and so sized by the largest DAG the thread has run, at most
    /// `MAX_NODES`). `run_with_scratch` re-initialises every buffer it
    /// reads, so a scratch left dirty by a run that panicked midway is safe
    /// to reuse (`wsf-core` pins it:
    /// `scratch_reused_after_a_mid_run_panic_yields_the_fresh_state_report`).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Executes one submission: the shared plan for `(spec, machine)`, then the
/// tenant's seeded stealing run against it. The only execution path — the
/// executor and a pool worker that claimed an offered attempt both call it.
fn simulate(
    plans: &PlanCache,
    spec: ShapeSpec,
    cfg: SimConfig,
    policy: PolicyConfig,
) -> (u64, u64) {
    let plan = plans.get_or_build(PlanKey::new(spec, &cfg));
    SCRATCH.with(|scratch| {
        let report = ParallelSimulator::new(cfg).run_with_scratch(
            &plan.dag,
            &plan.seq,
            &mut PolicyScheduler::new(policy),
            false,
            &mut scratch.borrow_mut(),
        );
        (report.cache_misses(), report.deviations())
    })
}

fn execute_job(inner: &CoreInner, job: Job) {
    let tenant = &inner.tenants[job.tenant];
    let spec = job.spec;
    let cfg = tenant.spec.sim_config();
    let policy = tenant.spec.policy;
    let pooled = if inner.offer_to_pool {
        offer_to_pool(inner, tenant, spec, cfg, policy)
    } else {
        None
    };
    let (misses, deviations) = pooled.unwrap_or_else(|| simulate(&inner.plans, spec, cfg, policy));

    tenant.misses.fetch_add(misses, Ordering::Relaxed);
    tenant.deviations.fetch_add(deviations, Ordering::Relaxed);
    tenant.completed.fetch_add(1, Ordering::Relaxed);
    tenant.inflight.fetch_sub(1, Ordering::Relaxed);
    tenant
        .footprint_inflight
        .fetch_sub(job.footprint, Ordering::Relaxed);

    job.conn.outstanding.fetch_sub(1, Ordering::Release);
    job.conn.push_completion(Completion {
        request_id: job.request_id,
        status: STATUS_OK,
        misses,
        deviations,
        footprint: job.footprint,
        micros: job.start.elapsed().as_micros() as u64,
    });
}

/// Offers one attempt to the pool under a one-shot claim and returns its
/// result if a worker claimed and finished it. `None` — no live worker,
/// the executor won the claim, or `simulate` panicked on the worker —
/// leaves the attempt to the executor.
fn offer_to_pool(
    inner: &CoreInner,
    tenant: &TenantState,
    spec: ShapeSpec,
    cfg: SimConfig,
    policy: PolicyConfig,
) -> Option<(u64, u64)> {
    let before = inner.runtime_stats();
    // One `swap` decides whether the task's body or the executor runs the
    // attempt. The claim publishes nothing (the result travels through the
    // future), so relaxed swaps suffice: read-modify-writes of one location
    // are totally ordered, so exactly one reads `false`.
    let claim = Arc::new(AtomicBool::new(false));
    let fut = {
        let guard = inner.runtime.read().unwrap();
        let rt = guard.as_ref().filter(|rt| rt.live_workers() > 0)?;
        let plans = Arc::clone(&inner.plans);
        let claim = Arc::clone(&claim);
        rt.defer_future(move || {
            (!claim.swap(true, Ordering::Relaxed)).then(|| simulate(&plans, spec, cfg, policy))
        })
    };
    // Injected kills and panics fire in the task wrapper, and stalls in the
    // worker loop, all before the body starts: a faulted attempt never
    // holds the claim, so the executor takes it here and runs it, even once
    // the last worker is dead. A worker that dequeues the task later finds
    // the claim taken and returns `None` to a future nobody touches.
    let result = if claim.swap(true, Ordering::Relaxed) {
        inner.pool_runs.fetch_add(1, Ordering::Relaxed);
        // A worker holds the claim, so it is past every fault point and
        // this touch cannot strand. Only a panic inside `simulate` fails it.
        fut.touch_result()
            .ok()
            .map(|v| v.expect("the body that took the claim ran simulate"))
    } else {
        None
    };
    let delta = inner.runtime_stats().since(&before);
    tenant.stats.lock().unwrap().accumulate(&delta);
    result
}
