//! The work-stealing thread pool.

use crate::faultd::{FaultAction, FaultHooks};
use crate::future::{Future, FutureState, TaskError};
use crate::policy::SpawnPolicy;
use crate::stats::{AtomicStats, RuntimeStats, WorkerCounters, WorkerStats};
use crate::trace::{TaskOrigin, TouchEvent, TouchTrace};
use crossbeam_utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsf_deque::{deque, Injector, Steal, Stealer, Worker};

/// A unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Where a worker currently is, for the shutdown watchdog's diagnosis.
/// Stored relaxed in the worker's `WorkerCounters::site`; purely
/// informational. A slot starts at 0, launching.
const SITE_SCANNING: u8 = 1;
const SITE_EXECUTING: u8 = 2;
const SITE_PARKED: u8 = 3;
const SITE_DEAD: u8 = 4;

fn site_label(site: u8) -> &'static str {
    match site {
        SITE_SCANNING => "scanning its deque/injector for work",
        SITE_EXECUTING => "executing a task",
        SITE_PARKED => "parked on the idle condvar",
        SITE_DEAD => "exited",
        _ => "launching",
    }
}

/// A fault the worker loop has scheduled for the task it is about to run;
/// consumed by the task wrapper (see `make_task` and `Runtime::spawn`).
#[derive(Copy, Clone, PartialEq, Eq)]
enum InjectedFault {
    None,
    Panic,
    Kill,
}

thread_local! {
    static INJECTED: Cell<InjectedFault> = const { Cell::new(InjectedFault::None) };
}

/// Shared state of the pool, visible to every worker and to external
/// threads holding futures.
pub(crate) struct Inner {
    stealers: Vec<Stealer<Task>>,
    /// Locked MPMC queue for tasks submitted from outside the pool
    /// (external `spawn`/`spawn_future`/`defer_future` callers); workers
    /// drain it after their own deque and before stealing.
    injector: Injector<Task>,
    idle_mutex: Mutex<()>,
    idle_cond: Condvar,
    /// Number of workers currently parked (or about to park) on
    /// `idle_cond`. Task-arrival notifications are skipped entirely when it
    /// is zero and wake a *single* worker otherwise — one task can only be
    /// claimed by one worker, so `notify_all` per push just stampeded every
    /// sleeper through the mutex to find nothing (the classic thundering
    /// herd). The small window where a worker has failed its final
    /// `find_task` but not yet registered as idle is covered by the bounded
    /// 1 ms `wait_for` in the worker loop, exactly as before.
    idle_workers: AtomicUsize,
    shutdown: AtomicBool,
    policy: SpawnPolicy,
    inline_depth_limit: usize,
    /// Fault-injection hooks; `None` (the default) costs one never-taken
    /// branch per dispatch site.
    hooks: Option<Arc<dyn FaultHooks>>,
    /// Workers still running their loop. Decremented on shutdown *and*
    /// when the fault injector kills a worker permanently; a task can
    /// strand (never be executed) only once this reaches zero.
    live_workers: AtomicUsize,
    /// Global dequeued-task sequence number, advanced only when fault
    /// hooks are installed; the coordinate system of seeded fault plans.
    task_seq: AtomicU64,
    /// The pool-wide counters, on their own line: a wake-up or a panic
    /// does not evict the read-mostly fields every dispatch reads.
    pub(crate) stats: CachePadded<AtomicStats>,
    /// Block-touch recorder; `None` (the default) costs one never-taken
    /// branch per dispatch site, mirroring `hooks`.
    trace: Option<Arc<TouchTrace>>,
    /// Per-worker steal/execute counters and watchdog site (`SITE_*`), one
    /// cache-padded slot per worker so each writer owns its line: no pool
    /// line is written by every worker on every task.
    worker_stats: Vec<CachePadded<WorkerCounters>>,
}

struct WorkerLocal {
    inner: Arc<Inner>,
    index: usize,
    worker: Worker<Task>,
    rng: RefCell<SmallRng>,
    inline_depth: Cell<usize>,
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerLocal>> = const { RefCell::new(None) };
}

/// Runs `f` with the calling thread's worker context, if the calling thread
/// is one of this pool's workers.
fn with_worker<R>(inner: &Arc<Inner>, f: impl FnOnce(&WorkerLocal) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        match borrow.as_ref() {
            Some(w) if Arc::ptr_eq(&w.inner, inner) => Some(f(w)),
            _ => None,
        }
    })
}

/// Wraps a future body into a queued task: consumes any injected fault,
/// contains panics with `catch_unwind`, and settles the future exactly
/// once — with the value, or with a [`TaskError`] describing the failure.
/// A panicking body therefore never unwinds through (and never loses) the
/// worker thread; the panic resurfaces at the touch point instead.
fn make_task<T, F>(inner: &Arc<Inner>, state: &Arc<FutureState<T>>, f: F) -> Task
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let state = Arc::clone(state);
    let inner = Arc::clone(inner);
    Box::new(move || {
        let fault = INJECTED.replace(InjectedFault::None);
        if fault == InjectedFault::Kill {
            // The worker "crashed" before running the body: fail the
            // future so touchers learn of the loss instead of hanging.
            state.fail(TaskError::WorkerKilled);
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fault == InjectedFault::Panic {
                panic!("wsf-faultd: injected task panic");
            }
            f()
        }));
        match result {
            Ok(v) => state.complete(v),
            Err(payload) => {
                inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                state.fail(TaskError::from_panic(payload));
            }
        }
    })
}

impl Inner {
    /// Signals that one task became available: wakes at most one idle
    /// worker, and none when every worker is already awake.
    fn notify(&self) {
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            self.idle_cond.notify_one();
        }
    }

    fn push_injector(&self, task: Task) {
        self.injector.push(task);
        self.notify();
    }

    fn pop_injector(&self) -> Option<Task> {
        self.injector.steal()
    }

    fn set_site(&self, index: usize, site: u8) {
        self.worker_stats[index].site.store(site, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RuntimeStats {
        self.stats
            .snapshot(self.worker_stats.iter().map(|slot| &**slot))
    }

    /// Finds a task for the worker `index`: its own deque first, then the
    /// global injector, then stealing from a random victim.
    fn find_task(self: &Arc<Self>, local: &WorkerLocal) -> Option<Task> {
        if let Some(t) = local.worker.pop() {
            self.record_origin(local.index, TaskOrigin::Local);
            return Some(t);
        }
        if let Some(t) = self.pop_injector() {
            self.record_origin(local.index, TaskOrigin::Inject);
            return Some(t);
        }
        let n = self.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = local.rng.borrow_mut().gen_range(0..n);
        let mut saw_retry = false;
        for offset in 0..n {
            let victim = (start + offset) % n;
            if victim == local.index {
                continue;
            }
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(t) => {
                        self.worker_stats[local.index]
                            .steals
                            .fetch_add(1, Ordering::Relaxed);
                        self.record_origin(
                            local.index,
                            TaskOrigin::Steal {
                                victim: victim as u32,
                            },
                        );
                        return Some(t);
                    }
                    Steal::Retry => {
                        saw_retry = true;
                        continue;
                    }
                    Steal::Empty => break,
                }
            }
        }
        if !saw_retry {
            self.stats.failed_steals.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Records a task-provenance event into `lane` when tracing is on.
    fn record_origin(&self, lane: usize, origin: TaskOrigin) {
        if let Some(trace) = &self.trace {
            trace.record(lane, TouchEvent::Task { origin });
        }
    }

    fn run_task(self: &Arc<Self>, index: usize, task: Task) {
        self.worker_stats[index]
            .executed
            .fetch_add(1, Ordering::Relaxed);
        // A `make_task` wrapper contains its own panics (it has a future to
        // fail); a `Runtime::spawn` task has none, so its panics — injected
        // or from the body — are caught and counted here. Either way no
        // panic unwinds through (and silently loses) a worker thread.
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The waiting side of [`Future::touch_result`]: help run tasks until
    /// the future settles (on a worker thread), or block (elsewhere).
    ///
    /// Blocks indefinitely if the future's task strands — possible only
    /// once every worker has been killed; bounded waiting is
    /// [`Inner::touch_within`].
    pub(crate) fn touch<T: Send + 'static>(
        inner: &Arc<Inner>,
        state: &Arc<FutureState<T>>,
    ) -> Result<T, TaskError> {
        inner.stats.touches.fetch_add(1, Ordering::Relaxed);
        if let Some(outcome) = state.try_take() {
            return outcome;
        }
        let on_worker = with_worker(inner, |_| ()).is_some();
        if on_worker {
            loop {
                if let Some(outcome) = state.try_take() {
                    return outcome;
                }
                let task = with_worker(inner, |local| {
                    inner.find_task(local).map(|t| (t, local.index))
                })
                .flatten();
                match task {
                    Some((t, index)) => {
                        inner.stats.helped_tasks.fetch_add(1, Ordering::Relaxed);
                        inner.run_task(index, t);
                    }
                    None => {
                        if let Some(outcome) = state.try_take() {
                            return outcome;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        } else {
            state.wait_take()
        }
    }

    /// Bounded-deadline variant of [`Inner::touch`]: returns `None` when
    /// `timeout` elapses before the future settles. A touch is counted
    /// only when an outcome is actually taken, so retried bounded touches
    /// do not inflate `RuntimeStats::touches`.
    pub(crate) fn touch_within<T: Send + 'static>(
        inner: &Arc<Inner>,
        state: &Arc<FutureState<T>>,
        timeout: Duration,
    ) -> Option<Result<T, TaskError>> {
        let deadline = Instant::now() + timeout;
        let on_worker = with_worker(inner, |_| ()).is_some();
        let outcome = if on_worker {
            loop {
                if let Some(outcome) = state.try_take() {
                    break Some(outcome);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                let task = with_worker(inner, |local| {
                    inner.find_task(local).map(|t| (t, local.index))
                })
                .flatten();
                match task {
                    Some((t, index)) => {
                        inner.stats.helped_tasks.fetch_add(1, Ordering::Relaxed);
                        inner.run_task(index, t);
                    }
                    None => std::thread::yield_now(),
                }
            }
        } else {
            state.wait_take_for(timeout)
        };
        if outcome.is_some() {
            inner.stats.touches.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn worker_loop(self: Arc<Self>, index: usize, worker: Worker<Task>) {
        let local = WorkerLocal {
            inner: Arc::clone(&self),
            index,
            worker,
            rng: RefCell::new(SmallRng::seed_from_u64(0x9e3779b97f4a7c15 ^ index as u64)),
            inline_depth: Cell::new(0),
        };
        CURRENT.with(|c| *c.borrow_mut() = Some(local));
        let mut killed = false;

        loop {
            self.set_site(index, SITE_SCANNING);
            let task = CURRENT.with(|c| {
                let borrow = c.borrow();
                let local = borrow.as_ref().expect("worker context installed");
                self.find_task(local)
            });
            match task {
                Some(t) => {
                    let action = match &self.hooks {
                        Some(h) => h.on_task(index, self.task_seq.fetch_add(1, Ordering::Relaxed)),
                        None => FaultAction::None,
                    };
                    self.set_site(index, SITE_EXECUTING);
                    match action {
                        FaultAction::None => self.run_task(index, t),
                        FaultAction::StallTask(delay) => {
                            std::thread::sleep(delay);
                            self.run_task(index, t);
                        }
                        FaultAction::PanicTask => {
                            INJECTED.set(InjectedFault::Panic);
                            self.run_task(index, t);
                            INJECTED.set(InjectedFault::None);
                        }
                        FaultAction::KillWorker => {
                            INJECTED.set(InjectedFault::Kill);
                            self.run_task(index, t);
                            INJECTED.set(InjectedFault::None);
                            killed = true;
                        }
                    }
                    if killed {
                        break;
                    }
                }
                None => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let mut guard = self.idle_mutex.lock();
                    self.idle_workers.fetch_add(1, Ordering::SeqCst);
                    self.set_site(index, SITE_PARKED);
                    // Re-check under the lock so a notify between the failed
                    // find and this wait is not lost for long (and the
                    // bounded wait caps the one remaining race: a push that
                    // read `idle_workers == 0` just before the increment).
                    if !self.shutdown.load(Ordering::Acquire) {
                        self.idle_cond
                            .wait_for(&mut guard, Duration::from_millis(1));
                    }
                    self.idle_workers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                    if let Some(h) = &self.hooks {
                        if let Some(delay) = h.on_wakeup(index) {
                            std::thread::sleep(delay);
                        }
                    }
                }
            }
        }

        // Exit path: clean shutdown, or killed by the fault injector. The
        // dead worker's deque stays stealable (the pool holds its
        // `Stealer`), so its queued tasks are not lost — the pool degrades
        // to the surviving workers.
        self.set_site(index, SITE_DEAD);
        if killed {
            self.stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
        }
        self.live_workers.fetch_sub(1, Ordering::SeqCst);
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// Configures and builds a [`Runtime`].
#[derive(Clone)]
pub struct RuntimeBuilder {
    threads: usize,
    policy: SpawnPolicy,
    inline_depth_limit: usize,
    hooks: Option<Arc<dyn FaultHooks>>,
    trace_capacity: Option<usize>,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("threads", &self.threads)
            .field("policy", &self.policy)
            .field("inline_depth_limit", &self.inline_depth_limit)
            .field("fault_hooks", &self.hooks.is_some())
            .field("trace_capacity", &self.trace_capacity)
            .finish()
    }
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            policy: SpawnPolicy::ChildFirst,
            inline_depth_limit: 128,
            hooks: None,
            trace_capacity: None,
        }
    }
}

impl RuntimeBuilder {
    /// Sets the number of worker threads (`P`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the spawn policy.
    pub fn policy(mut self, policy: SpawnPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how deep child-first inline execution may nest before newly
    /// created futures are deferred to the deque instead.
    pub fn inline_depth_limit(mut self, limit: usize) -> Self {
        self.inline_depth_limit = limit;
        self
    }

    /// Installs fault-injection hooks (see [`FaultHooks`]). Without
    /// this call the runtime pays one never-taken branch per dispatch
    /// site and the task sequence counter is never advanced.
    pub fn fault_hooks(mut self, hooks: Arc<dyn FaultHooks>) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Enables block-touch tracing (see [`TouchTrace`]), reserving
    /// `capacity` events per lane up front. The recorder is constructed by
    /// [`RuntimeBuilder::build`] with one lane per worker plus an external
    /// lane, and is reachable through [`Runtime::touch_trace`]. Without
    /// this call tracing costs one never-taken branch per dispatch site.
    pub fn touch_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Builds the runtime, spawning its worker threads.
    pub fn build(self) -> Runtime {
        let mut workers = Vec::with_capacity(self.threads);
        let mut stealers = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            let (w, s) = deque::<Task>();
            workers.push(w);
            stealers.push(s);
        }
        let injector = Injector::new();
        if let Some(hooks) = &self.hooks {
            let hooks = Arc::clone(hooks);
            injector.install_stall_hook(move |site| {
                if let Some(delay) = hooks.on_injector(site) {
                    std::thread::sleep(delay);
                }
            });
        }
        let inner = Arc::new(Inner {
            stealers,
            injector,
            idle_mutex: Mutex::new(()),
            idle_cond: Condvar::new(),
            idle_workers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            policy: self.policy,
            inline_depth_limit: self.inline_depth_limit,
            hooks: self.hooks,
            live_workers: AtomicUsize::new(self.threads),
            task_seq: AtomicU64::new(0),
            stats: CachePadded::new(AtomicStats::default()),
            trace: self
                .trace_capacity
                .map(|capacity| TouchTrace::new(self.threads, capacity)),
            worker_stats: (0..self.threads)
                .map(|_| CachePadded::new(WorkerCounters::default()))
                .collect(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wsf-worker-{index}"))
                    .spawn(move || inner.worker_loop(index, worker))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime { inner, handles }
    }
}

/// A worker that had not exited when [`Runtime::shutdown_timeout`] gave up.
#[derive(Clone, Debug)]
pub struct HungWorker {
    /// Index of the hung worker thread.
    pub index: usize,
    /// Where the worker was last observed (which deque/injector scan,
    /// task execution, or condvar park it was in).
    pub site: &'static str,
}

/// Returned by [`Runtime::shutdown_timeout`] when workers failed to exit
/// within the deadline. The hung workers are left detached (the error
/// does not block on them), with their last observed locations for
/// diagnosis.
#[derive(Clone, Debug)]
pub struct ShutdownError {
    /// The workers that never exited, with their last observed sites.
    pub hung: Vec<HungWorker>,
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shutdown timed out; {} worker(s) hung:", self.hung.len())?;
        for w in &self.hung {
            write!(f, " worker {} ({});", w.index, w.site)?;
        }
        Ok(())
    }
}

impl std::error::Error for ShutdownError {}

/// A work-stealing thread pool with structured single-touch futures.
///
/// ```
/// use wsf_runtime::{Runtime, SpawnPolicy};
///
/// let rt = Runtime::builder().threads(2).policy(SpawnPolicy::ChildFirst).build();
/// let f = rt.spawn_future(|| (1..=10).sum::<u64>());
/// let (a, b) = rt.join(|| 2 + 2, || 3 * 3);
/// assert_eq!(f.touch(), 55);
/// assert_eq!((a, b), (4, 9));
/// ```
pub struct Runtime {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Creates a runtime with `threads` workers and the default
    /// (child-first) policy.
    pub fn new(threads: usize) -> Self {
        Runtime::builder().threads(threads).build()
    }

    /// Returns a builder for finer configuration.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of worker threads the pool was built with.
    pub fn num_threads(&self) -> usize {
        self.handles.len()
    }

    /// Number of workers still running (smaller than
    /// [`Runtime::num_threads`] once the fault injector has killed
    /// workers). When it reaches zero, queued tasks can no longer be
    /// executed by the pool — callers should degrade to inline execution.
    pub fn live_workers(&self) -> usize {
        self.inner.live_workers.load(Ordering::SeqCst)
    }

    /// The configured spawn policy.
    pub fn policy(&self) -> SpawnPolicy {
        self.inner.policy
    }

    /// A snapshot of the runtime's counters.
    pub fn stats(&self) -> RuntimeStats {
        self.inner.snapshot()
    }

    /// Per-worker steal/execute snapshots, indexed by worker. The
    /// [`RuntimeStats`] `steals` and `tasks_executed` totals are the sums
    /// of these slots, so the two readings agree once the pool is
    /// quiescent (asserted by `pool_smoke`).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.inner
            .worker_stats
            .iter()
            .enumerate()
            .map(|(index, c)| WorkerStats {
                index,
                steals: c.steals.load(Ordering::Relaxed),
                tasks_executed: c.executed.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The touch-trace recorder, when the runtime was built with
    /// [`RuntimeBuilder::touch_trace`].
    pub fn touch_trace(&self) -> Option<Arc<TouchTrace>> {
        self.inner.trace.as_ref().map(Arc::clone)
    }

    /// Index of the calling worker thread, if the caller is one of this
    /// pool's workers.
    pub fn current_worker(&self) -> Option<usize> {
        with_worker(&self.inner, |local| local.index)
    }

    /// Records the execution of DAG node `node` touching `block` into the
    /// calling thread's trace lane (the external lane when the caller is
    /// not one of this pool's workers). No-op when tracing is disabled.
    pub fn trace_node(&self, node: u32, block: Option<u32>) {
        if let Some(trace) = &self.inner.trace {
            let lane = with_worker(&self.inner, |local| local.index)
                .unwrap_or_else(|| trace.external_lane());
            trace.record(lane, TouchEvent::Node { node, block });
        }
    }

    /// Spawns `f` as a future and returns its single-touch handle.
    ///
    /// Under the child-first policy, a future created on a worker thread is
    /// run immediately by that worker (up to a nesting limit), mirroring the
    /// paper's future-first rule; under the helper-first policy it is pushed
    /// onto the worker's deque, where other workers may steal it.
    pub fn spawn_future<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.inner
            .stats
            .futures_created
            .fetch_add(1, Ordering::Relaxed);
        let state = FutureState::new();

        let run_inline = self.inner.policy == SpawnPolicy::ChildFirst
            && with_worker(&self.inner, |local| {
                let depth = local.inline_depth.get();
                if depth < self.inner.inline_depth_limit {
                    local.inline_depth.set(depth + 1);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);

        if run_inline {
            // Future-first: evaluate the future body now, on the creating
            // worker, before the parent's continuation. Panics are
            // contained here exactly as on the queued path, so inline and
            // deferred futures fail identically (at the touch point).
            self.inner.stats.inline_runs.fetch_add(1, Ordering::Relaxed);
            if self.inner.trace.is_some() {
                if let Some(lane) = with_worker(&self.inner, |local| local.index) {
                    self.inner.record_origin(lane, TaskOrigin::Inline);
                }
            }
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(v) => state.complete(v),
                Err(payload) => {
                    self.inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                    state.fail(TaskError::from_panic(payload));
                }
            }
            with_worker(&self.inner, |local| {
                local.inline_depth.set(local.inline_depth.get() - 1);
            });
        } else {
            self.push_task(make_task(&self.inner, &state, f));
        }

        Future {
            state,
            runtime: Arc::clone(&self.inner),
        }
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both results.
    ///
    /// `b` is made stealable while the calling thread runs `a` inline, then
    /// the result of `b` is touched — the fork-join (spawn/sync) special
    /// case of single-touch futures.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send + 'static,
        B: FnOnce() -> RB + Send + 'static,
        RA: Send + 'static,
        RB: Send + 'static,
    {
        let fb = self.defer_future(b);
        let ra = a();
        let rb = fb.touch();
        (ra, rb)
    }

    /// Spawns `f` as a deque task regardless of the spawn policy (always
    /// stealable, never inline).
    pub fn defer_future<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.inner
            .stats
            .futures_created
            .fetch_add(1, Ordering::Relaxed);
        let state = FutureState::new();
        self.push_task(make_task(&self.inner, &state, f));
        Future {
            state,
            runtime: Arc::clone(&self.inner),
        }
    }

    /// Queues `f` as a plain pool task: no future, no completion slot.
    ///
    /// The task lands where [`Runtime::defer_future`]'s would — the bottom
    /// of the calling worker's deque, or the injector when the caller is
    /// not one of this pool's workers — and never runs inline, whatever
    /// the spawn policy. Nothing reports its outcome, so `f` publishes its
    /// own result (a `dag_exec` chain does, through the DAG's join
    /// counters). A panic in `f` is contained and counted in
    /// [`RuntimeStats::panics`]; an injected worker kill drops `f` unrun.
    /// It is not counted in [`RuntimeStats::futures_created`].
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.push_task(Box::new(move || {
            match INJECTED.replace(InjectedFault::None) {
                InjectedFault::None => f(),
                InjectedFault::Panic => panic!("wsf-faultd: injected task panic"),
                InjectedFault::Kill => {}
            }
        }));
    }

    /// Shuts the pool down, waiting at most `timeout` for the workers to
    /// exit. On success returns the final counter snapshot. If a worker
    /// is hung (stalled in a task, or wedged on a queue), the error names
    /// each hung worker and the site it was last observed at — and the
    /// hung threads are *detached*, so neither this call nor the
    /// subsequent drop blocks on them.
    pub fn shutdown_timeout(mut self, timeout: Duration) -> Result<RuntimeStats, ShutdownError> {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.idle_cond.notify_all();
        let deadline = Instant::now() + timeout;
        while self.handles.iter().any(|h| !h.is_finished()) {
            if Instant::now() >= deadline {
                let hung: Vec<HungWorker> = self
                    .handles
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| !h.is_finished())
                    .map(|(index, _)| HungWorker {
                        index,
                        site: site_label(
                            self.inner.worker_stats[index].site.load(Ordering::Relaxed),
                        ),
                    })
                    .collect();
                let err = ShutdownError { hung };
                eprintln!("wsf-runtime: {err}");
                // Detach: dropping the handles lets the process exit (or
                // the caller proceed) without joining the hung threads.
                self.handles.clear();
                return Err(err);
            }
            // Keep nudging parked workers; their bounded wait re-checks
            // `shutdown` on every 1 ms tick anyway.
            self.inner.idle_cond.notify_all();
            std::thread::sleep(Duration::from_micros(200));
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        Ok(self.inner.snapshot())
    }

    fn push_task(&self, task: Task) {
        let mut slot = Some(task);
        let pushed = with_worker(&self.inner, |local| {
            local
                .worker
                .push(slot.take().expect("task not yet consumed"));
        });
        match pushed {
            Some(()) => self.inner.notify(),
            None => self
                .inner
                .push_injector(slot.take().expect("task not pushed locally")),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Shutdown must reach *every* parked worker, not just one.
        self.inner.idle_cond.notify_all();
        // The last `Arc<Runtime>` can be dropped *by a worker* when a task
        // closure owns a clone (e.g. a straggler DAG chain finishing after
        // the submitting thread released its handle). Joining would then
        // self-deadlock, so detach instead: the workers observe `shutdown`
        // and exit on their own.
        let on_worker = with_worker(&self.inner, |_| ()).is_some();
        for handle in self.handles.drain(..) {
            if !on_worker {
                let _ = handle.join();
            }
        }
    }
}
