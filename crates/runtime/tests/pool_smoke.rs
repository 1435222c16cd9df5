//! Smoke tests of the real thread pool: spawn/touch fan-outs under both
//! [`SpawnPolicy`] variants, plain [`Runtime::spawn`] tasks, checking
//! results and the consistency of the [`RuntimeStats`] counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsf_runtime::{FaultAction, FaultHooks, Runtime, RuntimeStats, SpawnPolicy, TaskError};

/// Recursive fork-join fib on the runtime (the canonical fan-out).
fn fib(rt: &Arc<Runtime>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let rt2 = Arc::clone(rt);
    let future = rt.spawn_future(move || fib(&rt2, n - 2));
    let a = fib(rt, n - 1);
    a + future.touch()
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

/// Asserts the internal consistency relations between the counters of a
/// future-only load (a [`Runtime::spawn`] task is queued without a future,
/// so it would count in `tasks_executed` but in no `futures_created`).
fn assert_stats_consistent(stats: &RuntimeStats, context: &str) {
    assert!(
        stats.touches <= stats.futures_created,
        "{context}: touched {} futures but only {} were created",
        stats.touches,
        stats.futures_created
    );
    assert!(
        stats.inline_runs <= stats.futures_created,
        "{context}: {} inline runs exceed {} created futures",
        stats.inline_runs,
        stats.futures_created
    );
    // Every non-inline future becomes a deque/injector task; steals and
    // helped tasks are both subsets of the executed tasks.
    let queued = stats.futures_created - stats.inline_runs;
    assert!(
        stats.tasks_executed <= queued,
        "{context}: executed {} tasks but only {} were ever queued",
        stats.tasks_executed,
        queued
    );
    assert!(
        stats.steals <= stats.tasks_executed,
        "{context}: {} steals exceed {} executed tasks",
        stats.steals,
        stats.tasks_executed
    );
    assert!(
        stats.helped_tasks <= stats.tasks_executed,
        "{context}: {} helped tasks exceed {} executed tasks",
        stats.helped_tasks,
        stats.tasks_executed
    );
    let frac = stats.inline_fraction();
    assert!(
        (0.0..=1.0).contains(&frac),
        "{context}: inline fraction {frac} out of range"
    );
    // Task-arrival wakeups are notify_one per push (and only when a worker
    // is parked), so they can never exceed the number of queued tasks.
    assert!(
        stats.wakeups <= queued,
        "{context}: {} wakeups exceed {} queued tasks — the herd is back",
        stats.wakeups,
        queued
    );
    // Every contained panic belongs to some future body.
    assert!(
        stats.panics <= stats.futures_created,
        "{context}: {} panics exceed {} created futures",
        stats.panics,
        stats.futures_created
    );
}

#[test]
fn fib_fanout_under_both_policies() {
    for policy in SpawnPolicy::ALL {
        for threads in [1usize, 2, 4] {
            let rt = Arc::new(Runtime::builder().threads(threads).policy(policy).build());
            let n = 16u64;
            let got = fib(&rt, n);
            assert_eq!(
                got,
                fib_reference(n),
                "fib({n}) wrong under {policy} with {threads} threads"
            );
            let stats = rt.stats();
            assert!(
                stats.futures_created > 0,
                "{policy}: fan-out created futures"
            );
            assert_eq!(
                stats.touches, stats.futures_created,
                "{policy}: every future is touched exactly once"
            );
            assert_stats_consistent(&stats, &format!("{policy}/{threads}t"));
        }
    }
}

#[test]
fn wide_flat_fanout_executes_every_task_once() {
    const FUTURES: usize = 500;
    for policy in SpawnPolicy::ALL {
        let rt = Arc::new(Runtime::builder().threads(4).policy(policy).build());
        let counter = Arc::new(AtomicU64::new(0));
        let futures: Vec<_> = (0..FUTURES)
            .map(|i| {
                let counter = Arc::clone(&counter);
                rt.spawn_future(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i as u64
                })
            })
            .collect();
        let sum: u64 = futures.into_iter().map(|f| f.touch()).sum();
        assert_eq!(sum, (0..FUTURES as u64).sum::<u64>(), "{policy}");
        assert_eq!(
            counter.load(Ordering::Relaxed),
            FUTURES as u64,
            "{policy}: every body ran exactly once"
        );
        let stats = rt.stats();
        assert_eq!(stats.futures_created, FUTURES as u64, "{policy}");
        assert_eq!(stats.touches, FUTURES as u64, "{policy}");
        assert_stats_consistent(&stats, &format!("flat fanout / {policy}"));
    }
}

#[test]
fn child_first_runs_nested_futures_inline() {
    // Under the future-first (child-first) policy, a single-threaded
    // runtime must run nested futures inline (there is nobody to steal
    // them), which is exactly the paper's locality argument.
    let rt = Arc::new(
        Runtime::builder()
            .threads(1)
            .policy(SpawnPolicy::ChildFirst)
            .build(),
    );
    assert_eq!(fib(&rt, 12), fib_reference(12));
    let stats = rt.stats();
    assert!(
        stats.inline_fraction() > 0.5,
        "child-first on one thread should inline most futures, got {}",
        stats.inline_fraction()
    );
    assert_stats_consistent(&stats, "child-first inline");
}

#[test]
fn helper_first_makes_futures_stealable() {
    // Helper-first never runs futures inline at spawn; with several
    // workers, steals (or injector pulls counted as executed tasks) must
    // account for every future.
    let rt = Arc::new(
        Runtime::builder()
            .threads(4)
            .policy(SpawnPolicy::HelperFirst)
            .build(),
    );
    assert_eq!(fib(&rt, 14), fib_reference(14));
    let stats = rt.stats();
    assert_eq!(
        stats.inline_runs, 0,
        "helper-first must not inline at spawn"
    );
    assert_eq!(
        stats.tasks_executed, stats.futures_created,
        "every queued future body executes exactly once"
    );
    assert_stats_consistent(&stats, "helper-first");
}

#[test]
fn join_combines_both_results() {
    for policy in SpawnPolicy::ALL {
        let rt = Runtime::builder().threads(2).policy(policy).build();
        let (a, b) = rt.join(|| 6 * 7, || "futures".len());
        assert_eq!((a, b), (42, 7), "{policy}");
    }
}

#[test]
fn external_submissions_never_lose_tasks() {
    // Tasks pushed from outside the pool go through the injector;
    // every one must execute exactly once and every touch must complete
    // (no lost wakeups), even with several external submitter threads
    // racing each other and the workers.
    for policy in SpawnPolicy::ALL {
        let rt = Arc::new(Runtime::builder().threads(2).policy(policy).build());
        let executed = Arc::new(AtomicU64::new(0));
        let submitters = 4usize;
        let per_submitter = 500usize;

        std::thread::scope(|scope| {
            for _ in 0..submitters {
                let rt = Arc::clone(&rt);
                let executed = Arc::clone(&executed);
                scope.spawn(move || {
                    let futures: Vec<_> = (0..per_submitter)
                        .map(|i| {
                            let executed = Arc::clone(&executed);
                            // defer_future always queues (never inlines), so
                            // every one of these crosses the injector when
                            // submitted from this non-worker thread.
                            rt.defer_future(move || {
                                executed.fetch_add(1, Ordering::Relaxed);
                                i as u64
                            })
                        })
                        .collect();
                    let sum: u64 = futures.into_iter().map(|f| f.touch()).sum();
                    assert_eq!(sum, (0..per_submitter as u64).sum::<u64>(), "{policy}");
                });
            }
        });

        assert_eq!(
            executed.load(Ordering::Relaxed),
            (submitters * per_submitter) as u64,
            "{policy}: every injected task executed exactly once"
        );
    }
}

#[test]
fn parked_workers_are_woken_one_per_task() {
    // Let the pool go fully idle (workers park within ~1 ms), then feed it
    // tasks from outside. Each arrival should wake a parked worker —
    // `wakeups` must move — but never more than one per push.
    let rt = Arc::new(Runtime::builder().threads(4).build());
    std::thread::sleep(std::time::Duration::from_millis(50));

    let mut total = 0u64;
    for _ in 0..20 {
        let futures: Vec<_> = (0..5).map(|i| rt.defer_future(move || i as u64)).collect();
        total += futures.into_iter().map(|f| f.touch()).sum::<u64>();
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(total, 20 * 10, "sum of 0..5 per round");

    let stats = rt.stats();
    assert!(
        stats.wakeups >= 1,
        "parked workers were never woken by arrivals (wakeups = 0)"
    );
    assert!(
        stats.wakeups <= stats.futures_created - stats.inline_runs,
        "{} wakeups for {} queued tasks",
        stats.wakeups,
        stats.futures_created - stats.inline_runs
    );
    assert_stats_consistent(&stats, "parked wakeups");
}

#[test]
fn panicking_task_is_contained_and_pool_stays_live() {
    // Regression: a panicking task body used to unwind straight through
    // its worker thread, killing it silently. The panic must be contained,
    // surfaced as a TaskError at the touch point, counted in
    // `RuntimeStats::panics` — and the pool must keep serving work.
    for policy in SpawnPolicy::ALL {
        let rt = Arc::new(Runtime::builder().threads(2).policy(policy).build());

        let bad = rt.spawn_future(|| -> u64 { panic!("intentional test panic") });
        match bad.touch_result() {
            Err(TaskError::Panicked(msg)) => {
                assert!(
                    msg.contains("intentional test panic"),
                    "{policy}: payload message preserved, got {msg:?}"
                );
            }
            other => panic!("{policy}: expected a contained panic, got {other:?}"),
        }

        let stats = rt.stats();
        assert_eq!(stats.panics, 1, "{policy}: the panic was counted");
        assert_eq!(rt.live_workers(), 2, "{policy}: no worker died");

        // The pool still executes a full fan-out afterwards.
        let futures: Vec<_> = (0..100u64).map(|i| rt.defer_future(move || i)).collect();
        let sum: u64 = futures.into_iter().map(|f| f.touch()).sum();
        assert_eq!(sum, 4950, "{policy}: pool serves work after a panic");
        assert_stats_consistent(&rt.stats(), &format!("post-panic / {policy}"));

        // And shutdown still completes promptly.
        let rt = Arc::into_inner(rt).expect("sole owner");
        rt.shutdown_timeout(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{policy}: shutdown hung after a panic: {e}"));
    }
}

#[test]
fn inline_child_first_panic_is_contained_too() {
    // The child-first inline fast path runs the body on the *spawning*
    // worker; its panic must be contained identically (surfacing at the
    // touch, not unwinding into the spawner's own task).
    let rt = Arc::new(
        Runtime::builder()
            .threads(2)
            .policy(SpawnPolicy::ChildFirst)
            .build(),
    );
    let rt2 = Arc::clone(&rt);
    let outer = rt.spawn_future(move || {
        let inner = rt2.spawn_future(|| -> u64 { panic!("inline boom") });
        match inner.touch_result() {
            Err(TaskError::Panicked(msg)) => msg.contains("inline boom"),
            _ => false,
        }
    });
    assert!(
        outer.touch(),
        "inner panic observed as an error by the outer task"
    );
    assert!(rt.stats().inline_runs >= 1, "the inline path was exercised");
    assert_eq!(rt.stats().panics, 1);
}

#[test]
fn touch_resurfaces_the_contained_panic() {
    // `touch()` (the panicking variant) re-raises the failure at the
    // synchronization point — the caller that demanded the value.
    let rt = Runtime::builder().threads(2).build();
    let f = rt.spawn_future(|| -> u64 { panic!("resurface me") });
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.touch()));
    let payload = caught.expect_err("touch must panic on a failed future");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("touched a failed future") && msg.contains("resurface me"),
        "got {msg:?}"
    );
}

#[test]
fn shutdown_timeout_succeeds_on_an_idle_pool() {
    let rt = Runtime::builder().threads(4).build();
    let futures: Vec<_> = (0..50u64).map(|i| rt.defer_future(move || i)).collect();
    let sum: u64 = futures.into_iter().map(|f| f.touch()).sum();
    assert_eq!(sum, 1225);
    let stats = rt
        .shutdown_timeout(Duration::from_secs(5))
        .expect("idle pool shuts down well before the deadline");
    assert_eq!(stats.futures_created, 50);
}

#[test]
fn shutdown_watchdog_names_the_hung_worker() {
    // A task that blocks indefinitely wedges its worker; shutdown_timeout
    // must return (not hang), name the worker, and say where it was stuck.
    let rt = Runtime::builder().threads(2).build();
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let _stuck = rt.defer_future(move || {
        while !g.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        0u64
    });
    // Let a worker dequeue the task and block in its body.
    std::thread::sleep(Duration::from_millis(30));

    let err = rt
        .shutdown_timeout(Duration::from_millis(50))
        .expect_err("a wedged worker must trip the watchdog");
    assert_eq!(err.hung.len(), 1, "exactly one worker is wedged: {err}");
    assert_eq!(err.hung[0].site, "executing a task", "{err}");
    let rendered = err.to_string();
    assert!(
        rendered.contains("shutdown timed out") && rendered.contains("executing a task"),
        "diagnostic names the site: {rendered}"
    );

    // Release the worker so the detached thread exits cleanly.
    gate.store(true, Ordering::Release);
}

#[test]
fn stats_snapshots_are_monotonic() {
    let rt = Arc::new(Runtime::builder().threads(2).build());
    let before = rt.stats();
    let _ = fib(&rt, 10);
    let after = rt.stats();
    let delta = after.since(&before);
    assert_eq!(
        delta.futures_created,
        after.futures_created - before.futures_created
    );
    assert!(delta.futures_created > 0);
    assert_stats_consistent(&delta, "delta snapshot");
}

/// Polls `done` until it holds, failing after ten seconds.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Fault hooks that apply `action` to the dequeued task numbered `seq`.
struct FaultAt {
    seq: u64,
    action: FaultAction,
}

impl FaultHooks for FaultAt {
    fn on_task(&self, _worker: usize, seq: u64) -> FaultAction {
        if seq == self.seq {
            self.action
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn per_worker_counters_sum_to_the_global_stats() {
    // `RuntimeStats::steals` and `tasks_executed` are the sums of the
    // cache-padded per-worker slots, so once the pool is quiescent the
    // two readings agree exactly — for a future-only fan-out, and again
    // after a mixed load of plain `spawn` tasks (from outside and from
    // inside tasks), deferred futures and spawned futures.
    for policy in SpawnPolicy::ALL {
        let rt = Arc::new(Runtime::builder().threads(4).policy(policy).build());
        let n = 18u64;
        assert_eq!(fib(&rt, n), fib_reference(n));
        assert_stats_consistent(&rt.stats(), &format!("per-worker sums / {policy}"));
        assert_sums_match(&rt, &format!("fib / {policy}"));

        let before = rt.stats();
        let spawned = Arc::new(AtomicU64::new(0));
        const OUTER: u64 = 64;
        for i in 0..OUTER {
            let (rt2, spawned) = (Arc::clone(&rt), Arc::clone(&spawned));
            rt.spawn(move || {
                for _ in 0..2 {
                    let spawned = Arc::clone(&spawned);
                    rt2.spawn(move || {
                        spawned.fetch_add(1, Ordering::Relaxed);
                    });
                }
                let deferred = rt2.defer_future(move || i);
                let rt3 = Arc::clone(&rt2);
                let inner = rt2.spawn_future(move || fib(&rt3, 6));
                assert_eq!(deferred.touch() + inner.touch(), i + 8);
                spawned.fetch_add(1, Ordering::Relaxed);
            });
        }
        wait_until("the mixed load", || {
            spawned.load(Ordering::Relaxed) == 3 * OUTER
        });
        let delta = rt.stats().since(&before);
        assert_eq!(delta.touches, delta.futures_created, "{policy}");
        assert!(
            delta.tasks_executed >= 3 * OUTER,
            "{policy}: every spawned body is an executed task: {delta:?}"
        );
        assert_sums_match(&rt, &format!("mixed load / {policy}"));
    }
}

/// The per-worker slots of a quiescent pool sum to its global counters.
fn assert_sums_match(rt: &Runtime, context: &str) {
    let stats = rt.stats();
    let workers = rt.worker_stats();
    assert_eq!(workers.len(), rt.num_threads(), "{context}: one per worker");
    for (i, w) in workers.iter().enumerate() {
        assert_eq!(w.index, i, "{context}: snapshots are worker-indexed");
        assert!(
            w.steals <= w.tasks_executed,
            "{context}: worker {i} stole {} tasks but executed only {}",
            w.steals,
            w.tasks_executed
        );
    }
    let steals: u64 = workers.iter().map(|w| w.steals).sum();
    let executed: u64 = workers.iter().map(|w| w.tasks_executed).sum();
    assert_eq!(steals, stats.steals, "{context}: per-worker steals");
    assert_eq!(
        executed, stats.tasks_executed,
        "{context}: per-worker executions"
    );
}

#[test]
fn spawn_runs_each_body_exactly_once_without_a_future() {
    const TASKS: u64 = 200;
    for policy in SpawnPolicy::ALL {
        for threads in [1usize, 2, 4] {
            let rt = Arc::new(Runtime::builder().threads(threads).policy(policy).build());
            let ran = Arc::new(AtomicU64::new(0));
            for _ in 0..TASKS {
                let ran = Arc::clone(&ran);
                rt.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            wait_until("the spawned bodies", || {
                ran.load(Ordering::Relaxed) == TASKS
            });
            std::thread::sleep(Duration::from_millis(10));
            let at = format!("{policy}/{threads}t");
            assert_eq!(ran.load(Ordering::Relaxed), TASKS, "{at}: once each");
            let stats = rt.stats();
            assert_eq!(stats.tasks_executed, TASKS, "{at}: one task per spawn");
            assert_eq!(stats.futures_created, 0, "{at}: spawn makes no future");
            assert_eq!(stats.inline_runs, 0, "{at}");
            assert_eq!(stats.panics, 0, "{at}");
        }
    }
}

#[test]
fn spawn_on_a_worker_is_queued_not_run_inline_under_child_first() {
    // One worker, child-first: a future spawned here would run inline. A
    // plain task must instead wait on the worker's deque until the task
    // that spawned it returns, and then run on that same worker.
    let rt = Arc::new(
        Runtime::builder()
            .threads(1)
            .policy(SpawnPolicy::ChildFirst)
            .build(),
    );
    let ran_on = Arc::new(AtomicU64::new(u64::MAX));
    let (rt2, ran_on2) = (Arc::clone(&rt), Arc::clone(&ran_on));
    let outer = rt.spawn_future(move || {
        let (rt3, ran_on3) = (Arc::clone(&rt2), Arc::clone(&ran_on2));
        rt2.spawn(move || {
            let worker = rt3.current_worker().expect("runs on a worker");
            ran_on3.store(worker as u64, Ordering::Relaxed);
        });
        ran_on2.load(Ordering::Relaxed)
    });
    assert_eq!(outer.touch(), u64::MAX, "the body ran inline at spawn");
    wait_until("the queued task", || ran_on.load(Ordering::Relaxed) == 0);
    let stats = rt.stats();
    assert_eq!(stats.inline_runs, 0, "nothing ran inline");
    assert_eq!(stats.futures_created, 1, "only the outer future");
    assert_eq!(stats.tasks_executed, 2);
}

#[test]
fn spawn_under_an_injected_kill_skips_the_body() {
    let rt = Runtime::builder()
        .threads(2)
        .fault_hooks(Arc::new(FaultAt {
            seq: 0,
            action: FaultAction::KillWorker,
        }))
        .build();
    let (killed, after) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let flag = Arc::clone(&killed);
    rt.spawn(move || flag.store(true, Ordering::Release));
    wait_until("the kill", || rt.stats().worker_deaths == 1);
    let flag = Arc::clone(&after);
    rt.spawn(move || flag.store(true, Ordering::Release));
    wait_until("the surviving worker", || after.load(Ordering::Acquire));
    assert!(
        !killed.load(Ordering::Acquire),
        "the killed task's body ran"
    );
    assert_eq!(rt.live_workers(), 1);
    assert_eq!(rt.stats().panics, 0);
}

#[test]
fn spawn_panics_are_counted_and_the_worker_goes_on() {
    // One worker: the injected panic (task 0) and the body's own panic
    // (task 1) are both contained, and that same worker runs task 2.
    let rt = Runtime::builder()
        .threads(1)
        .fault_hooks(Arc::new(FaultAt {
            seq: 0,
            action: FaultAction::PanicTask,
        }))
        .build();
    let (injected, last) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let flag = Arc::clone(&injected);
    rt.spawn(move || flag.store(true, Ordering::Release));
    wait_until("the injected panic", || rt.stats().panics == 1);
    rt.spawn(|| panic!("intentional spawned-task panic"));
    wait_until("the body's panic", || rt.stats().panics == 2);
    let flag = Arc::clone(&last);
    rt.spawn(move || flag.store(true, Ordering::Release));
    wait_until("the task after the panics", || last.load(Ordering::Acquire));
    assert!(
        !injected.load(Ordering::Acquire),
        "an injected panic skips the body"
    );
    let stats = rt.stats();
    assert_eq!((stats.panics, stats.tasks_executed), (2, 3), "{stats:?}");
    assert_eq!((rt.live_workers(), stats.worker_deaths), (1, 0));
}
