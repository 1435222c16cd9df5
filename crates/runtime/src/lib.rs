//! # wsf-runtime — a work-stealing runtime with structured single-touch futures
//!
//! A real (thread-based) counterpart to the execution simulator in
//! `wsf-core`: a rayon-style work-stealing thread pool whose unit of
//! parallelism is the *single-touch future* of the paper.
//!
//! * Each worker owns a lock-free Chase–Lev deque (`wsf-deque`); idle
//!   workers steal from the top of other workers' deques — the
//!   parsimonious work-stealing scheduler of Section 3.
//! * [`Runtime::spawn_future`] creates a future; [`Future::touch`] consumes
//!   the handle, so every future is touched at most once — the structured
//!   single-touch discipline (Definition 2) enforced by the type system.
//!   Handles may be sent to other tasks before being touched, which is the
//!   "future passed to another thread" pattern of Figure 5(b).
//! * [`SpawnPolicy`] selects between child-first (future-first) and
//!   helper-first (parent-first) scheduling of newly created futures, the
//!   choice whose locality consequences Theorems 8 and 10 contrast.
//! * [`Runtime::join`] is the fork-join special case (Cilk spawn/sync).
//! * [`Runtime::spawn`] queues a plain task with no future at all, for
//!   work whose result travels some other way (a `dag_exec` chain
//!   publishes through its DAG's join counters): one boxed task, no
//!   completion slot, never run inline.
//! * [`Runtime::stats`] and [`Runtime::worker_stats`] read the counters;
//!   the per-task ones (`tasks_executed`, `steals`) live in cache-padded
//!   per-worker slots and the totals are their sums.
//!
//! ```
//! use wsf_runtime::Runtime;
//!
//! fn fib(rt: &std::sync::Arc<Runtime>, n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let rt2 = std::sync::Arc::clone(rt);
//!     let f = rt.spawn_future(move || fib(&rt2, n - 1));
//!     let rest = fib(rt, n - 2);
//!     f.touch() + rest
//! }
//!
//! let rt = std::sync::Arc::new(Runtime::new(2));
//! assert_eq!(fib(&rt, 12), 144);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod epoch;
mod faultd;
mod future;
mod policy;
mod pool;
mod stats;
mod trace;

pub use epoch::{
    sequential_reference, Checkpoint, CheckpointStore, EngineError, EngineReport, EpochConfig,
    StreamEngine, StreamSource, StreamStage,
};
pub use faultd::{fault_seed_from_env, FaultAction, FaultHooks, FaultPlan, FaultSpec};
pub use future::{Future, TaskError, TouchOutcome};
pub use policy::SpawnPolicy;
pub use pool::{HungWorker, Runtime, RuntimeBuilder, ShutdownError};
pub use stats::{RuntimeStats, WorkerStats};
pub use trace::{TaskOrigin, TouchEvent, TouchTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn runtimes_under_test() -> Vec<Arc<Runtime>> {
        SpawnPolicy::ALL
            .iter()
            .flat_map(|&policy| {
                [1usize, 2, 4].into_iter().map(move |threads| {
                    Arc::new(Runtime::builder().threads(threads).policy(policy).build())
                })
            })
            .collect()
    }

    #[test]
    fn single_future_round_trip() {
        for rt in runtimes_under_test() {
            let f = rt.spawn_future(|| 6 * 7);
            assert_eq!(f.touch(), 42);
            assert!(rt.stats().futures_created >= 1);
            assert!(rt.stats().touches >= 1);
        }
    }

    #[test]
    fn many_independent_futures() {
        for rt in runtimes_under_test() {
            let futures: Vec<_> = (0..100u64)
                .map(|i| rt.spawn_future(move || i * i))
                .collect();
            let total: u64 = futures.into_iter().map(|f| f.touch()).sum();
            assert_eq!(total, (0..100u64).map(|i| i * i).sum());
        }
    }

    #[test]
    fn nested_fib_with_futures() {
        fn fib(rt: &Arc<Runtime>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let rt2 = Arc::clone(rt);
            let f = rt.spawn_future(move || fib(&rt2, n - 1));
            let rest = fib(rt, n - 2);
            f.touch() + rest
        }
        for rt in runtimes_under_test() {
            assert_eq!(fib(&rt, 15), 610);
        }
    }

    #[test]
    fn join_runs_both_sides() {
        for rt in runtimes_under_test() {
            let counter = Arc::new(AtomicU64::new(0));
            let (c1, c2) = (Arc::clone(&counter), Arc::clone(&counter));
            let (a, b) = rt.join(
                move || {
                    c1.fetch_add(1, Ordering::SeqCst);
                    "left"
                },
                move || {
                    c2.fetch_add(1, Ordering::SeqCst);
                    "right"
                },
            );
            assert_eq!((a, b), ("left", "right"));
            assert_eq!(counter.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn nested_joins_compute_a_reduction() {
        fn sum(rt: &Arc<Runtime>, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let rt_a = Arc::clone(rt);
            let rt_b = Arc::clone(rt);
            let (a, b) = rt.join(move || sum(&rt_a, lo, mid), move || sum(&rt_b, mid, hi));
            a + b
        }
        for rt in runtimes_under_test() {
            assert_eq!(sum(&rt, 0, 1000), 499_500);
        }
    }

    #[test]
    fn futures_passed_to_other_tasks_single_touch() {
        // Figure 5(b): a future created by one task is touched by another.
        for rt in runtimes_under_test() {
            let x = rt.spawn_future(|| 21u64);
            let rt2 = Arc::clone(&rt);
            let consumer = rt.spawn_future(move || x.touch() * 2);
            assert_eq!(consumer.touch(), 42);
            drop(rt2);
        }
    }

    #[test]
    fn futures_touched_in_creation_order() {
        // Figure 5(a): futures touched in an order fork-join cannot express.
        for rt in runtimes_under_test() {
            let a = rt.spawn_future(|| 1u32);
            let b = rt.spawn_future(|| 2u32);
            let c = rt.spawn_future(|| 3u32);
            assert_eq!(a.touch(), 1);
            assert_eq!(b.touch(), 2);
            assert_eq!(c.touch(), 3);
        }
    }

    #[test]
    fn is_ready_becomes_true_after_completion() {
        let rt = Runtime::builder().threads(2).build();
        let f = rt.spawn_future(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            5
        });
        // Eventually ready (worker executes it); poll with a timeout.
        let start = std::time::Instant::now();
        while !f.is_ready() && start.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(f.touch(), 5);
    }

    #[test]
    fn child_first_runs_futures_inline_on_workers() {
        let rt = Arc::new(
            Runtime::builder()
                .threads(2)
                .policy(SpawnPolicy::ChildFirst)
                .build(),
        );
        // Spawn a future from *inside* a worker task so the child-first
        // inline fast path applies.
        let rt2 = Arc::clone(&rt);
        let outer = rt.spawn_future(move || {
            let inner = rt2.spawn_future(|| 7u64);
            inner.touch() + 1
        });
        assert_eq!(outer.touch(), 8);
        let stats = rt.stats();
        assert!(stats.inline_runs >= 1, "stats: {stats:?}");
    }

    #[test]
    fn helper_first_defers_futures_to_the_deque() {
        let rt = Arc::new(
            Runtime::builder()
                .threads(2)
                .policy(SpawnPolicy::HelperFirst)
                .build(),
        );
        let rt2 = Arc::clone(&rt);
        let outer = rt.spawn_future(move || {
            let fs: Vec<_> = (0..16u64).map(|i| rt2.spawn_future(move || i)).collect();
            fs.into_iter().map(|f| f.touch()).sum::<u64>()
        });
        assert_eq!(outer.touch(), 120);
        assert_eq!(rt.stats().inline_runs, 0, "helper-first never runs inline");
    }

    #[test]
    fn builder_accessors() {
        let rt = Runtime::builder()
            .threads(3)
            .policy(SpawnPolicy::HelperFirst)
            .inline_depth_limit(4)
            .build();
        assert_eq!(rt.num_threads(), 3);
        assert_eq!(rt.policy(), SpawnPolicy::HelperFirst);
        // No work has been submitted; only idle-scan counters may be nonzero.
        let stats = rt.stats();
        assert_eq!(stats.futures_created, 0);
        assert_eq!(stats.tasks_executed, 0);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.touches, 0);
    }

    #[test]
    fn deep_inline_recursion_falls_back_to_the_deque() {
        let rt = Arc::new(
            Runtime::builder()
                .threads(2)
                .policy(SpawnPolicy::ChildFirst)
                .inline_depth_limit(4)
                .build(),
        );
        fn chain(rt: &Arc<Runtime>, depth: u64) -> u64 {
            if depth == 0 {
                return 0;
            }
            let rt2 = Arc::clone(rt);
            let f = rt.spawn_future(move || chain(&rt2, depth - 1));
            f.touch() + 1
        }
        let rt2 = Arc::clone(&rt);
        let outer = rt.spawn_future(move || chain(&rt2, 64));
        assert_eq!(outer.touch(), 64);
    }

    #[test]
    fn stats_accumulate_across_work() {
        let rt = Arc::new(Runtime::builder().threads(4).build());
        let before = rt.stats();
        let futures: Vec<_> = (0..50u64).map(|i| rt.defer_future(move || i)).collect();
        let sum: u64 = futures.into_iter().map(|f| f.touch()).sum();
        assert_eq!(sum, 1225);
        let delta = rt.stats().since(&before);
        assert_eq!(delta.futures_created, 50);
        assert_eq!(delta.touches, 50);
        assert!(delta.tasks_executed >= 50);
    }
}
