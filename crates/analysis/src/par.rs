//! Deterministic thread-sharding for experiment sweeps.
//!
//! Every cell of a sweep — one `(workload, seed, P, policy, cache)`
//! combination — is an independent, pure simulation, so sweeps are
//! embarrassingly parallel. [`par_map`] evaluates the cell function on a
//! small thread pool and returns the results **in input order**, which
//! makes a parallel sweep bit-identical to the sequential one: tables are
//! assembled from the ordered results exactly as the sequential loops would
//! have pushed them.
//!
//! The worker count comes from [`set_threads`] (the harness's `--threads`
//! flag), else the machine's available parallelism. `threads() == 1` runs
//! cells inline with no thread machinery at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 = "not set": fall back to the available parallelism.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of worker threads sweeps use. `0` restores the default
/// (the available parallelism).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads sweeps will use.
pub fn threads() -> usize {
    let configured = THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, possibly across threads, returning the
/// results in input order (deterministic regardless of the thread count).
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = threads().min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(work.len()));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= work.len() {
                    break;
                }
                let item = work[idx]
                    .lock()
                    .expect("work item lock poisoned")
                    .take()
                    .expect("work item claimed twice");
                let out = f(item);
                results
                    .lock()
                    .expect("results lock poisoned")
                    .push((idx, out));
            });
        }
    });

    let mut collected = results.into_inner().expect("results lock poisoned");
    collected.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(collected.len(), work.len());
    collected.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, because `set_threads` mutates process-global state and the
    /// test harness runs `#[test]` functions concurrently.
    #[test]
    fn par_map_is_ordered_at_every_thread_count() {
        for workers in [4usize, 1] {
            set_threads(workers);
            assert_eq!(threads(), workers);
            let out = par_map((0..100).collect::<Vec<_>>(), |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(par_map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        }
        set_threads(0);
        assert!(threads() >= 1, "default resolution yields a worker");
    }
}
