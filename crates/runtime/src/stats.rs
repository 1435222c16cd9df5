//! Runtime execution counters.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Pool-wide atomic counters for the events no single worker owns:
/// future creation and touches (any thread), wake-ups (any pusher),
/// panics, deaths and idle scans. The per-task counters live in
/// [`WorkerCounters`]; [`AtomicStats::snapshot`] adds their sums in.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub failed_steals: AtomicU64,
    pub futures_created: AtomicU64,
    pub touches: AtomicU64,
    pub inline_runs: AtomicU64,
    pub helped_tasks: AtomicU64,
    pub wakeups: AtomicU64,
    pub panics: AtomicU64,
    pub worker_deaths: AtomicU64,
}

impl AtomicStats {
    /// The pool-wide counters plus the sums of the per-worker ones.
    pub(crate) fn snapshot<'a>(
        &self,
        workers: impl IntoIterator<Item = &'a WorkerCounters>,
    ) -> RuntimeStats {
        let (tasks_executed, steals) = workers.into_iter().fold((0, 0), |(t, s), w| {
            (
                t + w.executed.load(Ordering::Relaxed),
                s + w.steals.load(Ordering::Relaxed),
            )
        });
        RuntimeStats {
            tasks_executed,
            steals,
            failed_steals: self.failed_steals.load(Ordering::Relaxed),
            futures_created: self.futures_created.load(Ordering::Relaxed),
            touches: self.touches.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            helped_tasks: self.helped_tasks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
        }
    }
}

/// One worker's own counters and shutdown-watchdog site, written only by
/// that worker. The pool keeps each slot on its own cache line, so the
/// per-task writes never contend or false-share; `RuntimeStats`'
/// `tasks_executed` and `steals` are the sums of these slots.
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    pub steals: AtomicU64,
    pub executed: AtomicU64,
    /// Where the worker currently is (the pool's `SITE_*` tags), stored
    /// relaxed; purely informational.
    pub site: AtomicU8,
}

/// A point-in-time snapshot of one worker's counters (see
/// [`crate::Runtime::worker_stats`]). The [`RuntimeStats`] `steals` and
/// `tasks_executed` totals are the sums of these per-worker figures, so
/// once the pool is quiescent the two readings agree exactly.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's index in the pool.
    pub index: usize,
    /// Successful steals performed *by* this worker.
    pub steals: u64,
    /// Deque/injector tasks executed by this worker (including tasks run
    /// while helping inside a touch).
    pub tasks_executed: u64,
}

/// A point-in-time snapshot of the runtime's counters.
///
/// These are the observable analogues of the quantities the simulator
/// counts exactly: steals correspond to potential deviations, and
/// `inline_runs` counts futures executed by their creating worker without
/// ever becoming stealable (perfect locality).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Deque/injector tasks executed by the workers.
    pub tasks_executed: u64,
    /// Successful steals between workers.
    pub steals: u64,
    /// Steal attempts that found every other deque empty.
    pub failed_steals: u64,
    /// Futures created.
    pub futures_created: u64,
    /// Futures touched.
    pub touches: u64,
    /// Futures run inline by their creator (child-first fast path).
    pub inline_runs: u64,
    /// Tasks executed while helping inside a touch.
    pub helped_tasks: u64,
    /// Idle-worker wakeups issued on task arrival. Each push wakes at most
    /// one parked worker (`notify_one`) and none when every worker is
    /// already awake, so this stays bounded by the number of queued tasks
    /// instead of multiplying by the worker count (the pre-fix
    /// `notify_all`-per-push thundering herd).
    pub wakeups: u64,
    /// Task-body panics contained by the workers' `catch_unwind`. Each one
    /// fails its future with [`crate::TaskError::Panicked`] instead of
    /// unwinding through (and losing) the worker thread.
    pub panics: u64,
    /// Workers killed permanently by the fault injector. The pool degrades
    /// to the surviving workers; the dead worker's queued tasks remain
    /// stealable.
    pub worker_deaths: u64,
}

impl RuntimeStats {
    /// Difference of two snapshots (`self` minus `earlier`), saturating.
    pub fn since(&self, earlier: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            steals: self.steals.saturating_sub(earlier.steals),
            failed_steals: self.failed_steals.saturating_sub(earlier.failed_steals),
            futures_created: self.futures_created.saturating_sub(earlier.futures_created),
            touches: self.touches.saturating_sub(earlier.touches),
            inline_runs: self.inline_runs.saturating_sub(earlier.inline_runs),
            helped_tasks: self.helped_tasks.saturating_sub(earlier.helped_tasks),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            panics: self.panics.saturating_sub(earlier.panics),
            worker_deaths: self.worker_deaths.saturating_sub(earlier.worker_deaths),
        }
    }

    /// Field-wise accumulation of a delta into a running total, saturating.
    /// Per-tenant accounting takes [`RuntimeStats::since`] deltas bracketing
    /// each submission window and folds them into the tenant's tally.
    pub fn accumulate(&mut self, delta: &RuntimeStats) {
        self.tasks_executed = self.tasks_executed.saturating_add(delta.tasks_executed);
        self.steals = self.steals.saturating_add(delta.steals);
        self.failed_steals = self.failed_steals.saturating_add(delta.failed_steals);
        self.futures_created = self.futures_created.saturating_add(delta.futures_created);
        self.touches = self.touches.saturating_add(delta.touches);
        self.inline_runs = self.inline_runs.saturating_add(delta.inline_runs);
        self.helped_tasks = self.helped_tasks.saturating_add(delta.helped_tasks);
        self.wakeups = self.wakeups.saturating_add(delta.wakeups);
        self.panics = self.panics.saturating_add(delta.panics);
        self.worker_deaths = self.worker_deaths.saturating_add(delta.worker_deaths);
    }

    /// Fraction of created futures that were run inline by their creator.
    pub fn inline_fraction(&self) -> f64 {
        if self.futures_created == 0 {
            0.0
        } else {
            self.inline_runs as f64 / self.futures_created as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let a = AtomicStats::default();
        let workers = [WorkerCounters::default(), WorkerCounters::default()];
        workers[0].executed.store(6, Ordering::Relaxed);
        workers[1].executed.store(4, Ordering::Relaxed);
        workers[1].steals.store(3, Ordering::Relaxed);
        a.futures_created.store(4, Ordering::Relaxed);
        a.inline_runs.store(2, Ordering::Relaxed);
        let s1 = a.snapshot(&workers);
        assert_eq!(s1.tasks_executed, 10, "summed over the workers");
        assert_eq!(s1.steals, 3);
        assert!((s1.inline_fraction() - 0.5).abs() < 1e-12);

        workers[0].executed.store(11, Ordering::Relaxed);
        let s2 = a.snapshot(&workers);
        let d = s2.since(&s1);
        assert_eq!(d.tasks_executed, 5);
        assert_eq!(d.steals, 0);
    }

    #[test]
    fn accumulate_is_field_wise_and_saturating() {
        let mut total = RuntimeStats {
            tasks_executed: 7,
            steals: 1,
            ..RuntimeStats::default()
        };
        let delta = RuntimeStats {
            tasks_executed: 3,
            futures_created: 2,
            worker_deaths: u64::MAX,
            ..RuntimeStats::default()
        };
        total.accumulate(&delta);
        assert_eq!(total.tasks_executed, 10);
        assert_eq!(total.steals, 1);
        assert_eq!(total.futures_created, 2);
        total.accumulate(&delta);
        assert_eq!(total.worker_deaths, u64::MAX);
    }

    #[test]
    fn inline_fraction_handles_zero() {
        assert_eq!(RuntimeStats::default().inline_fraction(), 0.0);
    }
}
