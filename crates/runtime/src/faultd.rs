//! `faultd` — deterministic, seed-driven fault injection for the runtime.
//!
//! Crash-recovery code that is only ever exercised by real crashes is
//! untested code. This module lets tests and experiments *cause* failures
//! on demand, deterministically: a [`FaultPlan`] derived from a seed
//! decides, purely as a function of a global task sequence number, which
//! task panics, which execution kills its worker, and how often injector
//! operations or wakeups stall. The same seed always produces the same
//! plan, so a failing fault schedule is replayable by seed alone — the
//! seeded-schedule-exploration spirit of parsimonious DPOR applied to
//! fault schedules rather than interleavings.
//!
//! The runtime consults the hooks through [`FaultHooks`], an object-safe
//! trait stored as `Option<Arc<dyn FaultHooks>>` on the pool. When no
//! hooks are installed (the default, and every production configuration)
//! each dispatch site pays one always-false branch on an `Option` that
//! never changes after construction — the zero-cost-when-disabled
//! discipline. The per-task sequence counter is only advanced when hooks
//! are present.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wsf_deque::StallSite;

/// What the fault layer decided for one dequeued task.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Run the task normally.
    None,
    /// Make the task body panic (through the real unwind path; the panic
    /// is contained by the worker's `catch_unwind`, counted, and — for a
    /// future's task — surfaced as a [`crate::TaskError::Panicked`] at
    /// touch time).
    PanicTask,
    /// Fail the task's future with [`crate::TaskError::WorkerKilled`] (a
    /// plain [`crate::Runtime::spawn`] task is dropped unrun) and
    /// terminate the executing worker permanently — a crashed worker. The
    /// pool degrades to the surviving workers; tasks left on the dead
    /// worker's deque remain stealable.
    KillWorker,
    /// Sleep for the given duration before running the task (a stalled
    /// worker).
    StallTask(Duration),
}

/// Injection points the runtime consults while executing.
///
/// Every method has a no-fault default, so an implementation overrides
/// only the sites it cares about. Implementations must be deterministic
/// functions of their arguments and internal (seeded) state if the fault
/// schedule is to be replayable.
pub trait FaultHooks: Send + Sync + 'static {
    /// Called once per task dequeued by a worker, with the worker index
    /// and the global task sequence number (a counter over all dequeued
    /// tasks, advanced only when hooks are installed).
    fn on_task(&self, _worker: usize, _seq: u64) -> FaultAction {
        FaultAction::None
    }

    /// Called when a parked worker wakes; returns an extra delay to apply
    /// before it rescans for work (a delayed wakeup).
    fn on_wakeup(&self, _worker: usize) -> Option<Duration> {
        None
    }

    /// Called at the top of every injector push/steal, before the
    /// injector's lock is taken; returns how long the operation should
    /// stall, which delays only its caller.
    fn on_injector(&self, _site: StallSite) -> Option<Duration> {
        None
    }
}

/// Parameters from which [`FaultPlan::seeded`] draws a concrete plan.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Task-sequence horizon: panic/kill sequence numbers are drawn
    /// uniformly from `0..horizon`. Choose it at most the number of tasks
    /// the workload is guaranteed to dequeue so every drawn fault fires.
    pub horizon: u64,
    /// Number of injected task panics.
    pub panics: usize,
    /// Number of injected worker kills.
    pub kills: usize,
    /// Every `stall_period`-th injector operation stalls (0 disables).
    pub stall_period: u64,
    /// How long a stalled injector operation sleeps.
    pub stall: Duration,
    /// Every `wakeup_period`-th wakeup is delayed (0 disables).
    pub wakeup_period: u64,
    /// How long a delayed wakeup sleeps.
    pub wakeup_delay: Duration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            horizon: 256,
            panics: 2,
            kills: 1,
            stall_period: 7,
            stall: Duration::from_micros(200),
            wakeup_period: 5,
            wakeup_delay: Duration::from_micros(100),
        }
    }
}

/// A concrete, replayable fault schedule: sorted task-sequence numbers
/// for panics and kills plus stall/delay cadences, all derived from a
/// seed. Implements [`FaultHooks`]; counters record what actually fired
/// so tests can assert the schedule was exercised.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    panics: Vec<u64>,
    kills: Vec<u64>,
    stall_period: u64,
    stall: Duration,
    wakeup_period: u64,
    wakeup_delay: Duration,
    injector_ops: AtomicU64,
    wakeups: AtomicU64,
    fired_panics: AtomicU64,
    fired_kills: AtomicU64,
    fired_stalls: AtomicU64,
    fired_delays: AtomicU64,
}

/// Parses the text of a `WSF_FAULT_SEED` setting: unset is `None`, a
/// decimal `u64` is that seed, anything else is an error naming the text.
fn parse_fault_seed(value: Option<&str>) -> Result<Option<u64>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|e| format!("WSF_FAULT_SEED={v:?} is not a decimal u64 seed: {e}"))
        })
        .transpose()
}

/// The seed `WSF_FAULT_SEED` selects for seeded fault plans (the CI
/// fault-matrix job sweeps it), `None` when unset. The one place the
/// variable is read.
///
/// # Panics
///
/// On a value that is not a decimal `u64`, naming the offending text: a
/// malformed seed must not silently replay another schedule (or arm
/// none), or a fault-matrix leg passes vacuously.
pub fn fault_seed_from_env() -> Option<u64> {
    let value = std::env::var_os("WSF_FAULT_SEED").map(|v| v.to_string_lossy().into_owned());
    parse_fault_seed(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// `splitmix64` — the tiny, high-quality mixer used to expand the seed
/// into draw decisions (deterministic, dependency-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Draws a concrete plan from `seed` under `spec`. The same
    /// `(seed, spec)` always yields the same plan. Panic and kill
    /// sequence numbers are distinct (a task either panics or kills its
    /// worker, never both).
    pub fn seeded(seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut rng = seed ^ 0xd6e8_feb8_6659_fd93;
        let wanted = spec.panics + spec.kills;
        let mut drawn: Vec<u64> = Vec::with_capacity(wanted);
        // Rejection-sample distinct sequence numbers; the horizon is
        // clamped so the draw always terminates.
        let horizon = spec.horizon.max(wanted as u64).max(1);
        while drawn.len() < wanted {
            let s = splitmix64(&mut rng) % horizon;
            if !drawn.contains(&s) {
                drawn.push(s);
            }
        }
        let mut panics: Vec<u64> = drawn[..spec.panics].to_vec();
        let mut kills: Vec<u64> = drawn[spec.panics..].to_vec();
        panics.sort_unstable();
        kills.sort_unstable();
        FaultPlan {
            seed,
            panics,
            kills,
            stall_period: spec.stall_period,
            stall: spec.stall,
            wakeup_period: spec.wakeup_period,
            wakeup_delay: spec.wakeup_delay,
            injector_ops: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fired_panics: AtomicU64::new(0),
            fired_kills: AtomicU64::new(0),
            fired_stalls: AtomicU64::new(0),
            fired_delays: AtomicU64::new(0),
        }
    }

    /// The seed the plan was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Task sequence numbers scheduled to panic.
    pub fn panic_seqs(&self) -> &[u64] {
        &self.panics
    }

    /// Task sequence numbers scheduled to kill their worker.
    pub fn kill_seqs(&self) -> &[u64] {
        &self.kills
    }

    /// Injected panics that actually fired so far.
    pub fn fired_panics(&self) -> u64 {
        self.fired_panics.load(Ordering::Relaxed)
    }

    /// Injected worker kills that actually fired so far.
    pub fn fired_kills(&self) -> u64 {
        self.fired_kills.load(Ordering::Relaxed)
    }

    /// Injector stalls that actually fired so far.
    pub fn fired_stalls(&self) -> u64 {
        self.fired_stalls.load(Ordering::Relaxed)
    }

    /// Delayed wakeups that actually fired so far.
    pub fn fired_delays(&self) -> u64 {
        self.fired_delays.load(Ordering::Relaxed)
    }

    /// A one-line, deterministic description of the drawn schedule
    /// (suitable for table cells: independent of what has fired).
    pub fn describe(&self) -> String {
        format!(
            "{}p/{}k stall%{} wake%{}",
            self.panics.len(),
            self.kills.len(),
            self.stall_period,
            self.wakeup_period
        )
    }
}

impl FaultHooks for FaultPlan {
    fn on_task(&self, _worker: usize, seq: u64) -> FaultAction {
        if self.kills.binary_search(&seq).is_ok() {
            self.fired_kills.fetch_add(1, Ordering::Relaxed);
            return FaultAction::KillWorker;
        }
        if self.panics.binary_search(&seq).is_ok() {
            self.fired_panics.fetch_add(1, Ordering::Relaxed);
            return FaultAction::PanicTask;
        }
        FaultAction::None
    }

    fn on_wakeup(&self, _worker: usize) -> Option<Duration> {
        if self.wakeup_period == 0 {
            return None;
        }
        let n = self.wakeups.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.wakeup_period) {
            self.fired_delays.fetch_add(1, Ordering::Relaxed);
            Some(self.wakeup_delay)
        } else {
            None
        }
    }

    fn on_injector(&self, _site: StallSite) -> Option<Duration> {
        if self.stall_period == 0 {
            return None;
        }
        let n = self.injector_ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.stall_period) {
            self.fired_stalls.fetch_add(1, Ordering::Relaxed);
            Some(self.stall)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_disjoint() {
        let spec = FaultSpec {
            horizon: 64,
            panics: 4,
            kills: 3,
            ..FaultSpec::default()
        };
        let a = FaultPlan::seeded(17, &spec);
        let b = FaultPlan::seeded(17, &spec);
        assert_eq!(a.panic_seqs(), b.panic_seqs());
        assert_eq!(a.kill_seqs(), b.kill_seqs());
        assert_eq!(a.panic_seqs().len(), 4);
        assert_eq!(a.kill_seqs().len(), 3);
        for s in a.panic_seqs() {
            assert!(!a.kill_seqs().contains(s), "panic and kill share seq {s}");
            assert!(*s < 64);
        }
        let c = FaultPlan::seeded(18, &spec);
        assert!(
            a.panic_seqs() != c.panic_seqs() || a.kill_seqs() != c.kill_seqs(),
            "different seeds should draw different schedules"
        );
    }

    #[test]
    fn plan_fires_at_exactly_the_drawn_seqs() {
        let spec = FaultSpec {
            horizon: 32,
            panics: 2,
            kills: 1,
            stall_period: 3,
            wakeup_period: 2,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::seeded(5, &spec);
        let mut panics = 0;
        let mut kills = 0;
        for seq in 0..32 {
            match plan.on_task(0, seq) {
                FaultAction::PanicTask => panics += 1,
                FaultAction::KillWorker => kills += 1,
                FaultAction::None => {}
                FaultAction::StallTask(_) => unreachable!("plan never stalls tasks"),
            }
        }
        assert_eq!(panics, 2);
        assert_eq!(kills, 1);
        assert_eq!(plan.fired_panics(), 2);
        assert_eq!(plan.fired_kills(), 1);

        // Cadence hooks: every 3rd injector op, every 2nd wakeup.
        let stalls = (1..=9)
            .filter(|_| plan.on_injector(StallSite::Push).is_some())
            .count();
        assert_eq!(stalls, 3);
        let delays = (1..=4).filter(|_| plan.on_wakeup(0).is_some()).count();
        assert_eq!(delays, 2);
    }

    #[test]
    fn horizon_smaller_than_faults_still_terminates() {
        let spec = FaultSpec {
            horizon: 1,
            panics: 3,
            kills: 2,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::seeded(0, &spec);
        assert_eq!(plan.panic_seqs().len() + plan.kill_seqs().len(), 5);
    }

    #[test]
    fn fault_seed_text_is_a_decimal_u64_or_an_error_naming_it() {
        assert_eq!(parse_fault_seed(None), Ok(None));
        assert_eq!(parse_fault_seed(Some("7")), Ok(Some(7)));
        for bad in ["", "0x17", "-1", " 7", "18446744073709551616"] {
            let err = parse_fault_seed(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("WSF_FAULT_SEED={bad:?}")), "{err}");
        }
    }

    #[test]
    fn default_hooks_are_no_ops() {
        struct Quiet;
        impl FaultHooks for Quiet {}
        let q = Quiet;
        assert_eq!(q.on_task(0, 0), FaultAction::None);
        assert!(q.on_wakeup(0).is_none());
        assert!(q.on_injector(StallSite::Steal).is_none());
    }
}
