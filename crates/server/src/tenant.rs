//! Per-tenant configuration and accounting.
//!
//! A tenant owns a scheduler policy ([`wsf_core::PolicyConfig`]), simulated
//! machine parameters and a seed, so every submission it sends executes
//! deterministically — the property E20 leans on to make its per-tenant
//! miss tables byte-identical at every `--threads`. Execution-side
//! accounting accumulates [`RuntimeStats::since`] deltas bracketing each
//! submission ([`RuntimeStats::accumulate`]); on a concurrent server the
//! windows of different tenants may overlap, so the runtime-stat tally is
//! an attribution estimate, while the miss/deviation tallies are exact
//! sums of deterministic per-submission counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wsf_core::{ForkPolicy, PolicyConfig, SimConfig};
use wsf_runtime::RuntimeStats;

/// Static per-tenant configuration fixed at server construction.
#[derive(Copy, Clone, Debug)]
pub struct TenantSpec {
    /// Steal policy executing this tenant's DAGs.
    pub policy: PolicyConfig,
    /// Simulated processor count.
    pub processors: usize,
    /// Simulated cache lines per processor.
    pub cache_lines: usize,
    /// Fork policy of the simulated machine.
    pub fork_policy: ForkPolicy,
    /// Simulation seed (victim-order randomness is seeded separately inside
    /// `policy`).
    pub seed: u64,
}

impl TenantSpec {
    /// A work-stealing default tenant: `ws-half` stealing, 4 processors,
    /// 64-line caches, future-first forking, seeded from `seed`.
    pub fn default_with_seed(seed: u64) -> Self {
        TenantSpec {
            policy: PolicyConfig::ws_half(seed),
            processors: 4,
            cache_lines: 64,
            fork_policy: ForkPolicy::FutureFirst,
            seed,
        }
    }

    /// The simulator configuration for this tenant's submissions.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.processors, self.cache_lines, self.fork_policy).with_seed(self.seed)
    }
}

/// Live per-tenant state: the spec plus lock-free accounting counters.
#[derive(Debug)]
pub struct TenantState {
    pub(crate) spec: TenantSpec,
    pub(crate) inflight: AtomicU64,
    pub(crate) footprint_inflight: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) deviations: AtomicU64,
    pub(crate) stats: Mutex<RuntimeStats>,
}

impl TenantState {
    pub(crate) fn new(spec: TenantSpec) -> Self {
        TenantState {
            spec,
            inflight: AtomicU64::new(0),
            footprint_inflight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            deviations: AtomicU64::new(0),
            stats: Mutex::new(RuntimeStats::default()),
        }
    }

    /// A consistent-enough snapshot of the tenant's tallies.
    pub fn report(&self) -> TenantReport {
        TenantReport {
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failed: 0,
            misses: self.misses.load(Ordering::Relaxed),
            deviations: self.deviations.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            stats: *self.stats.lock().unwrap(),
        }
    }
}

/// Snapshot of a tenant's accounting.
#[derive(Copy, Clone, Debug, Default)]
pub struct TenantReport {
    /// Submissions executed to completion.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub shed: u64,
    /// Always 0: an executor simulates every submission no pool worker
    /// finished, and counts it `completed`, so no accepted submission can
    /// fail. The field stays because report
    /// consumers sum it.
    pub failed: u64,
    /// Sum of per-submission simulated cache misses (deterministic).
    pub misses: u64,
    /// Sum of per-submission simulated deviations (deterministic).
    pub deviations: u64,
    /// Submissions currently queued or executing.
    pub inflight: u64,
    /// Accumulated runtime-stat deltas over this tenant's pool offers
    /// (made only with fault hooks installed; all zero otherwise).
    pub stats: RuntimeStats,
}
