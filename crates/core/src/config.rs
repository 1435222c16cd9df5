//! Configuration of the execution simulator.

use crate::policy::ForkPolicy;

/// Configuration of a simulated parallel execution.
#[derive(Copy, Clone, Debug)]
pub struct SimConfig {
    /// Number of simulated processors `P`.
    pub processors: usize,
    /// Lines of each processor's fully associative LRU cache, `C`.
    pub cache_lines: usize,
    /// Which child of a fork is executed first.
    pub fork_policy: ForkPolicy,
    /// Seed for the default random steal scheduler.
    pub seed: u64,
    /// Upper bound on simulated steps before the simulator gives up and
    /// reports an incomplete execution (guards against adversary scripts
    /// that deadlock the computation). `None` selects an automatic bound
    /// proportional to the DAG's work.
    pub max_steps: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 2,
            cache_lines: 8,
            fork_policy: ForkPolicy::FutureFirst,
            seed: 0x5eed,
            max_steps: None,
        }
    }
}

impl SimConfig {
    /// Convenience constructor for the common case.
    pub fn new(processors: usize, cache_lines: usize, fork_policy: ForkPolicy) -> Self {
        SimConfig {
            processors,
            cache_lines,
            fork_policy,
            ..SimConfig::default()
        }
    }

    /// Returns a copy with a different seed (used for expectation-style
    /// experiments that average over many schedules).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The step budget for a DAG with total work `work`.
    pub fn step_budget(&self, work: u64) -> u64 {
        self.max_steps
            .unwrap_or_else(|| work.saturating_mul(self.processors as u64 + 2) * 4 + 10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = SimConfig::default();
        assert_eq!(c.processors, 2);
        assert_eq!(c.cache_lines, 8);
        assert_eq!(c.fork_policy, ForkPolicy::FutureFirst);
        assert!(c.max_steps.is_none());
        assert!(c.step_budget(100) > 100);
    }

    #[test]
    fn explicit_budget_wins() {
        let mut c = SimConfig::new(4, 16, ForkPolicy::ParentFirst);
        assert_eq!(c.processors, 4);
        c.max_steps = Some(123);
        assert_eq!(c.step_budget(1_000_000), 123);
        let seeded = c.with_seed(99);
        assert_eq!(seeded.seed, 99);
    }
}
