//! # wsf-bench — benchmark harness
//!
//! Three entry points:
//!
//! * the `harness` binary (`cargo run -p wsf-bench --bin harness --release`)
//!   regenerates every experiment table (E1–E21 of `docs/DESIGN.md`), i.e.
//!   the quantitative content of each theorem and figure of the paper;
//! * the `hw_validate` binary brackets the E21 matrix with hardware
//!   cache-miss counters where the machine exposes them;
//! * the Criterion benches (`cargo bench -p wsf-bench`) measure the cost of
//!   the simulator, the cache models, the workload generators and the real
//!   runtime, grouped by the theorem or layer they exercise.
//!
//! End-to-end and per-layer performance numbers (served requests, table
//! regeneration, pool execution) come from the standalone `benchmark/`
//! crate, not from here.
//!
//! This library holds the small shared helpers used by both.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use wsf_core::{ExecutionReport, ForkPolicy, ParallelSimulator, Scheduler, SeqReport, SimConfig};
use wsf_dag::Dag;

pub mod perf;

/// Standard benchmark sizes, kept deliberately moderate so a full
/// `cargo bench --workspace` finishes in minutes on one core.
pub mod sizes {
    /// Stages of the Figure 6(a) gadget.
    pub const FIG6_K: usize = 16;
    /// Z-chain stages of the Figure 7/8 gadgets.
    pub const FIG7_N: usize = 16;
    /// Cache lines used by the locality benches.
    pub const CACHE: usize = 16;
    /// Branch-tree depth of the Figure 8 construction.
    pub const FIG8_DEPTH: usize = 3;
    /// fib argument for app benches.
    pub const FIB_N: usize = 12;
}

/// Shared workload of the cache-model measurements: one definition feeds
/// the `cache_model` and `stack_distance` criterion benches, so the two
/// always measure the same protocol.
pub mod cache_bench {
    use wsf_cache::Cache;

    /// A deterministic xorshift64* trace of `len` accesses over a block
    /// space of `2 * c` blocks: against a full cache of `c` lines, roughly
    /// half the accesses hit and misses keep evicting, exercising both the
    /// position scan and the front-removal shift of the seed
    /// representation.
    pub fn trace(c: usize, len: usize) -> Vec<u32> {
        let space = (2 * c) as u64;
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

    /// Fills `cache` to capacity so timed accesses measure the steady-state
    /// (full-cache) cost — the scan representation's per-access cost is
    /// O(occupancy), so an under-filled large cache would flatter it.
    pub fn warmed<C: Cache>(mut cache: C) -> C {
        for b in 0..cache.capacity() as u32 {
            cache.access(b);
        }
        cache
    }

    /// Drives `trace` through `cache` and returns the miss count (returned
    /// so the access loop cannot be optimized away).
    pub fn drive<C: Cache>(cache: &mut C, trace: &[u32]) -> u64 {
        let mut misses = 0;
        for &b in trace {
            if cache.access(b).is_miss() {
                misses += 1;
            }
        }
        misses
    }
}

/// Runs `dag` on the simulator and returns the sequential baseline and the
/// parallel report, using the supplied scheduler if any.
pub fn simulate(
    dag: &Dag,
    processors: usize,
    cache_lines: usize,
    policy: ForkPolicy,
    scheduler: Option<&mut dyn Scheduler>,
) -> (SeqReport, ExecutionReport) {
    let config = SimConfig {
        processors,
        cache_lines,
        fork_policy: policy,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(dag);
    let report = match scheduler {
        Some(s) => sim.run_against(dag, &seq, s, false),
        None => sim.run(dag),
    };
    (seq, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_workloads::figures::Fig6;

    #[test]
    fn simulate_helper_runs_adversarial_and_random() {
        let fig = Fig6::gadget(6, 4);
        let (_, random) = simulate(&fig.dag, 2, 4, ForkPolicy::FutureFirst, None);
        assert!(random.completed);
        let mut adv = fig.adversary();
        let (_, scripted) = simulate(&fig.dag, 2, 4, ForkPolicy::FutureFirst, Some(&mut adv));
        assert!(scripted.completed);
    }
}
