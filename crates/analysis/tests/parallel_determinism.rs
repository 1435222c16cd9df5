//! The thread-sharded sweeps must be *bit-identical* to sequential runs:
//! rendering any experiment table at `threads = 1` and at `threads = 4`
//! must produce the same bytes, for multiple workload seeds and both fork
//! policies. This is the contract that makes the parallel sweep a pure
//! performance change.
//!
//! Everything lives in ONE `#[test]` because `set_threads` mutates
//! process-global state and cargo's harness runs `#[test]` functions
//! concurrently — two tests toggling the thread count could silently turn
//! the `threads = 1` baseline into a sharded run and make the comparison
//! vacuous.

use wsf_analysis::{registry, seed_sweep, set_threads, PolicySpec, Scale, SweepConfig};
use wsf_core::ForkPolicy;

fn render_sweep(threads: usize, seeds: Vec<u64>, policies: Vec<ForkPolicy>) -> String {
    set_threads(threads);
    let table = seed_sweep(&SweepConfig {
        target_nodes: 1_500,
        seeds,
        processors: vec![2, 4],
        policies,
        cache_lines: vec![8, 16],
        schedulers: vec![PolicySpec::ws_random(), PolicySpec::parsimonious()],
    });
    set_threads(0);
    table.render()
}

#[test]
fn sweeps_and_experiments_are_byte_identical_across_thread_counts() {
    // Two seeds and both fork policies, as the issue demands — and a third
    // seed for good measure.
    let seeds = vec![11u64, 42, 7];
    let policies = ForkPolicy::ALL.to_vec();
    let sequential = render_sweep(1, seeds.clone(), policies.clone());
    let sharded = render_sweep(4, seeds.clone(), policies.clone());
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, sharded,
        "threads=4 sweep must render the same bytes as threads=1"
    );
    // And an oversubscribed run (more threads than shards).
    let oversubscribed = render_sweep(16, seeds, policies);
    assert_eq!(sequential, oversubscribed);

    // Every registered experiment re-assembles its sharded rows in input
    // order, so its rendered tables must not depend on threads. E10 (the
    // closure kernels on the real pool), E18 (the crash-recovery engine
    // under an injected fault schedule), E20 (a real TCP server) and E21
    // (DAGs on the real pool) keep only columns determined by the kernels,
    // the commit log, the scripted schedule and the shapes — run-varying
    // measurements go to stderr — so they are held to the same bytes.
    for (id, _, runner) in registry() {
        set_threads(1);
        let sequential: Vec<String> = runner(Scale::Quick).iter().map(|t| t.render()).collect();
        set_threads(4);
        let sharded: Vec<String> = runner(Scale::Quick).iter().map(|t| t.render()).collect();
        set_threads(0);
        assert_eq!(sequential, sharded, "{id}");
    }
}
