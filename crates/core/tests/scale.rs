//! Scale tests: large `random_single_touch` DAGs must build and simulate
//! within the CI time budget now that the hot path is allocation-free.

use wsf_core::{ParallelSimulator, RandomScheduler, SimConfig, SimScratch};
use wsf_workloads::random::{random_single_touch, RandomConfig};

fn simulate(nodes: usize, processors: usize) {
    let dag = random_single_touch(&RandomConfig {
        target_nodes: nodes,
        seed: 13,
        blocks: 512,
        ..RandomConfig::default()
    });
    assert!(
        dag.num_nodes() >= nodes / 2,
        "generator fell far short of the target: {} nodes",
        dag.num_nodes()
    );
    // Near-linear classification: a per-thread whole-DAG search would take
    // seconds to minutes at this size.
    assert!(wsf_dag::classify(&dag).is_structured_single_touch());
    let config = SimConfig {
        processors,
        cache_lines: 16,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(&dag);
    let mut scratch = SimScratch::new();
    for seed in 0..2u64 {
        let mut sched = RandomScheduler::new(seed);
        let report = sim.run_with_scratch(&dag, &seq, &mut sched, false, &mut scratch);
        assert!(report.completed, "budget must suffice at this scale");
        assert_eq!(report.executed(), dag.num_nodes() as u64);
        assert!(report.deviations() <= report.executed());
    }
}

#[test]
fn simulates_100k_node_random_single_touch() {
    simulate(100_000, 8);
}

/// Heavier sibling for manual profiling:
/// `cargo test -p wsf-core --release --test scale -- --ignored`.
#[test]
#[ignore = "10^6-node run; seconds in release, minutes in debug"]
fn simulates_million_node_random_single_touch() {
    simulate(1_000_000, 8);
}
