//! `run_dag_on_pool` must report every node it executed.
//!
//! The count used to be bumped after a node's children were enabled, so a
//! co-parent's thread could run the final node and wake the caller while
//! the last increment was still pending: `nodes_executed` read N−1. The
//! window is a few instructions wide, so the test needs optimised code,
//! real parallelism and many repetitions to have seen it — it is ignored in
//! debug builds and run with `cargo test --release`.

use std::sync::Arc;
use wsf_core::ForkPolicy;
use wsf_runtime::Runtime;
use wsf_workloads::dag_exec::run_dag_on_pool;
use wsf_workloads::sort;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs a release build to open the race window"
)]
fn every_pool_run_counts_every_node() {
    let dag = Arc::new(sort::mergesort(65_536, 16));
    assert!(dag.num_nodes() >= 50_000, "{} nodes", dag.num_nodes());
    let rt = Arc::new(Runtime::new(2));
    for round in 0..200 {
        let policy = ForkPolicy::ALL[round % 2];
        let report = run_dag_on_pool(&rt, &dag, policy);
        assert_eq!(
            report.nodes_executed,
            dag.num_nodes(),
            "round {round} ({policy:?})"
        );
    }
}
