//! `run_dag_on_pool` must report every node of a fault-free run, and rescue
//! none.
//!
//! Nothing counts nodes while a DAG runs: `nodes_executed` is one scan of
//! the per-node state words after the final node signals `done`. The scan
//! is complete because a node's claim is sequenced before the work that
//! enables its successors, that enabling carries it down to the final node
//! (which every node precedes), and the `done` mutex carries it on to the
//! caller. The test runs the three `pool_dags` benchmark shapes under both
//! fork policies on two workers. The interleavings it is after need
//! optimised code and real parallelism, so it is ignored in debug builds
//! and run with `cargo test --release`.

use std::sync::Arc;
use wsf_core::ForkPolicy;
use wsf_dag::DagBuilder;
use wsf_runtime::Runtime;
use wsf_workloads::dag_exec::run_dag_on_pool;
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

const SHAPES: [ShapeSpec; 3] = [
    ShapeSpec::Mergesort { leaves: 4_096 },
    ShapeSpec::Stencil {
        rows: 64,
        width: 256,
        steps: 16,
    },
    ShapeSpec::Pipeline {
        stages: 16,
        items: 1_024,
        window: 8,
        work: 4,
    },
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs a release build and real parallelism"
)]
fn every_pool_run_counts_every_node() {
    let rt = Arc::new(Runtime::new(2));
    for shape in SHAPES {
        let dag = Arc::new(shape.build_into(&mut DagBuilder::new(), &mut ShapeScratch::new()));
        for round in 0..100 {
            let policy = ForkPolicy::ALL[round % 2];
            let report = run_dag_on_pool(&rt, &dag, policy);
            assert_eq!(
                report.nodes_executed,
                dag.num_nodes(),
                "{shape:?} round {round} ({policy:?})"
            );
            assert_eq!(report.rescued, 0, "{shape:?} round {round} ({policy:?})");
        }
    }
}
