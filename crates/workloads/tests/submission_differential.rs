//! `submission.rs` says its three closed-form builders mirror the suite
//! builders; this suite checks it. For every parameter point,
//! `ShapeSpec::build_into` and the suite builder must yield node-for-node
//! equal DAGs: the same node ids on the same threads, accessing the same
//! blocks, with the same in- and out-edges in the same order, and the same
//! thread tree. That is the precondition for lowering both onto one DAG
//! description (ROADMAP code diet (g)).

use wsf_dag::{Dag, DagBuilder};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};
use wsf_workloads::{backpressure, sort, stencil};

fn assert_same_dag(spec: ShapeSpec, built: &Dag, suite: &Dag) {
    assert_eq!(built.num_nodes(), suite.num_nodes(), "{spec:?}: nodes");
    assert_eq!(
        built.num_threads(),
        suite.num_threads(),
        "{spec:?}: threads"
    );
    assert_eq!(built.root(), suite.root(), "{spec:?}: root");
    assert_eq!(built.final_node(), suite.final_node(), "{spec:?}: final");
    assert_eq!(
        built.has_super_final_node(),
        suite.has_super_final_node(),
        "{spec:?}: super final"
    );
    for id in suite.node_ids() {
        let (a, b) = (built.node(id), suite.node(id));
        assert_eq!(a.thread(), b.thread(), "{spec:?}: thread of {id:?}");
        assert_eq!(a.block(), b.block(), "{spec:?}: block of {id:?}");
        assert_eq!(a.weight(), b.weight(), "{spec:?}: weight of {id:?}");
        assert_eq!(
            a.out_edges(),
            b.out_edges(),
            "{spec:?}: out-edges of {id:?}"
        );
        assert_eq!(a.in_edges(), b.in_edges(), "{spec:?}: in-edges of {id:?}");
        assert_eq!(built.is_fork(id), suite.is_fork(id), "{spec:?}: {id:?}");
        assert_eq!(built.is_touch(id), suite.is_touch(id), "{spec:?}: {id:?}");
    }
    for id in suite.thread_ids() {
        let (a, b) = (built.thread(id), suite.thread(id));
        assert_eq!(a.parent(), b.parent(), "{spec:?}: parent of {id:?}");
        assert_eq!(a.fork(), b.fork(), "{spec:?}: fork of {id:?}");
        assert_eq!(a.nodes(), b.nodes(), "{spec:?}: nodes of {id:?}");
    }
    assert_eq!(built.block_space(), suite.block_space(), "{spec:?}: blocks");
    assert_eq!(spec.footprint(), suite.block_space() as u64, "{spec:?}");
}

/// One recycled builder and scratch across the whole grid, as the server
/// uses them.
fn check(points: impl IntoIterator<Item = (ShapeSpec, Dag)>) {
    let mut b = DagBuilder::new();
    let mut scratch = ShapeScratch::new();
    let mut checked = 0;
    for (spec, suite) in points {
        let built = spec.build_into(&mut b, &mut scratch);
        assert_same_dag(spec, &built, &suite);
        b.recycle(built);
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn mergesort_shapes_equal_unit_grain_suite_mergesort() {
    check((0..=9).map(|e| {
        let leaves = 1u32 << e;
        (
            ShapeSpec::Mergesort { leaves },
            sort::mergesort(leaves as usize, 1),
        )
    }));
}

#[test]
fn stencil_shapes_equal_suite_stencil() {
    let mut points = Vec::new();
    for rows in [1u32, 2, 3, 8] {
        for width in [1u32, 2, 16] {
            for steps in [1u32, 2, 5] {
                points.push((
                    ShapeSpec::Stencil { rows, width, steps },
                    stencil::stencil(rows as usize, width as usize, steps as usize),
                ));
            }
        }
    }
    check(points);
}

#[test]
fn pipeline_shapes_equal_suite_batched_pipeline() {
    let mut points = Vec::new();
    for stages in [1u32, 2, 4] {
        for (items, window) in [(1u32, 1u32), (4, 1), (5, 2), (8, 4), (7, 7), (16, 5)] {
            for work in [1u32, 3] {
                points.push((
                    ShapeSpec::Pipeline {
                        stages,
                        items,
                        window,
                        work,
                    },
                    backpressure::batched_pipeline(
                        stages as usize,
                        items as usize,
                        window as usize,
                        work as usize,
                    ),
                ));
            }
        }
    }
    check(points);
}
