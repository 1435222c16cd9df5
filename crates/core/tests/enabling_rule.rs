//! Differential test of the enabling rule: the frozen successor record plus
//! `ReadyTracker::retire` and `next_and_push`, against the edge-list rule
//! the executors applied before the record existed (`complete_into` and
//! `schedule_enabled`, kept here verbatim as the oracle).
//!
//! For every node, every subset of its successors a completion could
//! enable and both fork policies, the two must pick the same `(next,
//! push)`; a whole sequential walk driven by the oracle must retire the
//! same slots and visit nodes in `SequentialExecutor`'s order. Covered:
//! every `ShapeSpec` family at small sizes (built through one recycled
//! builder, as the server builds them), the super-final exchange stencil,
//! the Figure 3 / 6 / 7 / 8 constructions, `random_single_touch` and
//! arbitrary builder programs. The serve and table shapes at full scale run
//! with `cargo test --release -p wsf-core --test enabling_rule -- --ignored`.

#[path = "../../../tests/support/builder_programs.rs"]
mod builder_programs;

use builder_programs::{arb_program, run_program};
use proptest::prelude::*;
use std::collections::VecDeque;
use wsf_core::{next_and_push, ForkPolicy, ReadyTracker, SequentialExecutor};
use wsf_dag::{Dag, DagBuilder, EdgeKind, NodeId};
use wsf_workloads::figures::{fig3, Fig6, Fig7a, Fig7b, Fig8};
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::stencil::stencil_exchange;
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

// ---------------------------------------------------------------------
// The oracle: the rule as it was computed from edge lists.
// ---------------------------------------------------------------------

/// Marks `node` executed and writes its newly-ready children into
/// `enabled` (cleared first), in out-edge order.
fn complete_into(remaining: &mut [u32], dag: &Dag, node: NodeId, enabled: &mut Vec<NodeId>) {
    enabled.clear();
    for e in dag.node(node).out_edges() {
        let r = &mut remaining[e.node.index()];
        *r -= 1;
        if *r == 0 {
            enabled.push(e.node);
        }
    }
}

/// Applies the parsimonious scheduling rule to the children of `node` that
/// just became ready; returns `(next, push)`.
fn schedule_enabled(
    dag: &Dag,
    node: NodeId,
    enabled: &[NodeId],
    policy: ForkPolicy,
) -> (Option<NodeId>, Option<NodeId>) {
    match enabled {
        [] => (None, None),
        [only] => (Some(*only), None),
        _ => {
            if dag.is_fork(node) {
                let left = dag.left_child(node).expect("fork has a future child");
                let right = dag.right_child(node).expect("fork has a right child");
                debug_assert!(enabled.contains(&left) && enabled.contains(&right));
                match policy {
                    ForkPolicy::FutureFirst => (Some(left), Some(right)),
                    ForkPolicy::ParentFirst => (Some(right), Some(left)),
                }
            } else {
                // Non-fork node enabling two children: prefer to stay on the
                // current thread (the continuation successor), push the rest.
                let cont = dag
                    .node(node)
                    .out_edges()
                    .iter()
                    .find(|e| e.kind == EdgeKind::Continuation)
                    .map(|e| e.node)
                    .filter(|n| enabled.contains(n));
                match cont {
                    Some(c) => {
                        let other = enabled.iter().copied().find(|&n| n != c);
                        (Some(c), other)
                    }
                    None => (Some(enabled[0]), enabled.get(1).copied()),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

/// The record's slots that hold a node of `enabled`.
fn slots(dag: &Dag, node: NodeId, enabled: &[NodeId]) -> [bool; 2] {
    dag.record(node)
        .successors()
        .map(|s| s.is_some_and(|s| enabled.contains(&s)))
}

/// Every node's record against its edge list and the oracle, over every
/// enabled subset of its successors and both policies.
fn check_every_subset(name: &str, dag: &Dag) {
    for node in dag.node_ids() {
        let data = dag.node(node);
        let record = dag.record(node);
        let out: Vec<NodeId> = data.out_edges().iter().map(|e| e.node).collect();
        let mut held: Vec<NodeId> = record.successors().into_iter().flatten().collect();
        held.sort_unstable();
        let mut sorted_out = out.clone();
        sorted_out.sort_unstable();
        assert_eq!(
            held, sorted_out,
            "{name}: {node}'s record holds its successors"
        );
        assert_eq!(record.is_fork(), data.is_fork(), "{name}: {node} fork bit");

        for mask in 0..1u32 << out.len() {
            // The oracle saw the enabled children in out-edge order.
            let enabled: Vec<NodeId> = (0..out.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| out[i])
                .collect();
            for policy in ForkPolicy::ALL {
                assert_eq!(
                    next_and_push(record, slots(dag, node, &enabled), policy),
                    schedule_enabled(dag, node, &enabled, policy),
                    "{name}: {node} enabling {enabled:?} under {policy}"
                );
            }
        }
    }
}

/// A sequential walk driven by the oracle: at every completion the tracker
/// retires the slots the oracle enabled, and the visit order is
/// `SequentialExecutor`'s.
fn check_sequential_walk(name: &str, dag: &Dag) {
    for policy in ForkPolicy::ALL {
        let mut remaining = dag.in_degrees().to_vec();
        let mut tracker = ReadyTracker::new(dag);
        let mut deque = VecDeque::new();
        let mut enabled = Vec::new();
        let mut order = Vec::with_capacity(dag.num_nodes());
        let mut current = Some(dag.root());
        while let Some(node) = current {
            order.push(node);
            complete_into(&mut remaining, dag, node, &mut enabled);
            assert_eq!(
                tracker.retire(node, dag.record(node)),
                slots(dag, node, &enabled),
                "{name}: {node} under {policy}"
            );
            let (next, push) = schedule_enabled(dag, node, &enabled, policy);
            if let Some(push) = push {
                deque.push_back(push);
            }
            current = next.or_else(|| deque.pop_back());
        }
        assert_eq!(tracker.executed_count(), dag.num_nodes(), "{name}");
        let seq = SequentialExecutor::new(policy).run(dag);
        assert_eq!(seq.order(), order, "{name}: order under {policy}");
    }
}

fn check(name: &str, dag: &Dag) {
    check_every_subset(name, dag);
    check_sequential_walk(name, dag);
}

/// Builds every spec through one builder, recycling each DAG into it (the
/// server's arena workflow), so the recycled record buffer is covered too.
fn check_specs(specs: &[ShapeSpec]) {
    let mut b = DagBuilder::new();
    let mut scratch = ShapeScratch::new();
    for spec in specs {
        let dag = spec.build_into(&mut b, &mut scratch);
        check(&format!("{spec:?}"), &dag);
        b.recycle(dag);
    }
}

#[test]
fn shape_families_match_the_oracle() {
    check_specs(&[
        ShapeSpec::Mergesort { leaves: 1 },
        ShapeSpec::Mergesort { leaves: 16 },
        ShapeSpec::Stencil {
            rows: 1,
            width: 3,
            steps: 2,
        },
        ShapeSpec::Stencil {
            rows: 4,
            width: 4,
            steps: 3,
        },
        ShapeSpec::Pipeline {
            stages: 3,
            items: 8,
            window: 2,
            work: 2,
        },
        ShapeSpec::Pipeline {
            stages: 1,
            items: 5,
            window: 5,
            work: 1,
        },
        ShapeSpec::Mergesort { leaves: 8 },
    ]);
}

#[test]
fn figures_stencils_and_random_dags_match_the_oracle() {
    let mut dags: Vec<(String, Dag)> = vec![
        ("stencil_exchange(3,2,2)".into(), stencil_exchange(3, 2, 2)),
        ("stencil_exchange(4,3,1)".into(), stencil_exchange(4, 3, 1)),
        ("fig3(4), unstructured multi-touch".into(), fig3(4)),
        ("fig6 gadget".into(), Fig6::gadget(4, 4).dag),
        ("fig6 repeated".into(), Fig6::repeated(2, 6, 1).dag),
        ("fig7a".into(), Fig7a::new(8, 4, false).dag),
        ("fig7a blocked".into(), Fig7a::new(8, 4, true).dag),
        ("fig7b".into(), Fig7b::new(8, 6, 4).dag),
        ("fig8".into(), Fig8::new(2, 4, 4).dag),
    ];
    assert!(dags[0].1.has_super_final_node());
    for seed in [1, 2, 3] {
        dags.push((
            format!("random_single_touch(600, seed {seed})"),
            random_single_touch(&RandomConfig {
                target_nodes: 600,
                seed,
                ..RandomConfig::default()
            }),
        ));
    }
    for (name, dag) in &dags {
        check(name, dag);
    }
}

/// A fork that ends its thread and is touched has a future edge and a touch
/// edge but no right child. The oracle cannot decide that case (it expects
/// a right child), so the record's rule is pinned here: the future child is
/// the fork's preferred successor and the touch takes the right child's
/// place, swapped under parent-first like any fork.
#[test]
fn a_touched_fork_without_a_right_child_orders_future_first() {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let a = b.fork(main);
    let inner = b.fork(a.future_thread); // a's thread ends at this fork
    b.task(inner.future_thread);
    b.task(main);
    let touch = b.touch(main, inner.node);
    b.touch_thread(main, inner.future_thread);
    b.task(main);
    let dag = b.finish().unwrap();

    let record = dag.record(inner.node);
    assert!(record.is_fork() && dag.right_child(inner.node).is_none());
    let (future, touch) = (Some(inner.future_first), Some(touch));
    assert_eq!(record.successors(), [future, touch]);
    let both = [true, true];
    assert_eq!(
        next_and_push(record, both, ForkPolicy::FutureFirst),
        (future, touch)
    );
    assert_eq!(
        next_and_push(record, both, ForkPolicy::ParentFirst),
        (touch, future)
    );
    for policy in ForkPolicy::ALL {
        let seq = SequentialExecutor::new(policy).run(&dag);
        assert_eq!(seq.order().len(), dag.num_nodes(), "{policy}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_builder_programs_match_the_oracle((ops, super_final) in arb_program(1..120)) {
        if let Some(dag) = run_program(&ops, super_final) {
            check("builder program", &dag);
        }
    }
}

/// The served shapes and the full-scale table shapes the simulator runs.
#[test]
#[ignore = "full-scale shapes; seconds in release"]
fn full_scale_shapes_match_the_oracle() {
    check_specs(&[
        ShapeSpec::Mergesort { leaves: 512 },
        ShapeSpec::Stencil {
            rows: 16,
            width: 64,
            steps: 8,
        },
        ShapeSpec::Pipeline {
            stages: 8,
            items: 256,
            window: 8,
            work: 4,
        },
        ShapeSpec::Mergesort { leaves: 4096 },
        ShapeSpec::Stencil {
            rows: 64,
            width: 256,
            steps: 16,
        },
        ShapeSpec::Pipeline {
            stages: 16,
            items: 1024,
            window: 8,
            work: 4,
        },
    ]);
    for (rows, width, steps) in [(16, 64, 8), (48, 128, 6), (128, 256, 4)] {
        check(
            &format!("stencil_exchange({rows},{width},{steps})"),
            &stencil_exchange(rows, width, steps),
        );
    }
    check("fig3(128)", &fig3(128));
    check("fig6 gadget(64)", &Fig6::gadget(64, 16).dag);
    check("fig7b(64)", &Fig7b::new(8, 64, 16).dag);
    check("fig8(5)", &Fig8::new(5, 16, 16).dag);
    for seed in 0..4 {
        check(
            &format!("random_single_touch(20000, seed {seed})"),
            &random_single_touch(&RandomConfig {
                target_nodes: 20_000,
                seed,
                ..RandomConfig::default()
            }),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    #[ignore = "20k-step builder programs; seconds in release"]
    fn large_builder_programs_match_the_oracle((ops, super_final) in arb_program(20_000..20_001)) {
        if let Some(dag) = run_program(&ops, super_final) {
            check("large builder program", &dag);
        }
    }
}
