//! Property-based tests of the DAG builder, classifier and traversal
//! utilities over randomly shaped fork-join computations.

use proptest::prelude::*;
use wsf_dag::{classify, is_descendant, span, topo_order, validate, Dag, DagBuilder, ThreadId};

/// Builds a random properly-nested fork-join DAG from a shape vector: each
/// entry decides, at one step of the current thread, whether to fork a
/// child (and how much work the child does) or to do local work.
fn build_fork_join(shape: &[(bool, u8)]) -> Dag {
    fn expand(b: &mut DagBuilder, thread: ThreadId, shape: &[(bool, u8)], depth: usize) {
        for &(fork, work) in shape {
            if fork && depth < 6 {
                let f = b.fork(thread);
                expand(b, f.future_thread, &shape[..shape.len() / 2], depth + 1);
                b.task(thread);
                b.touch_thread(thread, f.future_thread);
            } else {
                b.chain(thread, usize::from(work % 4) + 1);
            }
        }
        // Make sure the thread has at least one node beyond its first.
        b.task(thread);
    }
    let mut b = DagBuilder::new();
    expand(&mut b, ThreadId::MAIN, shape, 0);
    b.finish().expect("fork-join shapes always build")
}

fn shape_strategy() -> impl Strategy<Value = Vec<(bool, u8)>> {
    proptest::collection::vec((any::<bool>(), any::<u8>()), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fork_join_shapes_validate_and_classify(shape in shape_strategy()) {
        let dag = build_fork_join(&shape);
        prop_assert!(validate(&dag).is_ok());
        let class = classify(&dag);
        prop_assert!(class.structured, "{:?}", class.violations);
        prop_assert!(class.single_touch, "{:?}", class.violations);
        prop_assert!(class.local_touch, "{:?}", class.violations);
        prop_assert!(class.fork_join, "{:?}", class.violations);
    }

    #[test]
    fn span_and_topology_are_consistent(shape in shape_strategy()) {
        let dag = build_fork_join(&shape);
        let order = topo_order(&dag).expect("builder DAGs are acyclic");
        prop_assert_eq!(order.len(), dag.num_nodes());
        // The stored in-degree table Kahn's algorithm starts from agrees
        // with the edge lists it was counted from.
        for id in dag.node_ids() {
            prop_assert_eq!(dag.in_degrees()[id.index()] as usize, dag.node(id).in_degree());
        }
        let sp = span(&dag) as usize;
        prop_assert!(sp >= 1 && sp <= dag.num_nodes());
        // Work is at least the span, parallelism at least 1.
        prop_assert!(dag.work() as usize >= sp);
    }

    #[test]
    fn every_touch_relates_to_its_fork(shape in shape_strategy()) {
        let dag = build_fork_join(&shape);
        for touch in dag.touches() {
            let fork = dag.corresponding_fork(touch).expect("fork exists");
            let right = dag.right_child(fork).expect("right child exists");
            let left = dag.left_child(fork).expect("left child exists");
            prop_assert!(dag.is_fork(fork));
            prop_assert!(is_descendant(&dag, fork, touch));
            prop_assert!(is_descendant(&dag, right, touch));
            prop_assert!(is_descendant(&dag, left, touch));
            // The future parent is the last node of the spawned thread.
            let ft = dag.future_thread_of_touch(touch).unwrap();
            prop_assert_eq!(dag.future_parent(touch), Some(dag.thread(ft).last()));
        }
    }

    #[test]
    fn thread_bookkeeping_is_consistent(shape in shape_strategy()) {
        let dag = build_fork_join(&shape);
        let mut seen = 0usize;
        for tid in dag.thread_ids() {
            let t = dag.thread(tid);
            seen += t.len();
            // Every node of the thread reports the right owner.
            for &n in t.nodes() {
                prop_assert_eq!(dag.node(n).thread(), tid);
            }
            // Non-main threads are spawned by a fork of their parent.
            if !tid.is_main() {
                let fork = t.fork().expect("non-main thread has a fork");
                prop_assert_eq!(dag.node(fork).thread(), t.parent().unwrap());
                prop_assert_eq!(dag.left_child(fork), Some(t.first()));
            }
        }
        prop_assert_eq!(seen, dag.num_nodes());
    }
}
