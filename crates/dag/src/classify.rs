//! Classification of computation DAGs according to the paper's definitions.
//!
//! * Definition 1 — *structured* future-parallel computation,
//! * Definition 2 — *structured single-touch* computation,
//! * Definition 3 — *structured local-touch* computation,
//! * Definition 13 — structured single-touch computation *with a super final
//!   node*,
//! * Definition 17 — structured local-touch computation *with a super final
//!   node*,
//! * plus a fork-join (Cilk-style, properly nested) check, since Section 4
//!   observes that fork-join programs are structured single-touch
//!   computations.
//!
//! # Cost
//!
//! Every clause asks whether one node descends from another: a touch from
//! its fork's right child, a touch's local parent from the fork.
//! [`crate::validate()`], run by every `finish*`, guarantees two
//! invariants: node ids are a topological order, and a thread's nodes
//! form exactly its continuation chain. So for two nodes `a`, `b` of one
//! thread, `b` descends from `a` iff `a.index() <= b.index()`. In a
//! local-touch DAG every question has that form, and classification is
//! one pass over the threads and their touches, O(nodes + threads). Only
//! a question across threads (passed futures, exchange stencils,
//! unstructured DAGs) searches the graph, bounded to the ids between the
//! two nodes (see [`crate::traverse::is_descendant`]). The fork-join check
//! groups child threads by parent in one pass and orders fork and touch
//! by id, which within the parent thread is their continuation order.

use crate::dag::Dag;
use crate::ids::NodeId;
use crate::traverse::Descendants;

/// The outcome of classifying a DAG against the paper's definitions.
///
/// `violations` holds human-readable explanations of which clauses failed,
/// which makes test failures and misclassified workloads easy to debug.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagClass {
    /// Definition 1: structured future-parallel computation.
    pub structured: bool,
    /// Definition 2 (or 13 when the DAG has a super final node).
    pub single_touch: bool,
    /// Definition 3 (or 17 when the DAG has a super final node).
    pub local_touch: bool,
    /// Properly-nested fork-join computation (Cilk spawn/sync style).
    pub fork_join: bool,
    /// Whether the DAG carries a super final node.
    pub super_final: bool,
    /// Explanations for each violated clause.
    pub violations: Vec<String>,
}

impl DagClass {
    /// Structured single-touch computation (the class of Theorem 8).
    pub fn is_structured_single_touch(&self) -> bool {
        self.structured && self.single_touch
    }

    /// Structured local-touch computation (the class of Theorem 12).
    pub fn is_structured_local_touch(&self) -> bool {
        self.structured && self.local_touch
    }

    /// Unstructured computation: violates Definition 1.
    pub fn is_unstructured(&self) -> bool {
        !self.structured
    }
}

/// Classifies `dag` against Definitions 1, 2, 3, 13 and 17.
pub fn classify(dag: &Dag) -> DagClass {
    let mut class = DagClass {
        structured: true,
        single_touch: true,
        local_touch: true,
        fork_join: true,
        super_final: dag.has_super_final_node(),
        violations: Vec::new(),
    };
    let mut reach = Descendants::new(dag);

    for tid in dag.thread_ids().filter(|t| !t.is_main()) {
        let t = dag.thread(tid);
        let fork = t.fork().expect("non-main thread has a fork");
        let parent = t.parent().expect("non-main thread has a parent");
        let right = dag
            .right_child(fork)
            .expect("fork has a right child (continuation successor)");

        // Touches of this future thread, excluding super-final sync edges,
        // each with whether it descends from the right child.
        let touches: Vec<(NodeId, bool)> = dag
            .touches_of_thread(tid)
            .into_iter()
            .filter(|&x| !(dag.has_super_final_node() && x == dag.final_node()))
            .map(|x| (x, reach.query(right, x)))
            .collect();

        // Definition 1 clause (1): local parents of the touches of t are
        // descendants of the fork v.
        for &(x, _) in &touches {
            let lp = dag
                .local_parent(x)
                .expect("touch has a continuation predecessor");
            if !reach.query(fork, lp) {
                class.structured = false;
                class.violations.push(format!(
                    "thread {tid}: local parent {lp} of touch {x} is not a descendant of fork {fork}"
                ));
            }
        }

        // Definition 1 clause (2): at least one touch of t is a descendant
        // of the right child of v. A thread synchronized only through the
        // super final node satisfies the barrier clause by Definition 13/17.
        let has_right_descendant_touch = touches.iter().any(|&(_, below_right)| below_right);
        let synced_by_super_final = dag.has_super_final_node()
            && dag
                .node(dag.thread(tid).last())
                .touch_successors()
                .any(|x| x == dag.final_node());
        if !has_right_descendant_touch && !synced_by_super_final {
            class.structured = false;
            class.violations.push(format!(
                "thread {tid}: no touch is a descendant of fork {fork}'s right child {right}"
            ));
        }

        // Definition 2 / 13: single touch.
        let max_touches = 1;
        if touches.len() > max_touches {
            class.single_touch = false;
            class.violations.push(format!(
                "thread {tid}: touched {} times (single-touch allows 1, plus the super final node)",
                touches.len()
            ));
        }
        for &(x, below_right) in &touches {
            if !below_right {
                class.single_touch = false;
                class.violations.push(format!(
                    "thread {tid}: touch {x} is not a descendant of the fork's right child {right}"
                ));
            }
        }

        // Definition 3 / 17: local touch — every touch belongs to the
        // parent thread and is a descendant of the right child.
        for &(x, below_right) in &touches {
            if dag.node(x).thread() != parent {
                class.local_touch = false;
                class.violations.push(format!(
                    "thread {tid}: touch {x} is in thread {}, not the parent thread {parent}",
                    dag.node(x).thread()
                ));
            } else if !below_right {
                class.local_touch = false;
                class.violations.push(format!(
                    "thread {tid}: local touch {x} is not a descendant of the right child {right}"
                ));
            }
        }
    }

    class.fork_join = class.structured
        && class.single_touch
        && class.local_touch
        && properly_nested(dag)
        && !dag.has_super_final_node();

    class
}

/// Checks that, within every parent thread, the (fork, touch) intervals of
/// its child threads are properly nested (LIFO order), as fork-join
/// (spawn/sync) parallelism requires.
fn properly_nested(dag: &Dag) -> bool {
    // (parent, fork, touch) for every touch of a child thread that lies in
    // its parent thread. The fork is in the parent too (validated), and
    // node ids order a thread's nodes, so the ids serve as positions.
    let mut intervals = Vec::new();
    for child in dag.thread_ids().filter(|t| !t.is_main()) {
        let t = dag.thread(child);
        let parent = t.parent().expect("child has a parent");
        let fork = t.fork().expect("child has fork");
        for x in dag.touches_of_thread(child) {
            if dag.node(x).thread() == parent {
                intervals.push((parent, fork, x));
            }
        }
    }
    intervals.sort_unstable_by_key(|&(parent, ..)| parent);

    // Proper nesting: no two intervals of one parent cross.
    for group in intervals.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(_, f1, t1)) in group.iter().enumerate() {
            for &(_, f2, t2) in group.iter().skip(i + 1) {
                let crosses = (f1 < f2 && f2 < t1 && t1 < t2) || (f2 < f1 && f1 < t2 && t2 < t1);
                if crosses {
                    return false;
                }
            }
        }
    }
    true
}

/// Convenience wrapper: classifies and returns whether the DAG is a
/// structured single-touch computation.
pub fn is_structured_single_touch(dag: &Dag) -> bool {
    classify(dag).is_structured_single_touch()
}

/// Convenience wrapper: classifies and returns whether the DAG is a
/// structured local-touch computation.
pub fn is_structured_local_touch(dag: &Dag) -> bool {
    classify(dag).is_structured_local_touch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::ids::ThreadId;

    /// Fork-join: two futures created and touched in LIFO order by the main
    /// thread (MethodA of Figure 5(a), fork-join order).
    fn fork_join_two() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f1 = b.fork(main);
        b.chain(f1.future_thread, 2);
        let f2 = b.fork(main);
        b.chain(f2.future_thread, 2);
        b.task(main);
        b.touch_thread(main, f2.future_thread); // y touched first
        b.touch_thread(main, f1.future_thread); // x touched second
        b.task(main);
        b.finish().unwrap()
    }

    /// Single-touch but *not* fork-join: futures touched in creation order
    /// (MethodA of Figure 5(a) as written in the paper, which fork-join
    /// cannot express).
    fn single_touch_fifo() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f1 = b.fork(main);
        b.chain(f1.future_thread, 2);
        let f2 = b.fork(main);
        b.chain(f2.future_thread, 2);
        b.task(main);
        b.touch_thread(main, f1.future_thread); // x touched first (crossing)
        b.touch_thread(main, f2.future_thread); // y touched second
        b.task(main);
        b.finish().unwrap()
    }

    /// A future passed to a child thread that touches it (Figure 5(b)):
    /// single-touch, structured, but not local-touch.
    fn passed_future() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let fx = b.fork(main); // future x
        b.chain(fx.future_thread, 2);
        let fc = b.fork(main); // thread running MethodC(x)
        b.task(fc.future_thread);
        // MethodC touches x.
        b.touch_thread(fc.future_thread, fx.future_thread);
        b.chain(fc.future_thread, 1);
        b.task(main);
        // main touches (joins) MethodC's future.
        b.touch_thread(main, fc.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    /// A local-touch (but not single-touch) computation: one future thread
    /// computes two futures, both touched by the parent.
    fn local_touch_two_futures() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        let first_future_value = b.task(f.future_thread);
        b.chain(f.future_thread, 2); // second future value = last node
        b.task(main); // right child of the fork
        b.touch(main, first_future_value);
        b.touch_thread(main, f.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    /// An unstructured computation in the spirit of Figure 3: a touch whose
    /// local parent is *not* a descendant of the corresponding fork (the
    /// touching thread is spawned before the future thread exists).
    fn unstructured_fig3_like() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        // Left subtree: a thread that will touch futures created later.
        let left = b.fork(main);
        b.task(left.future_thread);
        // Right side of the root: the thread that creates the future.
        let u1 = b.fork(main); // future thread computing the value
        b.chain(u1.future_thread, 2);
        // The left thread touches that future: its local parent is NOT a
        // descendant of u1's fork node.
        b.touch_thread(left.future_thread, u1.future_thread);
        b.task(main);
        // Main joins the left thread so everything is synchronized.
        b.touch_thread(main, left.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    #[test]
    fn fork_join_is_structured_single_and_local_touch() {
        let d = fork_join_two();
        let c = classify(&d);
        assert!(c.structured, "violations: {:?}", c.violations);
        assert!(c.single_touch);
        assert!(c.local_touch);
        assert!(c.fork_join);
        assert!(c.is_structured_single_touch());
        assert!(c.is_structured_local_touch());
        assert!(!c.is_unstructured());
    }

    #[test]
    fn fifo_touch_order_is_single_touch_but_not_fork_join() {
        let d = single_touch_fifo();
        let c = classify(&d);
        assert!(c.structured, "violations: {:?}", c.violations);
        assert!(c.single_touch);
        assert!(c.local_touch);
        assert!(!c.fork_join, "crossing intervals are not fork-join");
    }

    #[test]
    fn passed_future_is_single_touch_not_local_touch() {
        let d = passed_future();
        let c = classify(&d);
        assert!(c.structured, "violations: {:?}", c.violations);
        assert!(c.single_touch, "violations: {:?}", c.violations);
        assert!(!c.local_touch);
        assert!(!c.fork_join);
    }

    #[test]
    fn multi_future_thread_is_local_touch_not_single_touch() {
        let d = local_touch_two_futures();
        let c = classify(&d);
        assert!(c.structured, "violations: {:?}", c.violations);
        assert!(!c.single_touch);
        assert!(c.local_touch, "violations: {:?}", c.violations);
    }

    #[test]
    fn fig3_like_dag_is_unstructured() {
        let d = unstructured_fig3_like();
        let c = classify(&d);
        assert!(c.is_unstructured());
        assert!(!c.violations.is_empty());
    }

    #[test]
    fn super_final_side_effect_thread_is_structured() {
        // A thread forked purely for a side effect, touched only by the
        // super final node (Definition 13).
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.chain(f.future_thread, 3);
        b.task(main);
        let d = b.finish_with_super_final().unwrap();
        let c = classify(&d);
        assert!(c.super_final);
        assert!(c.structured, "violations: {:?}", c.violations);
        assert!(c.single_touch);
        assert!(c.local_touch);
        assert!(
            !c.fork_join,
            "super-final computations are not plain fork-join"
        );
    }

    #[test]
    fn serial_chain_classifies_as_everything() {
        let mut b = DagBuilder::new();
        b.chain(ThreadId::MAIN, 5);
        let d = b.finish().unwrap();
        let c = classify(&d);
        assert!(c.structured && c.single_touch && c.local_touch && c.fork_join);
    }

    #[test]
    fn convenience_wrappers_agree_with_classify() {
        let d = fork_join_two();
        assert!(is_structured_single_touch(&d));
        assert!(is_structured_local_touch(&d));
        let d = unstructured_fig3_like();
        assert!(!is_structured_single_touch(&d));
    }
}
