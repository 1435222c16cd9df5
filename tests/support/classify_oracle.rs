//! Reference classifier for `tests/classify_differential.rs`: the
//! search-based `classify` that `wsf_dag::classify` replaced, kept as the
//! oracle the id-based one is held to. Per non-main thread it computes the
//! whole set of nodes reachable from the fork and from the fork's right
//! child, and it checks fork-join nesting with a position map per parent
//! thread — O(threads × nodes) and O(threads²), but with no reliance on id
//! order beyond what the search itself observes. Only the reachable set's
//! representation changed (a `Vec<bool>` for the deleted `BitSet`).

use wsf_dag::{Dag, DagClass, NodeId};

/// The set of nodes reachable from `start` (including `start` itself),
/// following edges forward.
pub fn reachable_from(dag: &Dag, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; dag.num_nodes()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(n) = stack.pop() {
        for e in dag.node(n).out_edges() {
            if !seen[e.node.index()] {
                seen[e.node.index()] = true;
                stack.push(e.node);
            }
        }
    }
    seen
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

    for tid in dag.thread_ids().filter(|t| !t.is_main()) {
        let t = dag.thread(tid);
        let fork = t.fork().expect("non-main thread has a fork");
        let parent = t.parent().expect("non-main thread has a parent");
        let right = dag
            .right_child(fork)
            .expect("fork has a right child (continuation successor)");

        // Touches of this future thread, excluding super-final sync edges.
        let touches: Vec<NodeId> = dag
            .touches_of_thread(tid)
            .into_iter()
            .filter(|&x| !(dag.has_super_final_node() && x == dag.final_node()))
            .collect();

        let reach_fork = reachable_from(dag, fork);
        let reach_right = reachable_from(dag, right);

        // Definition 1 clause (1): local parents of the touches of t are
        // descendants of the fork v.
        for &x in &touches {
            let lp = dag
                .local_parent(x)
                .expect("touch has a continuation predecessor");
            if !reach_fork[lp.index()] {
                class.structured = false;
                class.violations.push(format!(
                    "thread {tid}: local parent {lp} of touch {x} is not a descendant of fork {fork}"
                ));
            }
        }

        // Definition 1 clause (2): at least one touch of t is a descendant
        // of the right child of v. A thread synchronized only through the
        // super final node satisfies the barrier clause by Definition 13/17.
        let has_right_descendant_touch = touches.iter().any(|&x| reach_right[x.index()]);
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
        for &x in &touches {
            if !reach_right[x.index()] {
                class.single_touch = false;
                class.violations.push(format!(
                    "thread {tid}: touch {x} is not a descendant of the fork's right child {right}"
                ));
            }
        }

        // Definition 3 / 17: local touch — every touch belongs to the
        // parent thread and is a descendant of the right child.
        for &x in &touches {
            if dag.node(x).thread() != parent {
                class.local_touch = false;
                class.violations.push(format!(
                    "thread {tid}: touch {x} is in thread {}, not the parent thread {parent}",
                    dag.node(x).thread()
                ));
            } else if !reach_right[x.index()] {
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
    for parent in dag.thread_ids() {
        // Position of each node within the parent thread.
        let nodes = dag.thread(parent).nodes();
        let mut pos = std::collections::HashMap::with_capacity(nodes.len());
        for (i, &n) in nodes.iter().enumerate() {
            pos.insert(n, i);
        }

        // Collect (fork position, touch position) intervals for children
        // whose single touch lies in this parent thread.
        let mut intervals: Vec<(usize, usize)> = Vec::new();
        for child in dag.thread_ids().filter(|t| !t.is_main()) {
            if dag.thread(child).parent() != Some(parent) {
                continue;
            }
            let fork = dag.thread(child).fork().expect("child has fork");
            let touches = dag.touches_of_thread(child);
            for &x in &touches {
                if dag.node(x).thread() == parent {
                    let (Some(&f), Some(&t)) = (pos.get(&fork), pos.get(&x)) else {
                        return false;
                    };
                    intervals.push((f, t));
                }
            }
        }

        // Proper nesting: no two intervals cross.
        for (i, &(f1, t1)) in intervals.iter().enumerate() {
            for &(f2, t2) in intervals.iter().skip(i + 1) {
                let crosses = (f1 < f2 && f2 < t1 && t1 < t2) || (f2 < f1 && f1 < t2 && t2 < t1);
                if crosses {
                    return false;
                }
            }
        }
    }
    true
}
