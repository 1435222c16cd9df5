//! Readiness tracking and the enabling rule shared by the sequential and
//! parallel executors.

use crate::policy::ForkPolicy;
use wsf_dag::{Dag, EdgeKind, NodeId};

/// Tracks which nodes have executed and how many of each node's
/// dependencies are still outstanding.
#[derive(Clone, Debug)]
pub struct ReadyTracker {
    remaining: Vec<u32>,
    executed: Vec<bool>,
    executed_count: usize,
}

impl Default for ReadyTracker {
    /// An empty tracker; call [`ReadyTracker::reset`] before use.
    fn default() -> Self {
        ReadyTracker {
            remaining: Vec::new(),
            executed: Vec::new(),
            executed_count: 0,
        }
    }
}

impl ReadyTracker {
    /// Creates a tracker for `dag` with nothing executed yet.
    pub fn new(dag: &Dag) -> Self {
        ReadyTracker {
            remaining: dag.in_degrees().to_vec(),
            executed: vec![false; dag.num_nodes()],
            executed_count: 0,
        }
    }

    /// Whether `node` has already executed.
    #[inline]
    pub fn is_executed(&self, node: NodeId) -> bool {
        self.executed[node.index()]
    }

    /// Whether every dependency of `node` has executed (and `node` itself
    /// has not).
    #[inline]
    pub fn is_ready(&self, node: NodeId) -> bool {
        !self.executed[node.index()] && self.remaining[node.index()] == 0
    }

    /// Number of nodes executed so far.
    #[inline]
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }

    /// Marks `node` executed and returns its children that became ready as
    /// a consequence, in out-edge order.
    pub fn complete(&mut self, dag: &Dag, node: NodeId) -> Vec<NodeId> {
        let mut enabled = Vec::with_capacity(2);
        self.complete_into(dag, node, &mut enabled);
        enabled
    }

    /// Marks `node` executed and writes its newly-ready children into
    /// `enabled` (cleared first), in out-edge order.
    ///
    /// This is the allocation-free variant of [`ReadyTracker::complete`]:
    /// the executors call it with a buffer they reuse across completions, so
    /// the hot loop performs no per-node heap allocation once the buffer has
    /// grown to its steady-state capacity.
    pub fn complete_into(&mut self, dag: &Dag, node: NodeId, enabled: &mut Vec<NodeId>) {
        debug_assert!(
            self.remaining[node.index()] == 0,
            "completing a node whose dependencies have not run"
        );
        debug_assert!(!self.executed[node.index()], "node completed twice");
        self.executed[node.index()] = true;
        self.executed_count += 1;
        enabled.clear();
        for e in dag.node(node).out_edges() {
            let r = &mut self.remaining[e.node.index()];
            *r -= 1;
            if *r == 0 {
                enabled.push(e.node);
            }
        }
    }

    /// Re-initializes the tracker for `dag`, reusing the existing storage.
    ///
    /// Equivalent to `*self = ReadyTracker::new(dag)` but without allocating
    /// when the tracker's buffers already have enough capacity, which lets a
    /// [`crate::SimScratch`] run many simulations with zero steady-state
    /// heap traffic.
    pub fn reset(&mut self, dag: &Dag) {
        self.remaining.clear();
        self.remaining.extend_from_slice(dag.in_degrees());
        self.executed.clear();
        self.executed.resize(dag.num_nodes(), false);
        self.executed_count = 0;
    }
}

/// What a processor decides to do with the children enabled by completing a
/// node: execute `next` (if any) and push `push` (if any) onto its deque.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Continuation {
    /// The child the processor executes next.
    pub next: Option<NodeId>,
    /// The child the processor pushes onto the bottom of its deque.
    pub push: Option<NodeId>,
}

/// Applies the parsimonious scheduling rule to the children of `node` that
/// just became ready.
///
/// * At a **fork** both children are enabled; `policy` chooses which one to
///   execute first, and the other is pushed.
/// * Otherwise, if two children became ready (a node that both continues
///   its thread and enables a touch in another thread), the continuation
///   child is executed and the touch is pushed, keeping the processor on
///   its own thread.
/// * With a single enabled child the processor simply continues with it;
///   with none it will fall back to its deque.
pub fn schedule_enabled(
    dag: &Dag,
    node: NodeId,
    enabled: &[NodeId],
    policy: ForkPolicy,
) -> Continuation {
    match enabled {
        [] => Continuation::default(),
        [only] => Continuation {
            next: Some(*only),
            push: None,
        },
        _ => {
            if dag.is_fork(node) {
                let left = dag.left_child(node).expect("fork has a future child");
                let right = dag.right_child(node).expect("fork has a right child");
                debug_assert!(enabled.contains(&left) && enabled.contains(&right));
                match policy {
                    ForkPolicy::FutureFirst => Continuation {
                        next: Some(left),
                        push: Some(right),
                    },
                    ForkPolicy::ParentFirst => Continuation {
                        next: Some(right),
                        push: Some(left),
                    },
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
                        Continuation {
                            next: Some(c),
                            push: other,
                        }
                    }
                    None => Continuation {
                        next: Some(enabled[0]),
                        push: enabled.get(1).copied(),
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_dag::DagBuilder;

    fn tiny() -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.chain(f.future_thread, 1);
        b.task(main);
        b.touch_thread(main, f.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    #[test]
    fn tracker_counts_down_dependencies() {
        let dag = tiny();
        let mut t = ReadyTracker::new(&dag);
        assert!(t.is_ready(dag.root()));
        assert!(!t.is_executed(dag.root()));

        let enabled = t.complete(&dag, dag.root());
        assert_eq!(enabled.len(), 1, "root enables the fork");
        assert!(t.is_executed(dag.root()));
        assert_eq!(t.executed_count(), 1);

        let fork = enabled[0];
        let enabled = t.complete(&dag, fork);
        assert_eq!(enabled.len(), 2, "a fork enables both children");

        // The touch is not ready until both parents executed.
        let touch = dag.touches().next().unwrap();
        assert!(!t.is_ready(touch));
    }

    #[test]
    fn fork_policy_selects_child() {
        let dag = tiny();
        let fork = dag.forks().next().unwrap();
        let left = dag.left_child(fork).unwrap();
        let right = dag.right_child(fork).unwrap();
        let enabled = vec![left, right];

        let c = schedule_enabled(&dag, fork, &enabled, ForkPolicy::FutureFirst);
        assert_eq!(c.next, Some(left));
        assert_eq!(c.push, Some(right));

        let c = schedule_enabled(&dag, fork, &enabled, ForkPolicy::ParentFirst);
        assert_eq!(c.next, Some(right));
        assert_eq!(c.push, Some(left));
    }

    #[test]
    fn single_and_zero_enabled() {
        let dag = tiny();
        let c = schedule_enabled(&dag, dag.root(), &[NodeId(1)], ForkPolicy::FutureFirst);
        assert_eq!(c.next, Some(NodeId(1)));
        assert_eq!(c.push, None);

        let c = schedule_enabled(&dag, dag.root(), &[], ForkPolicy::FutureFirst);
        assert_eq!(c, Continuation::default());
    }

    #[test]
    fn non_fork_double_enable_prefers_continuation() {
        // A future thread whose interior node supplies a touch: completing
        // that node can enable both its continuation and the touch.
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        let supplier = f.future_first;
        b.chain(f.future_thread, 1);
        b.task(main); // right child
        let touch1 = b.touch(main, supplier);
        b.touch_thread(main, f.future_thread);
        b.task(main);
        let dag = b.finish().unwrap();

        let cont_succ = dag.node(supplier).continuation_successor().unwrap();
        let c = schedule_enabled(
            &dag,
            supplier,
            &[cont_succ, touch1],
            ForkPolicy::FutureFirst,
        );
        assert_eq!(c.next, Some(cont_succ));
        assert_eq!(c.push, Some(touch1));

        // Order of the enabled slice must not matter.
        let c2 = schedule_enabled(
            &dag,
            supplier,
            &[touch1, cont_succ],
            ForkPolicy::FutureFirst,
        );
        assert_eq!(c, c2);
    }
}
