//! Readiness tracking and the one enabling rule every executor applies.
//!
//! A completing node decrements the outstanding-dependency counts of the
//! (at most two) successors in its [`SuccessorRecord`]; the successors that
//! reach zero are *enabled*. [`next_and_push`] then applies the paper's
//! parsimonious rule to them: the processor continues with one enabled
//! successor and pushes the other onto the bottom of its deque. The
//! sequential executor, the parallel simulator and the pool executor
//! (`wsf_workloads::dag_exec`) all call it, so they cannot disagree.

use crate::policy::ForkPolicy;
use wsf_dag::{Dag, NodeId, SuccessorRecord};

/// Tracks how many of each node's dependencies are still outstanding and
/// how many nodes have executed.
#[derive(Clone, Debug, Default)]
pub struct ReadyTracker {
    /// Outstanding dependencies per node; [`Self::EXECUTED`] once the node
    /// has run.
    remaining: Vec<u32>,
    executed_count: usize,
}

impl ReadyTracker {
    /// Marks an executed node in `remaining`; no in-degree reaches it.
    const EXECUTED: u32 = u32::MAX;

    /// Creates a tracker for `dag` with nothing executed yet.
    pub fn new(dag: &Dag) -> Self {
        let mut t = ReadyTracker::default();
        t.reset(dag);
        t
    }

    /// Whether `node` has already executed.
    #[inline]
    pub fn is_executed(&self, node: NodeId) -> bool {
        self.remaining[node.index()] == Self::EXECUTED
    }

    /// Whether every dependency of `node` has executed (and `node` itself
    /// has not).
    #[inline]
    pub fn is_ready(&self, node: NodeId) -> bool {
        self.remaining[node.index()] == 0
    }

    /// Number of nodes executed so far.
    #[inline]
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }

    /// Marks `node` executed and decrements the dependency counts of the
    /// successors in its `record` (which must be `dag.record(node)`).
    /// Returns, per slot of the record, whether that successor became
    /// ready — the input [`next_and_push`] takes.
    #[inline]
    pub fn retire(&mut self, node: NodeId, record: &SuccessorRecord) -> [bool; 2] {
        debug_assert!(
            self.is_ready(node),
            "completing a node whose dependencies have not run, or twice"
        );
        self.remaining[node.index()] = Self::EXECUTED;
        self.executed_count += 1;
        record.successors().map(|succ| {
            succ.is_some_and(|s| {
                let r = &mut self.remaining[s.index()];
                *r -= 1;
                *r == 0
            })
        })
    }

    /// [`Self::retire`] for a chain node: `succ` is the only successor of
    /// `node` and has no other predecessor, so it becomes ready and the
    /// enabled slots are known without reading the record.
    #[inline]
    pub(crate) fn retire_chain(&mut self, node: NodeId, succ: NodeId) {
        debug_assert!(
            self.is_ready(node),
            "completing a node whose dependencies have not run, or twice"
        );
        debug_assert_eq!(
            self.remaining[succ.index()],
            1,
            "a chain successor has in-degree 1"
        );
        self.remaining[node.index()] = Self::EXECUTED;
        self.remaining[succ.index()] = 0;
        self.executed_count += 1;
    }

    /// Re-initializes the tracker for `dag`, reusing the existing storage.
    ///
    /// Equivalent to `*self = ReadyTracker::new(dag)` but without allocating
    /// when the tracker's buffer already has enough capacity, which lets a
    /// [`crate::SimScratch`] run many simulations with zero steady-state
    /// heap traffic.
    pub fn reset(&mut self, dag: &Dag) {
        self.remaining.clear();
        self.remaining.extend_from_slice(dag.in_degrees());
        self.executed_count = 0;
    }
}

/// The parsimonious rule: given a completed node's `record` and which of
/// its two slots the completion `enabled`, returns `(next, push)` — the
/// successor the processor executes next and the one it pushes onto the
/// bottom of its deque.
///
/// The record's preference order already is the rule — at a fork the
/// future child before the right child, elsewhere the continuation before
/// a touch — so the first enabled slot runs and the second is pushed. The
/// one exception: when both children of a fork are enabled under
/// [`ForkPolicy::ParentFirst`], the pair swaps. With no enabled successor
/// both are `None` and the processor falls back to its deque.
#[inline]
pub fn next_and_push(
    record: &SuccessorRecord,
    enabled: [bool; 2],
    policy: ForkPolicy,
) -> (Option<NodeId>, Option<NodeId>) {
    let [a, b] = record.successors();
    let a = a.filter(|_| enabled[0]);
    let b = b.filter(|_| enabled[1]);
    match (a, b) {
        (Some(a), Some(b)) if record.is_fork() && policy == ForkPolicy::ParentFirst => {
            (Some(b), Some(a))
        }
        (Some(a), b) => (Some(a), b),
        (None, b) => (b, None),
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

        let root = dag.root();
        assert_eq!(
            t.retire(root, dag.record(root)),
            [true, false],
            "root enables the fork"
        );
        assert!(t.is_executed(root) && !t.is_ready(root));
        assert_eq!(t.executed_count(), 1);

        let fork = dag.forks().next().unwrap();
        assert_eq!(
            t.retire(fork, dag.record(fork)),
            [true, true],
            "a fork enables both children"
        );

        // The touch is not ready until both parents executed.
        let touch = dag.touches().next().unwrap();
        assert!(!t.is_ready(touch));
    }

    #[test]
    fn fork_policy_selects_child() {
        let dag = tiny();
        let fork = dag.forks().next().unwrap();
        let left = dag.left_child(fork);
        let right = dag.right_child(fork);
        let record = dag.record(fork);

        let both = [true, true];
        assert_eq!(
            next_and_push(record, both, ForkPolicy::FutureFirst),
            (left, right)
        );
        assert_eq!(
            next_and_push(record, both, ForkPolicy::ParentFirst),
            (right, left)
        );
    }

    #[test]
    fn single_and_zero_enabled() {
        let dag = tiny();
        let root = dag.record(dag.root());
        for policy in ForkPolicy::ALL {
            assert_eq!(
                next_and_push(root, [true, false], policy),
                (Some(NodeId(1)), None)
            );
            assert_eq!(next_and_push(root, [false, false], policy), (None, None));
        }
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

        let cont_succ = dag.node(supplier).continuation_successor();
        for policy in ForkPolicy::ALL {
            assert_eq!(
                next_and_push(dag.record(supplier), [true, true], policy),
                (cont_succ, Some(touch1))
            );
            assert_eq!(
                next_and_push(dag.record(supplier), [false, true], policy),
                (Some(touch1), None)
            );
        }
    }
}
