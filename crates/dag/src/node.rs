//! Per-node data stored by the DAG: the thread and edge lists of
//! [`NodeData`], which construction, validation and the analyses read, and
//! the fixed-size [`SuccessorRecord`] — successors, fork bit and memory
//! block — which is all the executors read.

use crate::edge::{Edge, EdgeKind};
use crate::ids::{Block, NodeId, ThreadId};

/// An edge list that stores up to two edges inline and spills to the heap
/// only beyond that.
///
/// Degrees in the paper's DAG model are at most two for every node except a
/// super final node, so with inline storage building a DAG performs no
/// heap allocation per node — the dominant cost of constructing the
/// 10^5–10^6-node graphs the scale experiments use. The spilled
/// representation keeps super-final in-degrees unbounded. Inline slots fill
/// in order and an empty one points at [`EdgeList::UNUSED`], so the list
/// needs no length byte and is no larger than the spilled `Vec`.
#[derive(Clone, Debug)]
enum EdgeList {
    Inline([Edge; 2]),
    Spilled(Vec<Edge>),
}

impl EdgeList {
    /// The target of an empty inline slot; no node has this id.
    const UNUSED: NodeId = NodeId(u32::MAX);

    const fn new() -> Self {
        let empty = Edge {
            node: Self::UNUSED,
            kind: EdgeKind::Continuation,
        };
        EdgeList::Inline([empty; 2])
    }

    #[inline]
    fn as_slice(&self) -> &[Edge] {
        match self {
            EdgeList::Inline(edges) => {
                let len = usize::from(edges[0].node != Self::UNUSED)
                    + usize::from(edges[1].node != Self::UNUSED);
                &edges[..len]
            }
            EdgeList::Spilled(v) => v,
        }
    }

    fn push(&mut self, edge: Edge) {
        match self {
            EdgeList::Inline(edges) => {
                if let Some(slot) = edges.iter_mut().find(|e| e.node == Self::UNUSED) {
                    *slot = edge;
                } else {
                    let mut v = Vec::with_capacity(4);
                    v.extend_from_slice(&edges[..]);
                    v.push(edge);
                    *self = EdgeList::Spilled(v);
                }
            }
            EdgeList::Spilled(v) => v.push(edge),
        }
    }
}

/// Data stored for a single node (unit task) of the computation DAG.
///
/// A node belongs to exactly one thread and carries its incoming and
/// outgoing edges; the memory block it accesses, if any, is in its
/// [`SuccessorRecord`] ([`crate::Dag::block_of`]). Every node takes one
/// time step to execute, as in the paper's model. Degrees are at most
/// two for every node except a *super final node* (see
/// [`crate::Dag::has_super_final_node`]), which may have arbitrary
/// in-degree.
#[derive(Clone, Debug)]
pub struct NodeData {
    thread: ThreadId,
    out_edges: EdgeList,
    in_edges: EdgeList,
}

impl NodeData {
    /// Creates a fresh node belonging to `thread` with no edges.
    pub(crate) fn new(thread: ThreadId) -> Self {
        NodeData {
            thread,
            out_edges: EdgeList::new(),
            in_edges: EdgeList::new(),
        }
    }

    /// The thread this node belongs to.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Outgoing edges, in insertion order.
    #[inline]
    pub fn out_edges(&self) -> &[Edge] {
        self.out_edges.as_slice()
    }

    /// Incoming edges, in insertion order.
    #[inline]
    pub fn in_edges(&self) -> &[Edge] {
        self.in_edges.as_slice()
    }

    /// Out-degree of the node.
    #[inline]
    pub fn out_degree(&self) -> usize {
        self.out_edges.as_slice().len()
    }

    /// In-degree of the node.
    #[inline]
    pub fn in_degree(&self) -> usize {
        self.in_edges.as_slice().len()
    }

    /// The continuation successor (next node of the same thread), if any.
    pub fn continuation_successor(&self) -> Option<NodeId> {
        self.out_edges()
            .iter()
            .find(|e| e.kind == EdgeKind::Continuation)
            .map(|e| e.node)
    }

    /// The continuation predecessor (previous node of the same thread), if
    /// any.
    pub fn continuation_predecessor(&self) -> Option<NodeId> {
        self.in_edges()
            .iter()
            .find(|e| e.kind == EdgeKind::Continuation)
            .map(|e| e.node)
    }

    /// The future (spawn) successor, i.e. the first node of the thread this
    /// node forks, if this node is a fork.
    pub fn future_successor(&self) -> Option<NodeId> {
        self.out_edges()
            .iter()
            .find(|e| e.kind == EdgeKind::Future)
            .map(|e| e.node)
    }

    /// The touch successors: touch nodes whose value this node supplies.
    pub fn touch_successors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Touch)
            .map(|e| e.node)
    }

    /// The touch predecessor (the *future parent*) of this node, if this
    /// node is a touch.
    pub fn touch_predecessor(&self) -> Option<NodeId> {
        self.in_edges()
            .iter()
            .find(|e| e.kind == EdgeKind::Touch)
            .map(|e| e.node)
    }

    /// Whether the node is a fork: it has an outgoing future edge.
    #[inline]
    pub fn is_fork(&self) -> bool {
        self.out_edges().iter().any(|e| e.kind == EdgeKind::Future)
    }

    /// Whether the node is a touch (or join) node: it has an incoming touch
    /// edge.
    #[inline]
    pub fn is_touch(&self) -> bool {
        self.in_edges().iter().any(|e| e.kind == EdgeKind::Touch)
    }

    /// Whether the node is a future parent: it has an outgoing touch edge.
    #[inline]
    pub fn is_future_parent(&self) -> bool {
        self.out_edges().iter().any(|e| e.kind == EdgeKind::Touch)
    }

    pub(crate) fn push_out(&mut self, edge: Edge) {
        self.out_edges.push(edge);
    }

    pub(crate) fn push_in(&mut self, edge: Edge) {
        self.in_edges.push(edge);
    }
}

/// The parsimonious enabling decision of one node, frozen while the DAG is
/// built: everything an executor reads when the node completes.
///
/// `succ` holds the node's (at most two, checked by [`crate::validate()`])
/// successors in *preference order*: at a fork the future child, then the
/// other successor (the right child, or a touch when the fork ends its
/// thread); at any other node the continuation successor, then the touch
/// successor; two touch successors keep their out-edge order. Knowing which
/// slots a completion enabled, the order and the fork bit decide what runs
/// next and what is pushed, with no edge-list walk
/// (`wsf_core::next_and_push`). Empty slots and "no block" hold
/// [`u32::MAX`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SuccessorRecord {
    succ: [u32; 2],
    block: u32,
    fork: bool,
}

impl SuccessorRecord {
    const NONE: u32 = u32::MAX;

    /// The record of a node with no successors and no block.
    pub(crate) const EMPTY: SuccessorRecord = SuccessorRecord {
        succ: [Self::NONE; 2],
        block: Self::NONE,
        fork: false,
    };

    /// The successors in preference order.
    #[inline]
    pub fn successors(&self) -> [Option<NodeId>; 2] {
        self.succ.map(|s| (s != Self::NONE).then_some(NodeId(s)))
    }

    /// Whether the node is a fork (it has an outgoing future edge).
    #[inline]
    pub fn is_fork(&self) -> bool {
        self.fork
    }

    /// The memory block the node accesses, if any.
    #[inline]
    pub fn block(&self) -> Option<Block> {
        (self.block != Self::NONE).then_some(Block(self.block))
    }

    /// Records a new out-edge. The slot follows from the edge kinds alone,
    /// so the record does not depend on the order edges are added in: a
    /// future edge goes first; a continuation goes first unless the node is
    /// a fork (the only other edge a continuation can meet is a touch); a
    /// touch goes after whatever is there.
    pub(crate) fn link(&mut self, to: NodeId, kind: EdgeKind) {
        let first = match kind {
            EdgeKind::Future => {
                self.fork = true;
                true
            }
            EdgeKind::Continuation => !self.fork,
            EdgeKind::Touch => self.succ[0] == Self::NONE,
        };
        if first {
            self.succ = [to.0, self.succ[0]];
        } else {
            self.succ[1] = to.0;
        }
    }

    /// Sets (or clears) the accessed block.
    ///
    /// # Panics
    /// Panics on `Block(u32::MAX)`, the "no block" sentinel.
    pub(crate) fn set_block(&mut self, block: Option<Block>) {
        self.block = match block {
            Some(b) => {
                assert!(b.0 != Self::NONE, "block id u32::MAX is reserved");
                b.0
            }
            None => Self::NONE,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with_edges() -> NodeData {
        let mut n = NodeData::new(ThreadId(2));
        n.push_out(Edge::new(NodeId(5), EdgeKind::Continuation));
        n.push_out(Edge::new(NodeId(9), EdgeKind::Future));
        n.push_in(Edge::new(NodeId(1), EdgeKind::Continuation));
        n
    }

    #[test]
    fn fresh_node_has_no_edges() {
        let n = NodeData::new(ThreadId(1));
        assert_eq!(n.thread(), ThreadId(1));
        assert_eq!(n.out_degree(), 0);
        assert_eq!(n.in_degree(), 0);
        assert!(!n.is_fork());
        assert!(!n.is_touch());
        assert!(!n.is_future_parent());
    }

    #[test]
    fn successor_queries() {
        let n = node_with_edges();
        assert_eq!(n.continuation_successor(), Some(NodeId(5)));
        assert_eq!(n.future_successor(), Some(NodeId(9)));
        assert_eq!(n.continuation_predecessor(), Some(NodeId(1)));
        assert!(n.is_fork());
        assert_eq!(n.touch_successors().count(), 0);
    }

    #[test]
    fn touch_queries() {
        let mut n = NodeData::new(ThreadId(0));
        n.push_in(Edge::new(NodeId(3), EdgeKind::Touch));
        n.push_in(Edge::new(NodeId(2), EdgeKind::Continuation));
        assert!(n.is_touch());
        assert_eq!(n.touch_predecessor(), Some(NodeId(3)));
        assert_eq!(n.continuation_predecessor(), Some(NodeId(2)));
    }

    #[test]
    fn future_parent_query() {
        let mut n = NodeData::new(ThreadId(0));
        n.push_out(Edge::new(NodeId(7), EdgeKind::Touch));
        assert!(n.is_future_parent());
        assert_eq!(n.touch_successors().collect::<Vec<_>>(), vec![NodeId(7)]);
    }

    #[test]
    fn per_node_data_stays_compact() {
        use std::mem::size_of;
        assert!(size_of::<SuccessorRecord>() <= 16);
        assert_eq!(size_of::<EdgeList>(), size_of::<Vec<Edge>>());
    }

    #[test]
    fn edge_list_spills_past_two_edges() {
        let mut n = NodeData::new(ThreadId(0));
        let edges: Vec<Edge> = (0..5)
            .map(|i| Edge::new(NodeId(i), EdgeKind::Touch))
            .collect();
        for (i, &e) in edges.iter().enumerate() {
            n.push_in(e);
            assert_eq!(n.in_edges(), &edges[..=i]);
        }
    }

    /// Links `edges` into a fresh record in the given order.
    fn record_of(edges: &[(u32, EdgeKind)]) -> SuccessorRecord {
        let mut r = SuccessorRecord::EMPTY;
        for &(to, kind) in edges {
            r.link(NodeId(to), kind);
        }
        r
    }

    #[test]
    fn record_order_is_independent_of_edge_order() {
        use EdgeKind::{Continuation as C, Future as F, Touch as T};
        let some = |a, b| [Some(NodeId(a)), Some(NodeId(b))];
        // A fork: future child first, whichever edge came first.
        for edges in [[(7, F), (3, C)], [(3, C), (7, F)]] {
            let r = record_of(&edges);
            assert!(r.is_fork());
            assert_eq!(r.successors(), some(7, 3));
        }
        // A fork whose thread ends at it and is touched.
        for edges in [[(7, F), (4, T)], [(4, T), (7, F)]] {
            assert_eq!(record_of(&edges).successors(), some(7, 4));
        }
        // A non-fork supplying a touch: continuation first.
        for edges in [[(5, C), (9, T)], [(9, T), (5, C)]] {
            let r = record_of(&edges);
            assert!(!r.is_fork());
            assert_eq!(r.successors(), some(5, 9));
        }
        // Two touches keep their out-edge order.
        assert_eq!(record_of(&[(9, T), (4, T)]).successors(), some(9, 4));
        assert_eq!(record_of(&[(6, T)]).successors(), [Some(NodeId(6)), None]);
        assert_eq!(SuccessorRecord::EMPTY.successors(), [None, None]);
    }

    #[test]
    fn record_block() {
        let mut r = SuccessorRecord::EMPTY;
        assert_eq!(r.block(), None);
        r.set_block(Some(Block(0)));
        assert_eq!(r.block(), Some(Block(0)));
        r.set_block(None);
        assert_eq!(r.block(), None);
    }
}
