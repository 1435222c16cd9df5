//! The computation DAG itself.

use crate::edge::{Edge, EdgeKind};
use crate::ids::{Block, NodeId, ThreadId};
use crate::node::NodeData;
use crate::thread::ThreadData;

/// A future-parallel computation DAG.
///
/// Nodes are unit tasks; edges are continuation, future (spawn) and touch
/// (join) edges; threads are maximal chains of continuation edges. The DAG
/// is immutable once built (see [`crate::DagBuilder`]).
///
/// Node ids are assigned in construction order, and the builder only ever
/// adds edges from already-existing nodes to newly-created nodes, so node id
/// order is a valid topological order. Several algorithms in this workspace
/// rely on that property; [`crate::validate()`] re-checks it.
#[derive(Clone, Debug)]
pub struct Dag {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) threads: Vec<ThreadData>,
    pub(crate) root: NodeId,
    pub(crate) final_node: NodeId,
    pub(crate) super_final: bool,
    /// Nodes that are synchronization-only joins (e.g. the `y_i` nodes of
    /// the paper's Figure 7(a), or edges added to a super final node). They
    /// are structurally touches but are not counted by [`Dag::num_touches`].
    pub(crate) sync_only: Vec<bool>,
    /// One past the largest block id any node accesses (0 when no node
    /// accesses memory), computed once at build time.
    pub(crate) block_space: u32,
    /// In-degree of every node, indexed by node id: maintained by the
    /// builder edge by edge, so executors copy it instead of walking
    /// `nodes`.
    pub(crate) in_deg: Vec<u32>,
}

impl Dag {
    /// The root node (in-degree 0), where the computation starts.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The final node (out-degree 0), where the computation ends.
    #[inline]
    pub fn final_node(&self) -> NodeId {
        self.final_node
    }

    /// Whether the DAG has a *super final node*: a final node with incoming
    /// touch edges from the last node of every thread (Section 6.2 of the
    /// paper).
    #[inline]
    pub fn has_super_final_node(&self) -> bool {
        self.super_final
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Access a node's data.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Access a thread's data.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn thread(&self, id: ThreadId) -> &ThreadData {
        &self.threads[id.index()]
    }

    /// Iterate over all node ids in topological (construction) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterate over all thread ids.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len()).map(ThreadId::from_index)
    }

    /// Iterate over all fork nodes (nodes with an outgoing future edge).
    pub fn forks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.node(id).is_fork())
    }

    /// Iterate over all touch nodes (nodes with an incoming touch edge),
    /// including synchronization-only joins.
    pub fn touches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.node(id).is_touch())
    }

    /// Whether `node` is marked as a synchronization-only join (not a real
    /// touch for the purpose of counting `t`).
    #[inline]
    pub fn is_sync_only(&self, node: NodeId) -> bool {
        self.sync_only[node.index()]
    }

    /// Number of *real* touches `t` in the DAG (touch nodes that are not
    /// marked synchronization-only and are not the super final node).
    pub fn num_touches(&self) -> usize {
        self.touches().filter(|&x| !self.is_sync_only(x)).count()
    }

    /// Number of touch nodes of any kind (including joins and the super
    /// final node if it has incoming touch edges).
    pub fn num_touch_nodes(&self) -> usize {
        self.touches().count()
    }

    /// Number of fork nodes.
    pub fn num_forks(&self) -> usize {
        self.forks().count()
    }

    /// Total work `T₁`: the sum of node weights (equals the node count for
    /// unit-weight DAGs).
    pub fn work(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.weight())).sum()
    }

    /// The memory block accessed by `node`, if any.
    #[inline]
    pub fn block_of(&self, node: NodeId) -> Option<Block> {
        self.node(node).block()
    }

    /// One past the largest block id any node accesses, or 0 if no node
    /// accesses memory.
    ///
    /// Workload builders allocate block ids densely from 0 (see
    /// `wsf_workloads::block_alloc::BlockAlloc`), so this is the *dense
    /// block range* the cache simulators pre-size their direct-mapped
    /// block indexes with; it must not exceed `wsf_cache::MAX_BLOCK_SPACE`
    /// for a simulation above the scan crossover. It is maintained
    /// incrementally as blocks are assigned (no extra build pass) and never
    /// shrinks on `clear_block`/re-assignment — it may over-estimate, which
    /// is harmless for a pre-sizing hint.
    #[inline]
    pub fn block_space(&self) -> usize {
        self.block_space as usize
    }

    /// The number of distinct memory blocks referenced by the DAG.
    pub fn num_blocks(&self) -> usize {
        let mut blocks: Vec<u32> = self
            .nodes
            .iter()
            .filter_map(|n| n.block().map(|b| b.0))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len()
    }

    /// The thread spawned by the fork node `fork`, i.e. the thread whose
    /// first node is `fork`'s future successor. Returns `None` if `fork` is
    /// not a fork.
    pub fn future_thread_of_fork(&self, fork: NodeId) -> Option<ThreadId> {
        let first = self.node(fork).future_successor()?;
        Some(self.node(first).thread())
    }

    /// The *future thread of a touch* `x`: the thread containing `x`'s
    /// future parent (the source of its incoming touch edge). Returns
    /// `None` if `x` is not a touch.
    pub fn future_thread_of_touch(&self, x: NodeId) -> Option<ThreadId> {
        let parent = self.node(x).touch_predecessor()?;
        Some(self.node(parent).thread())
    }

    /// The *corresponding fork* of a touch `x`: the fork node that spawned
    /// `x`'s future thread. Returns `None` if `x` is not a touch or its
    /// future thread is the main thread.
    pub fn corresponding_fork(&self, x: NodeId) -> Option<NodeId> {
        let t = self.future_thread_of_touch(x)?;
        self.thread(t).fork()
    }

    /// The *local parent* of a touch `x`: its continuation predecessor.
    pub fn local_parent(&self, x: NodeId) -> Option<NodeId> {
        self.node(x).continuation_predecessor()
    }

    /// The *future parent* of a touch `x`: the source of its incoming touch
    /// edge.
    pub fn future_parent(&self, x: NodeId) -> Option<NodeId> {
        self.node(x).touch_predecessor()
    }

    /// The right child of a fork `v`: its continuation successor (the next
    /// node of the parent thread). Returns `None` if `v` is not a fork.
    pub fn right_child(&self, v: NodeId) -> Option<NodeId> {
        if self.node(v).is_fork() {
            self.node(v).continuation_successor()
        } else {
            None
        }
    }

    /// The left child of a fork `v`: the first node of the future thread it
    /// spawns. Returns `None` if `v` is not a fork.
    pub fn left_child(&self, v: NodeId) -> Option<NodeId> {
        self.node(v).future_successor()
    }

    /// All touches *of* thread `t`: touch nodes whose incoming touch edge
    /// originates at a node of `t`. (These are nodes of *other* threads.)
    pub fn touches_of_thread(&self, t: ThreadId) -> Vec<NodeId> {
        let mut result = Vec::new();
        for &n in self.thread(t).nodes() {
            for succ in self.node(n).touch_successors() {
                result.push(succ);
            }
        }
        result
    }

    /// All touches *by* thread `t`: touch nodes that belong to `t` itself.
    pub fn touches_by_thread(&self, t: ThreadId) -> Vec<NodeId> {
        self.thread(t)
            .nodes()
            .iter()
            .copied()
            .filter(|&n| self.node(n).is_touch())
            .collect()
    }

    /// The successors of `node` that become candidates for execution after
    /// `node` runs, in (future, continuation, touch) edge order.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.node(node).out_edges().iter().copied()
    }

    /// The predecessors of `node`.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.node(node).in_edges().iter().copied()
    }

    /// In-degree of each node, indexed by node id. The executors copy it to
    /// initialise their readiness counters; it is stored at build time, so
    /// the copy is the whole cost.
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_deg
    }

    /// True if `node` is a fork.
    #[inline]
    pub fn is_fork(&self, node: NodeId) -> bool {
        self.node(node).is_fork()
    }

    /// True if `node` is a touch (or join) node.
    #[inline]
    pub fn is_touch(&self, node: NodeId) -> bool {
        self.node(node).is_touch()
    }

    /// A short human-readable summary of the DAG's shape.
    pub fn summary(&self) -> String {
        format!(
            "nodes={} threads={} forks={} touches={} span={} work={}",
            self.num_nodes(),
            self.num_threads(),
            self.num_forks(),
            self.num_touches(),
            crate::traverse::span(self),
            self.work(),
        )
    }

    /// Check the edge-kind invariants the rest of the workspace relies on.
    ///
    /// This is cheaper than [`crate::validate()`] and is used in debug
    /// assertions by the executors.
    pub fn check_edge_invariants(&self) -> bool {
        self.node_ids().all(|id| {
            let n = self.node(id);
            let conts = n
                .out_edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Continuation)
                .count();
            let futs = n
                .out_edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Future)
                .count();
            let touch_preds = n
                .in_edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Touch)
                .count();
            conts <= 1 && futs <= 1 && (touch_preds <= 1 || id == self.final_node)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;
    use crate::ids::{Block, ThreadId};

    /// root -- fork v --> future thread {a, b}; parent continues to u, then
    /// touch x of the future thread, then final node.
    fn small_single_touch() -> crate::Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let fork = b.fork(main);
        let a = fork.future_first;
        let bnode = b.task(fork.future_thread);
        b.set_block(a, Block(1));
        b.set_block(bnode, Block(2));
        let u = b.task(main);
        let _x = b.touch_thread(main, fork.future_thread);
        let _f = b.task(main);
        b.set_block(u, Block(3));
        b.finish().expect("valid dag")
    }

    #[test]
    fn small_dag_shape() {
        let d = small_single_touch();
        assert_eq!(d.num_threads(), 2);
        assert_eq!(d.num_forks(), 1);
        assert_eq!(d.num_touches(), 1);
        assert_eq!(d.num_nodes(), 7);
        assert_eq!(d.work(), 7);
        assert_eq!(d.num_blocks(), 3);
        assert_eq!(d.block_space(), 4, "one past the largest block id");
        assert!(d.check_edge_invariants());
        assert!(!d.has_super_final_node());
    }

    #[test]
    fn fork_and_touch_relations() {
        let d = small_single_touch();
        let fork = d.forks().next().unwrap();
        let touch = d
            .touches()
            .find(|&x| !d.is_sync_only(x))
            .expect("has a touch");

        let ft = d.future_thread_of_fork(fork).unwrap();
        assert_eq!(ft, ThreadId(1));
        assert_eq!(d.future_thread_of_touch(touch), Some(ft));
        assert_eq!(d.corresponding_fork(touch), Some(fork));

        let right = d.right_child(fork).unwrap();
        let left = d.left_child(fork).unwrap();
        assert_eq!(d.node(right).thread(), ThreadId::MAIN);
        assert_eq!(d.node(left).thread(), ft);

        // future parent of the touch is the future thread's last node.
        assert_eq!(d.future_parent(touch), Some(d.thread(ft).last()));
        // local parent is in the main thread.
        let lp = d.local_parent(touch).unwrap();
        assert_eq!(d.node(lp).thread(), ThreadId::MAIN);
    }

    #[test]
    fn touches_of_and_by_thread() {
        let d = small_single_touch();
        let ft = ThreadId(1);
        let of = d.touches_of_thread(ft);
        assert_eq!(of.len(), 1);
        assert_eq!(d.node(of[0]).thread(), ThreadId::MAIN);
        let by_main = d.touches_by_thread(ThreadId::MAIN);
        assert_eq!(by_main, of);
        assert!(d.touches_by_thread(ft).is_empty());
    }

    #[test]
    fn summary_mentions_counts() {
        let d = small_single_touch();
        let s = d.summary();
        assert!(s.contains("nodes=7"));
        assert!(s.contains("threads=2"));
        assert!(s.contains("touches=1"));
    }

    #[test]
    fn root_and_final() {
        let d = small_single_touch();
        assert_eq!(d.node(d.root()).in_degree(), 0);
        assert_eq!(d.node(d.final_node()).out_degree(), 0);
        assert_eq!(d.node(d.root()).thread(), ThreadId::MAIN);
        assert_eq!(d.node(d.final_node()).thread(), ThreadId::MAIN);
    }

    #[test]
    fn in_degrees_vector() {
        let d = small_single_touch();
        let degs = d.in_degrees();
        assert_eq!(degs.len(), d.num_nodes());
        assert_eq!(degs[d.root().index()], 0);
        let touch = d.touches().next().unwrap();
        assert_eq!(degs[touch.index()], 2);
    }
}
