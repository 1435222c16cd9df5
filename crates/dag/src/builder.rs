//! Incremental construction of computation DAGs.

use crate::dag::Dag;
use crate::edge::{Edge, EdgeKind};
use crate::error::DagError;
use crate::ids::{Block, NodeId, ThreadId};
use crate::node::{NodeData, SuccessorRecord};
use crate::thread::ThreadData;

/// The result of spawning a future thread with [`DagBuilder::fork`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fork {
    /// The fork node, appended to the parent thread.
    pub node: NodeId,
    /// The newly created future thread.
    pub future_thread: ThreadId,
    /// The first node of the future thread (the fork's left child).
    pub future_first: NodeId,
}

/// Builder for [`Dag`]s.
///
/// The builder starts with a main thread containing only the root node.
/// Nodes are appended to threads one at a time; [`DagBuilder::fork`] spawns
/// future threads and [`DagBuilder::touch`] / [`DagBuilder::touch_thread`]
/// create touch nodes. Because every edge runs from an already-existing node
/// to a newly created one, construction order is a topological order of the
/// resulting DAG, and cycles are impossible by construction.
///
/// The panicking methods (`task`, `fork`, `touch`, ...) are convenience
/// wrappers over the corresponding `try_*` methods and panic on misuse
/// (e.g. appending past a node that already has two outgoing edges); the
/// `try_*` methods return [`DagError`] instead.
#[derive(Clone, Debug)]
pub struct DagBuilder {
    nodes: Vec<NodeData>,
    threads: Vec<ThreadData>,
    sync_only: Vec<bool>,
    /// One past the largest block id ever assigned (maintained by
    /// [`DagBuilder::set_block`] so `finish` needs no extra node pass).
    block_space: u32,
    /// Per-node in-degree, counted as edges are connected (the finished
    /// DAG's [`Dag::in_degrees`]).
    in_deg: Vec<u32>,
    /// Per-node successor record, kept edge by edge and block by block
    /// like `in_deg` (the finished DAG's [`Dag::record`]).
    records: Vec<SuccessorRecord>,
    /// Pool of empty per-thread node buffers reclaimed by
    /// [`DagBuilder::recycle`]; [`DagBuilder::fork`] draws from it so a
    /// recycled builder creates threads without allocating.
    spare: Vec<Vec<NodeId>>,
}

impl Default for DagBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DagBuilder {
    /// Creates a builder whose main thread contains only the root node.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Like [`DagBuilder::new`], but pre-reserving space for `nodes` nodes
    /// and `threads` threads.
    ///
    /// Generators that know their size up front (the workload builders, the
    /// random-DAG generator, the figure constructions) should use this: DAG
    /// construction is the dominant cost of the analysis sweeps, and
    /// re-growing the node/thread vectors is a measurable part of it.
    pub fn with_capacity(nodes: usize, threads: usize) -> Self {
        let mut b = DagBuilder {
            nodes: Vec::with_capacity(nodes),
            threads: Vec::with_capacity(threads.max(1)),
            sync_only: Vec::with_capacity(nodes),
            block_space: 0,
            in_deg: Vec::with_capacity(nodes),
            records: Vec::with_capacity(nodes),
            spare: Vec::new(),
        };
        let main = ThreadData::new(ThreadId::MAIN, None, None);
        b.threads.push(main);
        b.new_node(ThreadId::MAIN);
        b
    }

    /// Reserves capacity for at least `nodes` more nodes and `threads` more
    /// threads.
    pub fn reserve(&mut self, nodes: usize, threads: usize) {
        self.nodes.reserve(nodes);
        self.sync_only.reserve(nodes);
        self.in_deg.reserve(nodes);
        self.records.reserve(nodes);
        self.threads.reserve(threads);
    }

    /// The main thread's id (always [`ThreadId::MAIN`]).
    pub fn main_thread(&self) -> ThreadId {
        ThreadId::MAIN
    }

    /// The root node's id.
    pub fn root(&self) -> NodeId {
        self.threads[0].first()
    }

    /// The current number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The current number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The current last node of `thread`.
    ///
    /// # Panics
    /// Panics if `thread` does not exist.
    pub fn last_of(&self, thread: ThreadId) -> NodeId {
        self.threads[thread.index()].last()
    }

    /// The first node of `thread`.
    ///
    /// # Panics
    /// Panics if `thread` does not exist.
    pub fn first_of(&self, thread: ThreadId) -> NodeId {
        self.threads[thread.index()].first()
    }

    /// Number of nodes currently in `thread`.
    pub fn len_of(&self, thread: ThreadId) -> usize {
        self.threads[thread.index()].len()
    }

    // ------------------------------------------------------------------
    // node creation
    // ------------------------------------------------------------------

    fn new_node(&mut self, thread: ThreadId) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData::new(thread));
        self.sync_only.push(false);
        self.in_deg.push(0);
        self.records.push(SuccessorRecord::EMPTY);
        self.threads[thread.index()].push_node(id);
        id
    }

    fn connect(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        self.nodes[from.index()].push_out(Edge::new(to, kind));
        self.nodes[to.index()].push_in(Edge::new(from, kind));
        self.in_deg[to.index()] += 1;
        self.records[from.index()].link(to, kind);
    }

    fn check_thread(&self, thread: ThreadId) -> Result<(), DagError> {
        if thread.index() < self.threads.len() {
            Ok(())
        } else {
            Err(DagError::UnknownThread(thread))
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), DagError> {
        if node.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(DagError::UnknownNode(node))
        }
    }

    /// Checks that `thread` can be extended by one more node via a
    /// continuation edge from its current last node.
    fn check_extendable(&self, thread: ThreadId) -> Result<NodeId, DagError> {
        self.check_thread(thread)?;
        let last = self.threads[thread.index()].last();
        let data = &self.nodes[last.index()];
        if data.continuation_successor().is_some() {
            return Err(DagError::DegreeViolation {
                node: last,
                detail: "node already has a continuation successor".to_string(),
            });
        }
        if data.out_degree() >= 2 {
            return Err(DagError::DegreeViolation {
                node: last,
                detail: "node already has two outgoing edges".to_string(),
            });
        }
        Ok(last)
    }

    /// Appends an ordinary task node to `thread`.
    pub fn try_task(&mut self, thread: ThreadId) -> Result<NodeId, DagError> {
        let last = self.check_extendable(thread)?;
        let id = self.new_node(thread);
        self.connect(last, id, EdgeKind::Continuation);
        Ok(id)
    }

    /// Appends an ordinary task node to `thread`.
    ///
    /// # Panics
    /// Panics if the thread cannot be extended.
    pub fn task(&mut self, thread: ThreadId) -> NodeId {
        self.try_task(thread).expect("task append failed")
    }

    /// Appends a task node that accesses `block`.
    pub fn task_block(&mut self, thread: ThreadId, block: Block) -> NodeId {
        let id = self.task(thread);
        self.set_block(id, block);
        id
    }

    /// Appends a chain of `count` task nodes to `thread`, returning the id
    /// of the last one (or the thread's current last node if `count == 0`).
    pub fn chain(&mut self, thread: ThreadId, count: usize) -> NodeId {
        let mut last = self.last_of(thread);
        for _ in 0..count {
            last = self.task(thread);
        }
        last
    }

    /// Appends a chain of task nodes accessing `blocks` in order, returning
    /// the ids of the appended nodes.
    pub fn chain_blocks(&mut self, thread: ThreadId, blocks: &[Block]) -> Vec<NodeId> {
        blocks.iter().map(|&b| self.task_block(thread, b)).collect()
    }

    /// Spawns a future thread at the end of `thread`.
    ///
    /// Appends a fork node to `thread`, creates the future thread with its
    /// first node (the fork's left child) and connects the future edge. The
    /// fork's right child is whatever node is appended to `thread` next.
    pub fn try_fork(&mut self, thread: ThreadId) -> Result<Fork, DagError> {
        let fork_node = self.try_task(thread)?;
        let new_tid = ThreadId::from_index(self.threads.len());
        let buf = self.spare.pop().unwrap_or_default();
        self.threads.push(ThreadData::with_buffer(
            new_tid,
            Some(thread),
            Some(fork_node),
            buf,
        ));
        let first = self.new_node(new_tid);
        self.connect(fork_node, first, EdgeKind::Future);
        Ok(Fork {
            node: fork_node,
            future_thread: new_tid,
            future_first: first,
        })
    }

    /// Spawns a future thread at the end of `thread`.
    ///
    /// # Panics
    /// Panics if the thread cannot be extended.
    pub fn fork(&mut self, thread: ThreadId) -> Fork {
        self.try_fork(thread).expect("fork append failed")
    }

    /// Appends a touch node to `thread` whose future parent is `source`
    /// (a node of another thread, typically that thread's last node).
    pub fn try_touch(&mut self, thread: ThreadId, source: NodeId) -> Result<NodeId, DagError> {
        self.check_node(source)?;
        let last = self.check_extendable(thread)?;
        // The paper's convention: the children of a fork cannot be touches.
        if self.nodes[last.index()].is_fork() {
            return Err(DagError::ForkChildIsTouch {
                fork: last,
                child: NodeId::from_index(self.nodes.len()),
            });
        }
        if self.nodes[source.index()].out_degree() >= 2 {
            return Err(DagError::TouchSourceUnavailable(source));
        }
        if self.nodes[source.index()].thread() == thread {
            return Err(DagError::DegreeViolation {
                node: source,
                detail: "touch edge must connect two distinct threads".to_string(),
            });
        }
        let id = self.new_node(thread);
        self.connect(last, id, EdgeKind::Continuation);
        self.connect(source, id, EdgeKind::Touch);
        Ok(id)
    }

    /// Appends a touch node to `thread` whose future parent is `source`.
    ///
    /// # Panics
    /// Panics on builder misuse (see [`DagBuilder::try_touch`]).
    pub fn touch(&mut self, thread: ThreadId, source: NodeId) -> NodeId {
        self.try_touch(thread, source).expect("touch append failed")
    }

    /// Appends a touch node to `thread` touching the future computed by
    /// `future_thread` (the touch edge originates at that thread's current
    /// last node).
    pub fn try_touch_thread(
        &mut self,
        thread: ThreadId,
        future_thread: ThreadId,
    ) -> Result<NodeId, DagError> {
        self.check_thread(future_thread)?;
        let source = self.threads[future_thread.index()].last();
        self.try_touch(thread, source)
    }

    /// Appends a touch node to `thread` touching the future computed by
    /// `future_thread`.
    ///
    /// # Panics
    /// Panics on builder misuse.
    pub fn touch_thread(&mut self, thread: ThreadId, future_thread: ThreadId) -> NodeId {
        self.try_touch_thread(thread, future_thread)
            .expect("touch_thread append failed")
    }

    /// Like [`DagBuilder::touch`], but marks the new node as a
    /// synchronization-only *join* (not counted by [`Dag::num_touches`]).
    ///
    /// The paper distinguishes between touches and join nodes when counting
    /// `t` in the Theorem 10 construction (Figure 7(a)).
    pub fn join(&mut self, thread: ThreadId, source: NodeId) -> NodeId {
        let id = self.touch(thread, source);
        self.sync_only[id.index()] = true;
        id
    }

    /// Like [`DagBuilder::touch_thread`], but marks the new node as a
    /// synchronization-only join.
    pub fn join_thread(&mut self, thread: ThreadId, future_thread: ThreadId) -> NodeId {
        let id = self.touch_thread(thread, future_thread);
        self.sync_only[id.index()] = true;
        id
    }

    // ------------------------------------------------------------------
    // attributes
    // ------------------------------------------------------------------

    /// Sets the memory block accessed by `node`.
    ///
    /// # Panics
    /// Panics on `Block(u32::MAX)`, which the successor record reserves
    /// for "no block".
    pub fn set_block(&mut self, node: NodeId, block: Block) {
        self.block_space = self.block_space.max(block.0.saturating_add(1));
        self.records[node.index()].set_block(Some(block));
    }

    /// Clears the memory block accessed by `node`.
    pub fn clear_block(&mut self, node: NodeId) {
        self.records[node.index()].set_block(None);
    }

    /// Marks `node` as a synchronization-only join.
    pub fn mark_sync_only(&mut self, node: NodeId) {
        self.sync_only[node.index()] = true;
    }

    // ------------------------------------------------------------------
    // finishing
    // ------------------------------------------------------------------

    /// Finishes the DAG, checking the paper's structural conventions:
    /// every non-main thread must be synchronized (its last node must have
    /// an outgoing touch edge) and the main thread's last node is the final
    /// node with out-degree 0.
    pub fn finish(self) -> Result<Dag, DagError> {
        self.finish_inner(true, false)
    }

    /// Finishes the DAG without requiring every thread to be synchronized.
    ///
    /// Intended for deliberately ill-formed or partial computations used in
    /// negative tests; most callers want [`DagBuilder::finish`] or
    /// [`DagBuilder::finish_with_super_final`].
    pub fn finish_lenient(self) -> Result<Dag, DagError> {
        self.finish_inner(false, false)
    }

    /// Finishes the DAG after adding a *super final node* synchronization
    /// edge (a sync-only touch edge) from the last node of every thread that
    /// is not otherwise synchronized to the final node (Section 6.2).
    pub fn finish_with_super_final(self) -> Result<Dag, DagError> {
        self.finish_inner(true, true)
    }

    /// Like [`DagBuilder::finish`], but by mutable reference: takes the
    /// built DAG out of the builder, leaving it *spent* (no threads, no
    /// nodes) but still holding its spare-buffer pool. A spent builder must
    /// be revived with [`DagBuilder::recycle`] or [`DagBuilder::reset`]
    /// before further appends.
    ///
    /// Together with `recycle`, this is the arena workflow of long-lived
    /// builders (one per server connection): `build → finish_take → execute
    /// → recycle` performs no steady-state allocation once the pooled
    /// buffers have grown to the traffic's working set.
    pub fn finish_take(&mut self) -> Result<Dag, DagError> {
        self.finish_take_inner(true, false)
    }

    /// [`DagBuilder::finish_with_super_final`] by mutable reference; see
    /// [`DagBuilder::finish_take`].
    pub fn finish_take_with_super_final(&mut self) -> Result<Dag, DagError> {
        self.finish_take_inner(true, true)
    }

    fn finish_take_inner(
        &mut self,
        require_sync: bool,
        super_final: bool,
    ) -> Result<Dag, DagError> {
        let spare = std::mem::take(&mut self.spare);
        let taken = std::mem::replace(self, DagBuilder::spent());
        self.spare = spare;
        taken.finish_inner(require_sync, super_final)
    }

    /// A builder with no threads and no root — the post-`finish_take`
    /// state. Performs no allocation.
    fn spent() -> Self {
        DagBuilder {
            nodes: Vec::new(),
            threads: Vec::new(),
            sync_only: Vec::new(),
            block_space: 0,
            in_deg: Vec::new(),
            records: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Reabsorbs a finished DAG's backing storage and resets to the
    /// fresh-builder state (main thread + root node).
    ///
    /// The DAG's node/thread/flag vectors become the builder's own and every
    /// per-thread node buffer joins the spare pool, so rebuilding a DAG of
    /// similar shape allocates nothing.
    pub fn recycle(&mut self, dag: Dag) {
        let Dag {
            nodes,
            threads,
            sync_only,
            in_deg,
            records,
            ..
        } = dag;
        let old = std::mem::replace(&mut self.threads, threads);
        for t in old {
            let mut buf = t.into_nodes();
            buf.clear();
            self.spare.push(buf);
        }
        self.nodes = nodes;
        self.sync_only = sync_only;
        self.in_deg = in_deg;
        self.records = records;
        self.reset();
    }

    /// Clears the builder back to the fresh state (main thread containing
    /// only the root node) while keeping all backing storage for reuse.
    /// Also revives a builder spent by [`DagBuilder::finish_take`].
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.sync_only.clear();
        self.in_deg.clear();
        self.records.clear();
        self.block_space = 0;
        let mut threads = std::mem::take(&mut self.threads);
        // Last thread first, so the pool's top is the main thread's buffer
        // and each thread a rebuild of the same shape creates (in the same
        // order) pops the buffer it had before, already large enough.
        for t in threads.drain(..).rev() {
            let mut buf = t.into_nodes();
            buf.clear();
            self.spare.push(buf);
        }
        self.threads = threads;
        let buf = self.spare.pop().unwrap_or_default();
        self.threads
            .push(ThreadData::with_buffer(ThreadId::MAIN, None, None, buf));
        self.new_node(ThreadId::MAIN);
    }

    fn finish_inner(mut self, require_sync: bool, super_final: bool) -> Result<Dag, DagError> {
        if self.nodes.is_empty() || self.threads.is_empty() {
            return Err(DagError::EmptyDag);
        }

        if super_final {
            // Append a dedicated super final node to the main thread so that
            // the node collecting the synchronization edges is never the
            // right child of a fork (the model forbids fork children from
            // being touches).
            self.try_task(ThreadId::MAIN)?;
        }
        let final_node = self.threads[0].last();

        if super_final {
            // Add a sync edge from every unsynchronized thread's last node
            // to the final node. The final node may then exceed in-degree 2;
            // that is the defining feature of a super final node.
            let thread_count = self.threads.len();
            for t in 1..thread_count {
                let last = self.threads[t].last();
                let has_touch_out = self.nodes[last.index()].is_future_parent();
                if !has_touch_out {
                    self.connect(last, final_node, EdgeKind::Touch);
                }
            }
            self.sync_only[final_node.index()] = true;
        }

        if require_sync {
            for t in self.threads.iter().skip(1) {
                let last = t.last();
                if !self.nodes[last.index()].is_future_parent() {
                    return Err(DagError::UnsynchronizedThread(t.id()));
                }
            }
        }

        if self.nodes[final_node.index()].out_degree() != 0 {
            return Err(DagError::RootOrFinalShape(format!(
                "final node {final_node} has out-degree {}",
                self.nodes[final_node.index()].out_degree()
            )));
        }

        let root = self.threads[0].first();
        let block_space = self.block_space;
        let dag = Dag {
            nodes: self.nodes,
            threads: self.threads,
            root,
            final_node,
            super_final,
            sync_only: self.sync_only,
            block_space,
            in_deg: self.in_deg,
            records: self.records,
        };
        crate::validate::validate(&dag)?;
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builder_has_root_only() {
        let b = DagBuilder::new();
        assert_eq!(b.num_nodes(), 1);
        assert_eq!(b.num_threads(), 1);
        assert_eq!(b.root(), NodeId(0));
        assert_eq!(b.last_of(ThreadId::MAIN), NodeId(0));
    }

    #[test]
    fn simple_fork_join_builds() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.chain(f.future_thread, 3);
        b.task(main);
        b.touch_thread(main, f.future_thread);
        let dag = b.finish().unwrap();
        assert_eq!(dag.num_threads(), 2);
        assert_eq!(dag.num_touches(), 1);
        assert_eq!(dag.thread(f.future_thread).len(), 4);
    }

    #[test]
    fn unsynchronized_thread_is_rejected() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        let err = b.finish().unwrap_err();
        assert_eq!(err, DagError::UnsynchronizedThread(f.future_thread));
    }

    #[test]
    fn super_final_synchronizes_side_effect_threads() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        let dag = b.finish_with_super_final().unwrap();
        assert!(dag.has_super_final_node());
        // The side-effect thread's last node now points at the final node.
        let last = dag.thread(f.future_thread).last();
        assert!(dag
            .node(last)
            .touch_successors()
            .any(|x| x == dag.final_node()));
        // The super final node is not a counted touch.
        assert_eq!(dag.num_touches(), 0);
        assert!(dag.is_sync_only(dag.final_node()));
        assert_eq!(dag.in_degrees()[dag.final_node().index()], 2);
    }

    #[test]
    fn touch_right_after_fork_is_rejected() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f1 = b.fork(main);
        b.task(f1.future_thread);
        // The next node of the main thread would be both the fork's right
        // child and a touch, which the convention forbids.
        let err = b.try_touch_thread(main, f1.future_thread).unwrap_err();
        assert!(matches!(err, DagError::ForkChildIsTouch { .. }));
    }

    #[test]
    fn touch_within_same_thread_is_rejected() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let n = b.task(main);
        b.task(main);
        let err = b.try_touch(main, n).unwrap_err();
        assert!(matches!(err, DagError::DegreeViolation { .. }));
    }

    #[test]
    fn touch_source_with_two_out_edges_is_rejected() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        let src = f.future_first;
        b.task(f.future_thread); // src now has a continuation successor
        b.task(main);
        let t1 = b.fork(main); // another thread to host the second touch
        b.task(t1.future_thread);
        // Give src a touch successor, filling its out-degree.
        b.task(t1.future_thread);
        let tnode = b.try_touch(t1.future_thread, src);
        assert!(tnode.is_ok());
        // A second touch from the same source must fail: out-degree is 2.
        b.task(main);
        let err = b.try_touch(main, src).unwrap_err();
        assert_eq!(err, DagError::TouchSourceUnavailable(src));
    }

    #[test]
    fn chain_appends_count_nodes() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let before = b.num_nodes();
        let last = b.chain(main, 5);
        assert_eq!(b.num_nodes(), before + 5);
        assert_eq!(b.last_of(main), last);
        // chain of zero returns current last
        assert_eq!(b.chain(main, 0), last);
    }

    #[test]
    fn chain_blocks_sets_blocks() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let blocks = [Block(1), Block(2), Block(3)];
        let ids = b.chain_blocks(main, &blocks);
        assert_eq!(ids.len(), 3);
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        b.touch_thread(main, f.future_thread);
        let dag = b.finish().unwrap();
        for (id, blk) in ids.iter().zip(blocks.iter()) {
            assert_eq!(dag.block_of(*id), Some(*blk));
        }
    }

    #[test]
    fn unknown_thread_errors() {
        let mut b = DagBuilder::new();
        let bogus = ThreadId(42);
        assert_eq!(
            b.try_task(bogus).unwrap_err(),
            DagError::UnknownThread(bogus)
        );
        assert_eq!(
            b.try_touch_thread(ThreadId::MAIN, bogus).unwrap_err(),
            DagError::UnknownThread(bogus)
        );
    }

    #[test]
    fn unknown_node_errors() {
        let mut b = DagBuilder::new();
        b.task(ThreadId::MAIN);
        let err = b.try_touch(ThreadId::MAIN, NodeId(99)).unwrap_err();
        assert_eq!(err, DagError::UnknownNode(NodeId(99)));
    }

    #[test]
    fn join_nodes_are_sync_only() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        b.join_thread(main, f.future_thread);
        let dag = b.finish().unwrap();
        assert_eq!(dag.num_touches(), 0);
        assert_eq!(dag.num_touch_nodes(), 1);
    }

    fn build_fork_join(b: &mut DagBuilder, chain: usize) {
        let main = b.main_thread();
        let f = b.fork(main);
        b.chain(f.future_thread, chain);
        b.task(main);
        b.touch_thread(main, f.future_thread);
    }

    #[test]
    fn finish_take_then_recycle_round_trips() {
        let mut b = DagBuilder::new();
        build_fork_join(&mut b, 3);
        let dag1 = b.finish_take().unwrap();
        assert_eq!(dag1.num_threads(), 2);

        // Spent builder revives through recycle and rebuilds an identical
        // DAG from the pooled storage.
        b.recycle(dag1);
        assert_eq!(b.num_nodes(), 1, "recycle resets to root-only");
        assert_eq!(b.num_threads(), 1);
        build_fork_join(&mut b, 3);
        let dag2 = b.finish_take().unwrap();
        assert_eq!(dag2.num_threads(), 2);
        assert_eq!(dag2.num_touches(), 1);
        assert!(dag2.check_edge_invariants());
        // The recycled in-degree table restarts from zero.
        let degs: Vec<u32> = dag2
            .node_ids()
            .map(|id| dag2.node(id).in_degree() as u32)
            .collect();
        assert_eq!(dag2.in_degrees(), degs);
        // So do the successor records.
        let mut fresh = DagBuilder::new();
        build_fork_join(&mut fresh, 3);
        let fresh = fresh.finish().unwrap();
        assert!(dag2
            .node_ids()
            .all(|id| dag2.record(id) == fresh.record(id)));
    }

    #[test]
    fn recycle_reuses_capacity_across_shapes() {
        let mut b = DagBuilder::new();
        build_fork_join(&mut b, 8);
        let dag = b.finish_take().unwrap();
        let node_cap_hint = dag.num_nodes();
        b.recycle(dag);
        // A smaller build after recycling a larger one must still validate,
        // and blocks set in round one must not leak into round two.
        let main = b.main_thread();
        let n = b.task(main);
        b.set_block(n, Block(7));
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        b.touch_thread(main, f.future_thread);
        let dag2 = b.finish_take().unwrap();
        assert!(dag2.num_nodes() <= node_cap_hint);
        assert_eq!(dag2.block_space(), 8);
        b.recycle(dag2);
        let main = b.main_thread();
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        b.touch_thread(main, f.future_thread);
        let dag3 = b.finish_take().unwrap();
        assert_eq!(dag3.block_space(), 0, "block_space resets per build");
    }

    #[test]
    fn reset_revives_spent_builder() {
        let mut b = DagBuilder::new();
        build_fork_join(&mut b, 1);
        let _dag = b.finish_take().unwrap();
        b.reset();
        build_fork_join(&mut b, 2);
        assert!(b.finish_take().is_ok());
    }

    #[test]
    fn finish_take_with_super_final_matches_by_value_variant() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.task(f.future_thread);
        b.task(main);
        let dag = b.finish_take_with_super_final().unwrap();
        assert!(dag.has_super_final_node());
        b.recycle(dag);
        assert_eq!(b.num_nodes(), 1);
    }
}
