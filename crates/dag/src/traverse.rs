//! Traversal utilities: topological order, reachability, span and depth.

use crate::dag::Dag;
use crate::ids::NodeId;

/// Returns whether node-id order is a valid topological order (every edge
/// points from a lower id to a higher id).
///
/// [`crate::DagBuilder`] guarantees this by construction; algorithms that
/// exploit it call this in debug assertions.
pub fn is_topological_by_id(dag: &Dag) -> bool {
    dag.node_ids().all(|id| {
        dag.node(id)
            .out_edges()
            .iter()
            .all(|e| e.node.index() > id.index())
    })
}

/// Computes a topological order with Kahn's algorithm.
///
/// Returns `None` if the graph contains a cycle (impossible for
/// builder-produced DAGs, but checked for robustness).
pub fn topo_order(dag: &Dag) -> Option<Vec<NodeId>> {
    let mut in_deg = dag.in_degrees().to_vec();
    let mut order = Vec::with_capacity(dag.num_nodes());
    let mut stack: Vec<NodeId> = dag
        .node_ids()
        .filter(|id| in_deg[id.index()] == 0)
        .collect();
    while let Some(n) = stack.pop() {
        order.push(n);
        for e in dag.node(n).out_edges() {
            let d = &mut in_deg[e.node.index()];
            *d -= 1;
            if *d == 0 {
                stack.push(e.node);
            }
        }
    }
    if order.len() == dag.num_nodes() {
        Some(order)
    } else {
        None
    }
}

/// Whether `node` is a descendant of `ancestor` (or equal to it).
///
/// Rests on two invariants [`crate::validate()`] checks on every finished
/// DAG: node ids are a topological order, and a thread's nodes are exactly
/// its continuation chain. So a node never descends from a larger id, and
/// within one thread `node` descends from `ancestor` iff
/// `ancestor.index() <= node.index()` — no search. Only a query across
/// threads searches, depth first from `ancestor`, entering no node with an
/// id above `node`'s (a path from `ancestor` to `node` visits only ids in
/// between) and stopping at the first node of `node`'s thread at or before
/// `node`, from which the continuation chain leads to it.
pub fn is_descendant(dag: &Dag, ancestor: NodeId, node: NodeId) -> bool {
    Descendants::new(dag).query(ancestor, node)
}

/// [`is_descendant`] for many queries over one DAG: the visited buffer of
/// the cross-thread search is allocated on the first such query and reused
/// by every later one, cleared by bumping a generation stamp.
pub(crate) struct Descendants<'d> {
    dag: &'d Dag,
    /// `seen[i] == stamp` iff the current search has visited node `i`.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
}

impl<'d> Descendants<'d> {
    pub(crate) fn new(dag: &'d Dag) -> Self {
        Descendants {
            dag,
            seen: Vec::new(),
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Whether `node` is a descendant of `ancestor` (or equal to it).
    pub(crate) fn query(&mut self, ancestor: NodeId, node: NodeId) -> bool {
        let dag = self.dag;
        if node < ancestor {
            return false;
        }
        let thread = dag.node(node).thread();
        if dag.node(ancestor).thread() == thread {
            return true;
        }
        if self.seen.is_empty() {
            self.seen = vec![0; dag.num_nodes()];
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stack.push(ancestor);
        while let Some(n) = self.stack.pop() {
            for e in dag.node(n).out_edges() {
                let m = e.node.index();
                if m > node.index() || self.seen[m] == self.stamp {
                    continue;
                }
                if dag.node(e.node).thread() == thread {
                    return true;
                }
                self.seen[m] = self.stamp;
                self.stack.push(e.node);
            }
        }
        false
    }
}

/// Number of nodes on the longest path ending at each node (the node
/// included). Index by `NodeId::index`.
pub fn depths(dag: &Dag) -> Vec<u64> {
    let mut depth = vec![0u64; dag.num_nodes()];
    debug_assert!(is_topological_by_id(dag));
    for id in dag.node_ids() {
        let here = depth[id.index()] + 1;
        depth[id.index()] = here;
        for e in dag.node(id).out_edges() {
            if depth[e.node.index()] < here {
                depth[e.node.index()] = here;
            }
        }
    }
    depth
}

/// The computation span `T∞`: the number of nodes (unit steps) on a
/// longest directed path in the DAG.
pub fn span(dag: &Dag) -> u64 {
    depths(dag).into_iter().max().unwrap_or(0)
}

/// One longest directed path (a critical path) through the DAG, from the
/// root to the final node, as a list of node ids.
pub fn critical_path(dag: &Dag) -> Vec<NodeId> {
    let depth = depths(dag);
    // Walk backwards from the deepest node, at each step picking the
    // predecessor whose depth accounts for ours.
    let mut cur = dag
        .node_ids()
        .max_by_key(|id| depth[id.index()])
        .expect("non-empty dag");
    let mut path = vec![cur];
    loop {
        let need = depth[cur.index()] - 1;
        if need == 0 {
            break;
        }
        let pred = dag
            .node(cur)
            .in_edges()
            .iter()
            .map(|e| e.node)
            .find(|p| depth[p.index()] == need)
            .expect("some predecessor accounts for the depth");
        path.push(pred);
        cur = pred;
    }
    path.reverse();
    path
}

/// The average parallelism `T₁ / T∞` of the DAG.
pub fn parallelism(dag: &Dag) -> f64 {
    let s = span(dag);
    if s == 0 {
        0.0
    } else {
        dag.work() as f64 / s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::ids::ThreadId;

    /// Main thread of length `m`, one future thread of length `k`, one touch.
    fn one_future(m: usize, k: usize) -> Dag {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        b.chain(f.future_thread, k - 1);
        b.chain(main, m);
        b.touch_thread(main, f.future_thread);
        b.task(main);
        b.finish().unwrap()
    }

    #[test]
    fn id_order_is_topological() {
        let d = one_future(3, 4);
        assert!(is_topological_by_id(&d));
        let order = topo_order(&d).expect("acyclic");
        assert_eq!(order.len(), d.num_nodes());
        // Kahn order must also respect edges.
        let pos: Vec<usize> = {
            let mut pos = vec![0; d.num_nodes()];
            for (i, n) in order.iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        for id in d.node_ids() {
            for e in d.node(id).out_edges() {
                assert!(pos[id.index()] < pos[e.node.index()]);
            }
        }
    }

    #[test]
    fn span_of_linear_chain() {
        let mut b = DagBuilder::new();
        b.chain(ThreadId::MAIN, 9);
        let d = b.finish().unwrap();
        assert_eq!(span(&d), 10);
        assert_eq!(critical_path(&d).len(), 10);
        assert!((parallelism(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_takes_longer_branch() {
        // future thread of length 6, main continuation of length 2:
        // critical path goes through the future thread.
        let d = one_future(2, 6);
        // root, fork, 6 future nodes, touch, final = 10
        assert_eq!(span(&d), 10);
        let path = critical_path(&d);
        assert_eq!(path.len(), 10);
        assert_eq!(path[0], d.root());
        assert_eq!(*path.last().unwrap(), d.final_node());
    }

    #[test]
    fn reachability_and_descendants() {
        let d = one_future(3, 4);
        let fork = d.forks().next().unwrap();
        let right = d.right_child(fork).unwrap();
        let left = d.left_child(fork).unwrap();
        let touch = d.touches().next().unwrap();

        assert!(is_descendant(&d, fork, touch));
        assert!(is_descendant(&d, right, touch));
        assert!(
            is_descendant(&d, left, touch),
            "future thread reaches touch"
        );
        assert!(is_descendant(&d, fork, fork), "node is its own descendant");
        assert!(!is_descendant(&d, touch, fork));
        assert!(!is_descendant(&d, right, left));
        assert!(d.node_ids().all(|n| is_descendant(&d, d.root(), n)));
    }

    #[test]
    fn cross_thread_queries_search_and_reuse_the_visited_buffer() {
        // Thread c touches a, which main forked first; main then joins c.
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let a = b.fork(main);
        b.chain(a.future_thread, 2);
        let c = b.fork(main);
        let c_first = c.future_first;
        let c_touch = b.touch_thread(c.future_thread, a.future_thread);
        b.task(main);
        let join = b.touch_thread(main, c.future_thread);
        let d = b.finish().unwrap();

        let right = d.right_child(c.node).unwrap();

        let mut reach = Descendants::new(&d);
        // Many queries through one searcher, so the stamp must isolate them.
        for _ in 0..3 {
            assert!(reach.query(a.future_first, c_touch), "a's value reaches c");
            assert!(reach.query(a.future_first, join), "via c's touch");
            assert!(reach.query(c.node, c_touch));
            assert!(!reach.query(a.future_first, c.node), "searched, not found");
            assert!(!reach.query(c_first, right), "searched, not found");
            assert!(!reach.query(c_first, a.future_first), "ids run forward");
        }
        assert!(is_descendant(&d, a.node, join));
    }

    #[test]
    fn depths_increase_along_path() {
        let d = one_future(3, 4);
        let dep = depths(&d);
        for id in d.node_ids() {
            for e in d.node(id).out_edges() {
                assert!(dep[e.node.index()] > dep[id.index()]);
            }
        }
        assert_eq!(dep[d.root().index()], 1);
    }
}
