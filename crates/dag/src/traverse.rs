//! Traversal utilities: topological order, reachability, span and depth.

use crate::bitset::BitSet;
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

/// Returns the set of nodes reachable from `start` (including `start`
/// itself) following edges forward.
pub fn reachable_from(dag: &Dag, start: NodeId) -> BitSet {
    let mut seen = BitSet::new(dag.num_nodes());
    let mut stack = vec![start];
    seen.insert(start.index());
    while let Some(n) = stack.pop() {
        for e in dag.node(n).out_edges() {
            if seen.insert(e.node.index()) {
                stack.push(e.node);
            }
        }
    }
    seen
}

/// Whether `node` is a descendant of `ancestor` (or equal to it).
pub fn is_descendant(dag: &Dag, ancestor: NodeId, node: NodeId) -> bool {
    // Node-id order is topological, so a node can only be reachable from an
    // ancestor with a smaller or equal id; this cuts off most negative
    // queries immediately.
    if node.index() < ancestor.index() {
        return false;
    }
    if node == ancestor {
        return true;
    }
    reachable_from(dag, ancestor).contains(node.index())
}

/// Length of the longest weighted path ending at each node (each node's
/// weight included). Index by `NodeId::index`.
pub fn depths(dag: &Dag) -> Vec<u64> {
    let mut depth = vec![0u64; dag.num_nodes()];
    debug_assert!(is_topological_by_id(dag));
    for id in dag.node_ids() {
        let here = depth[id.index()] + u64::from(dag.node(id).weight());
        depth[id.index()] = here;
        for e in dag.node(id).out_edges() {
            if depth[e.node.index()] < here {
                depth[e.node.index()] = here;
            }
        }
    }
    depth
}

/// The computation span `T∞`: the weighted length (number of nodes, for
/// unit weights) of a longest directed path in the DAG.
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
        let need = depth[cur.index()] - u64::from(dag.node(cur).weight());
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
    fn weighted_span() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let n = b.task(main);
        b.set_weight(n, 10);
        let d = b.finish().unwrap();
        assert_eq!(span(&d), 11);
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

        let from_root = reachable_from(&d, d.root());
        assert_eq!(from_root.len(), d.num_nodes());
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
