//! Graphviz DOT export for computation DAGs.
//!
//! Useful for eyeballing generated workloads against the figures in the
//! paper. Continuation edges are drawn solid, future edges dashed and touch
//! edges dotted; nodes are labelled with their thread and memory block.

use crate::dag::Dag;
use crate::edge::EdgeKind;
use std::fmt::Write as _;

/// Renders the DAG in Graphviz DOT syntax.
pub fn to_dot(dag: &Dag) -> String {
    let mut out = String::new();
    out.push_str("digraph computation {\n");
    out.push_str("  rankdir=TB;\n  node [shape=circle, fontsize=10];\n");

    for id in dag.node_ids() {
        let n = dag.node(id);
        let mut label = format!("{id}\\n{}", n.thread());
        if let Some(b) = dag.block_of(id) {
            let _ = write!(label, "\\n{b}");
        }
        let shape = if dag.is_touch(id) {
            "doublecircle"
        } else if dag.is_fork(id) {
            "diamond"
        } else {
            "circle"
        };
        let _ = writeln!(out, "  \"{id}\" [label=\"{label}\", shape={shape}];");
    }

    for id in dag.node_ids() {
        for e in dag.node(id).out_edges() {
            let style = match e.kind {
                EdgeKind::Continuation => "solid",
                EdgeKind::Future => "dashed",
                EdgeKind::Touch => "dotted",
            };
            let _ = writeln!(
                out,
                "  \"{id}\" -> \"{}\" [style={style}, label=\"{}\"];",
                e.node,
                e.kind.label()
            );
        }
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::ids::Block;

    #[test]
    fn dot_output_mentions_all_nodes_and_edge_styles() {
        let mut b = DagBuilder::new();
        let main = b.main_thread();
        let f = b.fork(main);
        let n = b.task(f.future_thread);
        b.set_block(n, Block(3));
        b.task(main);
        b.touch_thread(main, f.future_thread);
        let dag = b.finish().unwrap();

        let dot = to_dot(&dag);
        assert!(dot.starts_with("digraph computation {"));
        assert!(dot.trim_end().ends_with('}'));
        for id in dag.node_ids() {
            assert!(dot.contains(&format!("\"{id}\"")));
        }
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("m3"));
        assert!(dot.contains("diamond"));
        assert!(dot.contains("doublecircle"));
    }
}
