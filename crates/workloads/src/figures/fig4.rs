//! Figure 4: a nested structured single-touch computation.
//!
//! The main thread forks a future thread and touches it only after the
//! fork's right child; that future thread does the same thing internally,
//! and so on, `depth` levels deep. Every touch becomes ready strictly after
//! its future thread has been spawned — the situation Figure 3 violates.

use wsf_dag::{Block, Dag, DagBuilder, ThreadId};

/// Builds the Figure 4-style nested structured single-touch DAG.
///
/// `depth` is the nesting depth (number of future threads); `work` is the
/// number of payload nodes per thread, each touching its own memory block.
pub fn fig4(depth: usize, work: usize) -> Dag {
    let mut b = DagBuilder::new();
    let mut next_block = 0u32;
    build(&mut b, ThreadId::MAIN, depth, work.max(1), &mut next_block);
    b.task(ThreadId::MAIN);
    b.finish().expect("fig4 builds a valid DAG")
}

fn build(b: &mut DagBuilder, thread: ThreadId, depth: usize, work: usize, next_block: &mut u32) {
    for _ in 0..work {
        let n = b.task(thread);
        b.set_block(n, Block(*next_block));
        *next_block += 1;
    }
    if depth == 0 {
        return;
    }
    let f = b.fork(thread);
    build(b, f.future_thread, depth - 1, work, next_block);
    // The fork's right child, then the touch of the future thread.
    b.task(thread);
    b.touch_thread(thread, f.future_thread);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, SequentialExecutor};
    use wsf_dag::{classify, NodeId};

    #[test]
    fn fig4_is_structured_single_touch() {
        for depth in [0, 1, 3, 6] {
            let dag = fig4(depth, 2);
            let class = classify(&dag);
            assert!(
                class.is_structured_single_touch(),
                "depth={depth}: {:?}",
                class.violations
            );
            assert_eq!(dag.num_threads(), depth + 1);
        }
    }

    #[test]
    fn lemma4_holds_on_fig4() {
        // Under future-first, every touch's future parent precedes its local
        // parent in the sequential order (Lemma 4).
        let dag = fig4(5, 3);
        let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
        let pos = |n: NodeId| seq.order().iter().position(|&x| x == n).unwrap();
        for touch in dag.touches() {
            let fp = dag.future_parent(touch).unwrap();
            let lp = dag.local_parent(touch).unwrap();
            assert!(pos(fp) < pos(lp));
        }
    }
}
