//! Arbitrary builder programs: DAGs of every class drawn from random
//! sequences of `DagBuilder` calls. Shared, through `#[path]`, by the
//! classifier differential (`tests/classify_differential.rs`) and the
//! enabling-rule differential (`crates/core/tests/enabling_rule.rs`).

use proptest::prelude::*;
use wsf_dag::{Dag, DagBuilder, NodeId, ThreadId};

/// One step of an arbitrary builder program: an op code and two selectors,
/// reduced modulo the live thread and node counts.
pub type Op = (u8, u32, u32);

/// Runs `ops` on a fresh builder, skipping the steps the builder refuses
/// and touches of a fork that has no right child yet (a fork must keep
/// room for one: both classifiers require it), then closes the DAG: by a
/// super final node, or by touching every thread from the main thread.
/// Returns `None` when the result does not finish.
pub fn run_program(ops: &[Op], super_final: bool) -> Option<Dag> {
    let mut b = DagBuilder::new();
    // The fork that ends each thread, if one does.
    let mut open_fork: Vec<Option<NodeId>> = vec![None];
    for &(op, x, y) in ops {
        let thread = ThreadId::from_index(x as usize % b.num_threads());
        let appended = match op {
            0 | 1 => b.try_fork(thread).map(|f| {
                open_fork.push(None);
                Some(f.node)
            }),
            2 => b.try_task(thread).map(|_| None),
            3 | 4 => {
                let target = ThreadId::from_index(y as usize % b.num_threads());
                if open_fork[target.index()].is_some() {
                    continue;
                }
                b.try_touch_thread(thread, target).map(|_| None)
            }
            _ => {
                let source = NodeId::from_index(y as usize % b.num_nodes());
                if open_fork.contains(&Some(source)) {
                    continue;
                }
                b.try_touch(thread, source).map(|_| None)
            }
        };
        if let Ok(fork) = appended {
            open_fork[thread.index()] = fork;
        }
    }
    for (t, fork) in open_fork.iter().enumerate() {
        if fork.is_some() {
            b.task(ThreadId::from_index(t));
        }
    }
    let main = b.main_thread();
    if super_final {
        return b.finish_with_super_final().ok();
    }
    for t in 1..b.num_threads() {
        let t = ThreadId::from_index(t);
        if b.try_touch_thread(main, t).is_err() {
            let _ = b.try_task(main);
            let _ = b.try_touch_thread(main, t);
        }
    }
    let _ = b.try_task(main);
    b.finish().ok()
}

/// Programs of `len` steps, each closed by a super final node or not.
pub fn arb_program(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<Op>, bool)> {
    (
        collection::vec((0u8..6, any::<u32>(), any::<u32>()), len),
        any::<bool>(),
    )
}
