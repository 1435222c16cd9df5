//! Streaming pipelines with bounded backpressure (Theorem 12 workload).
//!
//! [`crate::pipeline::pipeline`] lets every stage run arbitrarily far ahead
//! of its consumer: all `items` futures of a stage may exist unconsumed at
//! once. [`batched_pipeline`] is the strict generalization with a bounded
//! window: items flow in batches of at most `window`, and the worker thread
//! for a stage's next batch is only forked after the consumer has drained
//! the previous one — so at most O(`window`) values per stage are ever in
//! flight, by construction of the DAG rather than by scheduler luck. This
//! is the DAG shape of Blelloch/Reid-Miller pipelining with a bounded
//! buffer. `window >= items` degenerates to exactly one batch per stage,
//! i.e. the unbatched pipeline shape.
//!
//! Structure per batch `b`: the consumer forks a stage-1 worker `T(1,b)`;
//! `T(s,b)`'s first action is to fork `T(s+1,b)`; each worker then, per
//! item, runs its `work` chain, touches the corresponding value of its
//! child worker, and publishes its own value for its parent. Every worker
//! is touched once per item of its batch, by its parent — structured
//! local-touch (Definition 3); with `window == 1` every worker is touched
//! exactly once and the DAG is single-touch as well.

use crate::submission::ShapeScratch;
use wsf_dag::{Block, Dag, DagBuilder, ThreadId};

/// Builds the bounded-backpressure pipeline DAG: `stages` stage workers per
/// batch, `items` items flowing in batches of at most `window`, `work`
/// work nodes per item per stage.
pub fn batched_pipeline(stages: usize, items: usize, window: usize, work: usize) -> Dag {
    let stages = stages.max(1);
    let items = items.max(1);
    let window = window.max(1).min(items);
    let work = work.max(1);
    let mut b = DagBuilder::with_capacity(
        stages * items * (work + 2) + 3 * items + 4,
        stages * items.div_ceil(window) + 1,
    );
    let scratch = &mut ShapeScratch::new();
    batched_pipeline_into(&mut b, scratch, stages, items, window, work);
    b.finish().expect("batched pipeline builds a valid DAG")
}

/// Appends the bounded-backpressure pipeline (all parameters `>= 1`,
/// `window <= items`) to `b` (a builder holding only the root node) — the
/// one description of the family, shared by [`batched_pipeline`] and
/// [`crate::submission::ShapeSpec::build_into`]. Allocates nothing once
/// `b` and `scratch` have grown to the shape.
///
/// Block numbering: stage `s` item `i`'s work blocks are `s * items * work
/// + i * work ..+ work`, its value block `stages * items * work + s * items
/// + i`; one dispatch block per batch and one consumer output block per
/// item follow. The count is what
/// [`crate::submission::ShapeSpec::footprint`] declares before anything is
/// built; disjointness is collision-checked in
/// `crates/workloads/tests/block_collisions.rs`.
pub fn batched_pipeline_into(
    b: &mut DagBuilder,
    scratch: &mut ShapeScratch,
    stages: usize,
    items: usize,
    window: usize,
    work: usize,
) {
    debug_assert!(stages >= 1 && work >= 1 && (1..=items).contains(&window));
    let main = ThreadId::MAIN;
    let value_base = stages * items * work;
    let dispatch_base = value_base + stages * items;
    let output_base = dispatch_base + items.div_ceil(window);

    let mut batch = 0usize;
    let mut first = 0usize;
    while first < items {
        let batch_len = window.min(items - first);
        // Chain-fork this batch's stage workers (stage s forks stage s+1
        // as its first action). The whole chain is built before the
        // consumer touches anything, and the next batch's workers do not
        // exist until this loop iteration is over — that is the
        // backpressure.
        scratch.threads.clear();
        scratch.threads.push(b.fork(main).future_thread);
        for s in 1..stages {
            let f = b.fork(scratch.threads[s - 1]);
            scratch.threads.push(f.future_thread);
        }
        // Deepest stage first so each worker can touch its child's values;
        // only the child stage's values are live at a time.
        scratch.prev.clear();
        for s in (0..stages).rev() {
            let thread = scratch.threads[s];
            scratch.cur.clear();
            for i in 0..batch_len {
                let item = first + i;
                for w in 0..work {
                    let n = b.task(thread);
                    b.set_block(n, Block((s * items * work + item * work + w) as u32));
                }
                if s + 1 < stages {
                    b.touch(thread, scratch.prev[i]);
                }
                let v = b.task(thread);
                b.set_block(v, Block((value_base + s * items + item) as u32));
                scratch.cur.push(v);
            }
            std::mem::swap(&mut scratch.prev, &mut scratch.cur);
        }
        // The fork's right child models the batch dispatch; it may not be
        // a touch node.
        let n = b.task(main);
        b.set_block(n, Block((dispatch_base + batch) as u32));
        for i in 0..batch_len {
            b.touch(main, scratch.prev[i]);
            let n = b.task(main);
            b.set_block(n, Block((output_base + first + i) as u32));
        }
        first += batch_len;
        batch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, ParallelSimulator, SimConfig};
    use wsf_dag::classify;

    #[test]
    fn batched_pipeline_is_local_touch() {
        let dag = batched_pipeline(3, 8, 4, 2);
        let class = classify(&dag);
        assert!(class.structured, "{:?}", class.violations);
        assert!(class.local_touch, "{:?}", class.violations);
        assert!(!class.single_touch, "workers are touched once per item");
    }

    #[test]
    fn unit_window_is_single_touch() {
        let dag = batched_pipeline(3, 6, 1, 2);
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "{:?}", class.violations);
        assert!(class.is_structured_local_touch());
    }

    #[test]
    fn window_bounds_worker_batch_sizes() {
        // stages * ceil(items/window) worker threads, none touched more
        // than `window` times.
        let (stages, items, window) = (3usize, 10usize, 4usize);
        let dag = batched_pipeline(stages, items, window, 1);
        assert_eq!(
            dag.num_threads(),
            1 + stages * items.div_ceil(window),
            "one worker per (stage, batch)"
        );
        for t in dag.thread_ids().filter(|t| !t.is_main()) {
            let touches = dag.touches_of_thread(t).len();
            assert!(
                (1..=window).contains(&touches),
                "{t} touched {touches} times, window is {window}"
            );
        }
    }

    #[test]
    fn saturated_window_matches_unbatched_shape() {
        // window >= items: one batch, a single worker chain per stage —
        // the `pipeline()` thread structure.
        let dag = batched_pipeline(4, 6, 100, 2);
        assert_eq!(dag.num_threads(), 5);
        let class = classify(&dag);
        assert!(class.is_structured_local_touch());
    }

    #[test]
    fn batched_pipeline_executes_under_both_policies() {
        let dag = batched_pipeline(3, 9, 2, 2);
        for policy in ForkPolicy::ALL {
            for p in [1usize, 4] {
                let report = ParallelSimulator::new(SimConfig::new(p, 16, policy)).run(&dag);
                assert!(report.completed, "{policy} P={p}");
                assert_eq!(report.executed(), dag.num_nodes() as u64);
            }
        }
    }
}
