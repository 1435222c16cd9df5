//! 2D stencil grids with boundary-exchange futures (Theorem 12/16/18
//! workloads).
//!
//! Two families over the same `rows × width × steps` grid, each row a
//! future thread in a fork chain (row `r` forks row `r+1`):
//!
//! * [`stencil`] — the **one-sided wavefront** sweep: at every step a row
//!
//!   1. updates its `width` interior blocks (the same physical blocks every
//!      step — the temporal locality a stencil exists to exploit),
//!   2. touches the boundary future its child row (the row below) published
//!      for that step, and
//!   3. publishes its own boundary for the step as a future value its
//!      parent row touches.
//!
//!   Every row thread is touched once per step by its *parent* row, so the
//!   computation is structured local-touch (Definition 3) — with
//!   `steps = 1` it collapses to single-touch. Feeds E13.
//!
//! * [`stencil_exchange`] — the **symmetric boundary exchange** (Jacobi):
//!   every step a row touches the boundary copies *both* neighbours
//!   published for the previous step, updates its interior, and publishes
//!   one fresh boundary copy *per neighbour* (an up copy and a down copy,
//!   so no value is ever touched twice — the local-touch model forbids
//!   that). The last step's copies have no consumer, so the computation
//!   can only be closed with [`DagBuilder::finish_with_super_final`]
//!   (Section 6.2): at `steps = 1` there are no touches at all and the DAG
//!   is exactly the Definition 13 class (structured single-touch with a
//!   super final node, Theorem 16); at `steps > 1` the downward copies are
//!   touched by *child* rows, which leaves the plain local-touch class
//!   (Definition 3) — the super-final family the Theorem 16/18 bounds are
//!   about, measured in E16. On the real pool the same DAG is executed
//!   by [`crate::dag_exec`] and validated in E21.
//!
//! Rows never alias each other's interior or boundary blocks:
//! [`stencil_into`] numbers them in closed form (the count is what
//! [`crate::submission::ShapeSpec::footprint`] declares before anything is
//! built), [`stencil_exchange`] draws per-row regions from one
//! [`BlockAlloc`]; both are collision-checked in
//! `crates/workloads/tests/block_collisions.rs`.

use crate::block_alloc::{BlockAlloc, BlockRegion};
use crate::submission::ShapeScratch;
use wsf_dag::{Block, Dag, DagBuilder, NodeId, ThreadId};

/// Builds the wavefront stencil DAG: `rows` row threads (row 0 is the main
/// thread), `width` interior blocks per row, `steps` time steps.
pub fn stencil(rows: usize, width: usize, steps: usize) -> Dag {
    let rows = rows.max(1);
    let width = width.max(1);
    let steps = steps.max(1);
    let mut b = DagBuilder::with_capacity(rows * steps * (width + 2) + 4, rows);
    stencil_into(&mut b, &mut ShapeScratch::new(), rows, width, steps);
    b.finish().expect("stencil builds a valid DAG")
}

/// Appends the wavefront stencil (all parameters `>= 1`) to `b` (a builder
/// holding only the root node) — the one description of the family, shared
/// by [`stencil`] and [`crate::submission::ShapeSpec::build_into`].
/// Allocates nothing once `b` and `scratch` have grown to the shape.
///
/// Block numbering: row `r`'s interior occupies `r * width .. (r + 1) *
/// width`, the same blocks every step; row `r`'s (`r >= 1`) step-`s`
/// boundary value is block `rows * width + (r - 1) * steps + s`.
pub fn stencil_into(
    b: &mut DagBuilder,
    scratch: &mut ShapeScratch,
    rows: usize,
    width: usize,
    steps: usize,
) {
    debug_assert!(rows >= 1 && width >= 1 && steps >= 1);
    // The chain of row threads: main is row 0, row r forks row r+1.
    let main = ThreadId::MAIN;
    scratch.threads.clear();
    scratch.threads.push(main);
    for r in 1..rows {
        let f = b.fork(scratch.threads[r - 1]);
        scratch.threads.push(f.future_thread);
    }
    // Deepest row first so each parent can touch its child's published
    // boundaries; only the child row's values are live at a time.
    scratch.prev.clear();
    for r in (1..rows).rev() {
        let thread = scratch.threads[r];
        scratch.cur.clear();
        for s in 0..steps {
            for w in 0..width {
                let n = b.task(thread);
                b.set_block(n, Block((r * width + w) as u32));
            }
            if r + 1 < rows {
                b.touch(thread, scratch.prev[s]);
            }
            let value = b.task(thread);
            b.set_block(value, Block((rows * width + (r - 1) * steps + s) as u32));
            scratch.cur.push(value);
        }
        std::mem::swap(&mut scratch.prev, &mut scratch.cur);
    }
    // Row 0 (the main thread) consumes row 1's boundaries step by step.
    for s in 0..steps {
        for w in 0..width {
            let n = b.task(main);
            b.set_block(n, Block(w as u32));
        }
        if rows > 1 {
            b.touch(main, scratch.prev[s]);
        }
    }
    b.task(main);
}

/// Builds the symmetric-exchange stencil DAG (Theorem 16/18 workload):
/// `rows` row threads (row 0 is the main thread), `width` interior blocks
/// per row, `steps` Jacobi time steps.
///
/// Per step every row touches the boundary copies its neighbours published
/// for the *previous* step (none at step 0 — the initial boundaries are
/// local data), updates its `width` interior blocks, and publishes one
/// fresh boundary-copy value per neighbour (blocks drawn from per-row
/// `up-boundary` / `down-boundary` [`BlockAlloc`] regions, one block per
/// step, so no value is touched twice). The final step's copies have no
/// consumer, so the DAG is closed with
/// [`DagBuilder::finish_with_super_final`].
///
/// Classification (asserted in this module's tests):
///
/// * `steps = 1` — no touches at all; every row thread is synchronized
///   only by the super final node: exactly Definition 13 (structured
///   single-touch with a super final node), the Theorem 16 class.
/// * `steps > 1` — each interior row is touched once per step by its
///   parent (the up copy) *and* once by its child (the down copy), so the
///   computation is structured with a super final node but **not** plain
///   local-touch: the symmetric exchange is precisely what the one-sided
///   [`stencil`] cannot express, and the regime the Theorem 16/18
///   super-final bounds are measured on in E16.
pub fn stencil_exchange(rows: usize, width: usize, steps: usize) -> Dag {
    let rows = rows.max(1);
    let width = width.max(1);
    let steps = steps.max(1);
    let mut alloc = BlockAlloc::new();
    let interior: Vec<_> = (0..rows)
        .map(|r| alloc.region(format!("row{r}/interior"), width))
        .collect();
    // Per-neighbour boundary copies: row r's up copies are consumed by row
    // r-1, its down copies by row r+1 — one block per step per direction.
    let up: Vec<Option<BlockRegion>> = (0..rows)
        .map(|r| (r > 0).then(|| alloc.region(format!("row{r}/up-boundary"), steps)))
        .collect();
    let down: Vec<Option<BlockRegion>> = (0..rows)
        .map(|r| (r + 1 < rows).then(|| alloc.region(format!("row{r}/down-boundary"), steps)))
        .collect();

    let mut b = DagBuilder::with_capacity(rows * steps * (width + 4) + 4, rows);

    // The chain of row threads: main is row 0, row r forks row r+1.
    let mut threads = vec![ThreadId::MAIN];
    for _ in 1..rows {
        let parent = *threads.last().unwrap();
        let f = b.fork(parent);
        threads.push(f.future_thread);
    }

    // Step-major construction: every step-s touch consumes a copy
    // published at step s-1, which already exists, so construction order
    // stays topological. `prev_*[r]` hold the copies row r published last
    // step.
    let mut prev_up: Vec<Option<NodeId>> = vec![None; rows];
    let mut prev_down: Vec<Option<NodeId>> = vec![None; rows];
    for s in 0..steps {
        let mut cur_up: Vec<Option<NodeId>> = vec![None; rows];
        let mut cur_down: Vec<Option<NodeId>> = vec![None; rows];
        for r in 0..rows {
            let t = threads[r];
            // Touch both neighbours' previous-step boundary copies. (At
            // step 0 there are none; the first node of each future thread
            // is an interior task, which also keeps a fork's right child
            // from being a touch.)
            if r > 0 {
                if let Some(src) = prev_down[r - 1] {
                    b.touch(t, src);
                }
            }
            if r + 1 < rows {
                if let Some(src) = prev_up[r + 1] {
                    b.touch(t, src);
                }
            }
            // Update the interior: the same physical blocks every step.
            for w in 0..width {
                let n = b.task(t);
                b.set_block(n, interior[r].block(w));
            }
            // Publish this step's per-neighbour copies.
            if let Some(region) = &up[r] {
                let n = b.task(t);
                b.set_block(n, region.block(s));
                cur_up[r] = Some(n);
            }
            if let Some(region) = &down[r] {
                let n = b.task(t);
                b.set_block(n, region.block(s));
                cur_down[r] = Some(n);
            }
        }
        prev_up = cur_up;
        prev_down = cur_down;
    }
    b.finish_with_super_final()
        .expect("exchange stencil builds a valid super-final DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, ParallelSimulator, SimConfig};
    use wsf_dag::classify;

    #[test]
    fn stencil_is_local_touch_not_single_touch() {
        let dag = stencil(4, 3, 5);
        let class = classify(&dag);
        assert!(class.structured, "{:?}", class.violations);
        assert!(class.local_touch, "{:?}", class.violations);
        assert!(!class.single_touch, "rows are touched once per step");
    }

    #[test]
    fn single_step_stencil_is_single_touch() {
        let dag = stencil(5, 4, 1);
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "{:?}", class.violations);
        assert!(class.is_structured_local_touch());
    }

    #[test]
    fn one_row_grid_is_a_serial_chain() {
        let dag = stencil(1, 4, 3);
        assert_eq!(dag.num_threads(), 1);
        assert!(classify(&dag).fork_join);
    }

    #[test]
    fn stencil_executes_under_both_policies() {
        let dag = stencil(5, 3, 4);
        for policy in ForkPolicy::ALL {
            for p in [1usize, 4] {
                let report = ParallelSimulator::new(SimConfig::new(p, 16, policy)).run(&dag);
                assert!(report.completed, "{policy} P={p}");
                assert_eq!(report.executed(), dag.num_nodes() as u64);
            }
        }
    }

    #[test]
    fn exchange_stencil_is_super_final_not_plain_local_touch() {
        // steps > 1: the downward copies are touched by child rows, which
        // no plain local-touch computation can express — the whole point
        // of the super-final family.
        let dag = stencil_exchange(4, 3, 5);
        let class = classify(&dag);
        assert!(class.super_final);
        assert!(class.structured, "{:?}", class.violations);
        assert!(
            !class.local_touch,
            "symmetric exchange must leave the plain local-touch class"
        );
        assert!(
            !class.single_touch,
            "rows are touched once per step per neighbour"
        );
        assert!(!class.fork_join);
    }

    #[test]
    fn single_step_exchange_is_definition_13() {
        // steps = 1: no exchanges happen (step s consumes step s-1's
        // copies), so every row thread is synchronized only by the super
        // final node — exactly the Definition 13 / Theorem 16 class.
        let dag = stencil_exchange(5, 4, 1);
        let class = classify(&dag);
        assert!(class.super_final);
        assert!(class.structured, "{:?}", class.violations);
        assert!(class.single_touch, "{:?}", class.violations);
        assert!(class.local_touch);
    }

    #[test]
    fn exchange_touch_counts_are_one_per_neighbour_per_round() {
        let (rows, width, steps) = (5usize, 2usize, 4usize);
        let dag = stencil_exchange(rows, width, steps);
        // Every published copy is touched at most once (no value is
        // touched twice), and each row thread r in 1..rows-1 is touched
        // (steps-1) times by each of its two neighbours.
        for t in dag.thread_ids().filter(|t| !t.is_main()) {
            let touches: Vec<_> = dag
                .touches_of_thread(t)
                .into_iter()
                .filter(|&x| x != dag.final_node())
                .collect();
            let r = t.index(); // row r runs on thread r by construction
            let neighbours = if r + 1 < rows { 2 } else { 1 };
            assert_eq!(
                touches.len(),
                neighbours * (steps - 1),
                "row {r}: one touch per neighbour per exchange round"
            );
        }
    }

    #[test]
    fn exchange_stencil_executes_under_both_policies() {
        let dag = stencil_exchange(5, 3, 4);
        for policy in ForkPolicy::ALL {
            for p in [1usize, 4] {
                let report = ParallelSimulator::new(SimConfig::new(p, 16, policy)).run(&dag);
                assert!(report.completed, "{policy} P={p}");
                assert_eq!(report.executed(), dag.num_nodes() as u64);
            }
        }
    }

    #[test]
    fn exchange_one_row_grid_is_a_serial_chain() {
        let dag = stencil_exchange(1, 4, 3);
        assert_eq!(dag.num_threads(), 1);
        assert_eq!(dag.num_touches(), 0);
    }

    #[test]
    fn exchange_boundary_blocks_are_per_neighbour_per_step() {
        // Interior footprint stays `width` per row; boundary footprint is
        // one block per (row, neighbour, step): 2(rows-1) regions of
        // `steps` blocks each.
        let (rows, width) = (4usize, 3usize);
        let a = stencil_exchange(rows, width, 2);
        let b = stencil_exchange(rows, width, 8);
        assert_eq!(a.num_blocks(), rows * width + 2 * (rows - 1) * 2);
        assert_eq!(b.num_blocks(), rows * width + 2 * (rows - 1) * 8);
    }

    #[test]
    fn interior_blocks_are_reused_across_steps() {
        // The stencil's whole point: a row's interior footprint is `width`
        // blocks regardless of the step count.
        let a = stencil(3, 4, 2);
        let b = stencil(3, 4, 8);
        assert_eq!(a.num_blocks(), 4 * 3 + 2 * 2);
        assert_eq!(b.num_blocks(), 4 * 3 + 2 * 8);
    }
}
