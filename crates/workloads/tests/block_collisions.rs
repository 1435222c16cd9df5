//! Block-id collision regression suite for the workload builders.
//!
//! The old `pipeline()` computed value-node block ids as
//! `s*items*work + item` and work-node ids as
//! `s*items*work + item*work + w`; for `work > 1` the two formulas overlap,
//! so touched values aliased unrelated work blocks and every pipeline
//! cache-miss table was silently skewed. These tests pin down the contract
//! every builder in the Theorem-12 suite keeps: each *intentional-locality
//! role* (a stage's work chain, a value slot, a merge buffer, a row
//! interior, ...) owns block ids no other role can produce. `BlockAlloc`
//! guarantees that by construction for the builders that draw from it;
//! `mergesort_into`, `stencil_into` and `batched_pipeline_into` number
//! their blocks in closed form, so for them this suite *is* the guarantee:
//! over a parameter grid the ids are unique per role and dense from 0, and
//! their count is the closed form `ShapeSpec::footprint` declares.
//!
//! `pipeline`, `batched_pipeline` and both mergesort variants use every
//! block id for exactly one node, so their check is the strongest one:
//! every block in the DAG appears on exactly one node. The stencil reuses a
//! row's interior blocks across time steps *on the same row* by design, so
//! its check is role-disjointness: interior blocks and boundary (value)
//! blocks never collide, and no two rows share a block.

use std::collections::{HashMap, HashSet};
use wsf_dag::Dag;
use wsf_workloads::backpressure::batched_pipeline;
use wsf_workloads::pipeline::pipeline;
use wsf_workloads::sort::{mergesort, mergesort_streaming};
use wsf_workloads::stencil::{stencil, stencil_exchange};

/// Asserts every block id in `dag` is used by exactly one node.
fn assert_blocks_unique(name: &str, dag: &Dag) {
    let mut seen = HashMap::new();
    for id in dag.node_ids() {
        if let Some(blk) = dag.block_of(id) {
            if let Some(prev) = seen.insert(blk, id) {
                panic!("{name}: block {blk} assigned to both {prev} and {id}");
            }
        }
    }
    assert!(!seen.is_empty(), "{name}: no blocks at all");
}

/// Asserts the ids are dense from 0 and number exactly `expected`: none
/// skipped, none beyond the closed-form count.
fn assert_dense(name: &str, dag: &Dag, expected: usize) {
    assert_eq!(dag.num_blocks(), expected, "{name}: distinct blocks");
    assert_eq!(
        dag.block_space(),
        expected,
        "{name}: one past the largest id"
    );
}

/// The set of blocks on touch-source (value) nodes.
fn value_blocks(dag: &Dag) -> HashSet<wsf_dag::Block> {
    dag.touches()
        .filter_map(|x| dag.future_parent(x))
        .filter_map(|v| dag.block_of(v))
        .collect()
}

#[test]
fn pipeline_blocks_are_collision_free() {
    // The regression: with work > 1 the old formulas collided. Exercise
    // several shapes including the original failing ones.
    for (stages, items, work) in [(3, 4, 2), (2, 8, 3), (4, 6, 3), (1, 5, 4)] {
        let dag = pipeline(stages, items, work);
        assert_blocks_unique(&format!("pipeline({stages},{items},{work})"), &dag);
    }
}

#[test]
fn pipeline_value_blocks_disjoint_from_work_blocks() {
    let dag = pipeline(3, 5, 3);
    let values = value_blocks(&dag);
    assert!(!values.is_empty());
    for id in dag.node_ids() {
        if dag.node(id).is_future_parent() {
            continue;
        }
        if let Some(blk) = dag.block_of(id) {
            assert!(
                !values.contains(&blk),
                "{id}: non-value node aliases value block {blk}"
            );
        }
    }
}

#[test]
fn batched_pipeline_blocks_are_collision_free() {
    for stages in [1usize, 2, 3] {
        for (items, window) in [(1usize, 1usize), (6, 1), (8, 4), (10, 3), (7, 7)] {
            for work in [1usize, 2, 3] {
                let name = format!("batched_pipeline({stages},{items},{window},{work})");
                let dag = batched_pipeline(stages, items, window, work);
                assert_blocks_unique(&name, &dag);
                let expected = stages * items * (work + 1) + items.div_ceil(window) + items;
                assert_dense(&name, &dag, expected);
            }
        }
    }
}

#[test]
fn mergesort_blocks_are_collision_free() {
    for (len, grain) in [
        (1usize, 1usize),
        (2, 1),
        (6, 1),
        (64, 8),
        (100, 7),
        (256, 16),
        (1000, 3),
        (1023, 1),
        (4096, 4),
    ] {
        let name = format!("mergesort({len},{grain})");
        let dag = mergesort(len, grain);
        assert_blocks_unique(&name, &dag);
        let nblocks = len.div_ceil(grain);
        if nblocks.is_power_of_two() {
            // Balanced recursion: the input plus one full-width merge
            // buffer per level, every id used.
            let levels = nblocks.trailing_zeros() as usize;
            assert_dense(&name, &dag, nblocks * (1 + levels));
        } else {
            // Unbalanced recursion: leaves sit at two adjacent depths, so
            // the deepest merge buffer has no task for the blocks whose
            // range is already a leaf one level up (6 unit blocks split
            // 3|3, then 1|2|1|2). Every shallower buffer is full: the ids
            // below the deepest buffer are all used, and unique, so they
            // number exactly its base.
            let deepest = (dag.block_space() - 1) / nblocks * nblocks;
            let below = dag
                .node_ids()
                .filter_map(|id| dag.block_of(id))
                .filter(|blk| (blk.0 as usize) < deepest)
                .count();
            assert_eq!(below, deepest, "{name}: a gap below the deepest buffer");
            assert!(dag.block_space() - dag.num_blocks() < nblocks, "{name}");
        }
    }
    for (len, grain, chunk) in [(64, 4, 8), (100, 8, 5)] {
        assert_blocks_unique(
            &format!("mergesort_streaming({len},{grain},{chunk})"),
            &mergesort_streaming(len, grain, chunk),
        );
    }
}

#[test]
fn stencil_roles_are_disjoint() {
    // Includes the degenerate edges of the numbering: one step (a single
    // boundary block per row) and one row (no boundary region at all).
    for (rows, width, steps) in [(4usize, 3usize, 5usize), (5, 4, 1), (1, 4, 3), (2, 1, 1)] {
        let name = format!("stencil({rows},{width},{steps})");
        let dag = stencil(rows, width, steps);
        let boundaries = value_blocks(&dag);
        assert_eq!(boundaries.len(), (rows - 1) * steps, "{name}");
        // Interior blocks (everything that is not a published boundary)
        // must never alias a boundary block...
        let mut interior_owner: HashMap<wsf_dag::Block, wsf_dag::ThreadId> = HashMap::new();
        for id in dag.node_ids() {
            let Some(blk) = dag.block_of(id) else {
                continue;
            };
            if dag.node(id).is_future_parent() {
                continue;
            }
            assert!(
                !boundaries.contains(&blk),
                "{name}: interior node {id} aliases boundary block {blk}"
            );
            // ... and interior blocks are private to one row thread (reuse
            // across steps within the row is the intended locality).
            let owner = dag.node(id).thread();
            if let Some(prev) = interior_owner.insert(blk, owner) {
                assert_eq!(
                    prev, owner,
                    "{name}: block {blk} shared between rows {prev} and {owner}"
                );
            }
        }
        assert_dense(&name, &dag, rows * width + (rows - 1) * steps);
    }
}

#[test]
fn stencil_exchange_roles_are_disjoint() {
    // Same contract as the one-sided stencil, with twice the boundary
    // regions: each (row, neighbour, step) copy owns its own block, the
    // copies never alias interior blocks, and interior blocks stay private
    // to one row thread across steps.
    let (rows, width, steps) = (5usize, 3usize, 4usize);
    let dag = stencil_exchange(rows, width, steps);
    let boundaries = value_blocks(&dag);
    // Every touched copy has a distinct block — no value is touched (or
    // stored) twice.
    assert_eq!(boundaries.len(), dag.touches().count());
    let mut interior_owner: HashMap<wsf_dag::Block, wsf_dag::ThreadId> = HashMap::new();
    for id in dag.node_ids() {
        let Some(blk) = dag.block_of(id) else {
            continue;
        };
        if dag.node(id).is_future_parent() {
            continue;
        }
        // Final-step copies have no consumer (the super final node
        // synchronizes them); they are still boundary-region blocks, so
        // only nodes with interior blocks are owner-checked.
        if blk.0 as usize >= rows * width {
            continue;
        }
        assert!(
            !boundaries.contains(&blk),
            "{id}: interior node aliases boundary block {blk}"
        );
        let owner = dag.node(id).thread();
        if let Some(prev) = interior_owner.insert(blk, owner) {
            assert_eq!(
                prev, owner,
                "block {blk} shared between rows {prev} and {owner}"
            );
        }
    }
    assert_eq!(dag.num_blocks(), rows * width + 2 * (rows - 1) * steps);
}
