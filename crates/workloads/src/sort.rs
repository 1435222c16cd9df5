//! Divide-and-conquer mergesort DAGs (Theorem 8 / Theorem 12 workloads).
//!
//! Two variants of the same kernel:
//!
//! * [`mergesort`] — the classic fork-join shape: each call forks the left
//!   half as a future, sorts the right half inline, joins with a single
//!   touch and then merges. Structured, single-touch, properly nested —
//!   the Theorem 8 class.
//! * [`mergesort_streaming`] — the Blelloch/Reid-Miller streaming shape:
//!   each sorting thread *publishes its merged output in chunks*, one
//!   future value per chunk, and the parent touches the chunks in order,
//!   merging incrementally. Every sorting thread is touched once per chunk,
//!   so the computation is structured *local-touch* but not single-touch —
//!   the Theorem 12 class.
//!
//! Memory blocks model the merge buffers with per-level block maps: each
//! recursion depth owns a disjoint block range covering the whole array at
//! `grain` elements per block, so a merge at depth `d` touches the
//! depth-`d` buffer of its range and nothing else. [`mergesort_into`]
//! numbers its ranges in closed form (the count is what
//! [`crate::submission::ShapeSpec::footprint`] declares before anything is
//! built); [`mergesort_streaming`] draws per-thread regions from a
//! [`BlockAlloc`]. Both are collision-checked in
//! `crates/workloads/tests/block_collisions.rs`.

use crate::block_alloc::{BlockAlloc, BlockRegion};
use wsf_dag::{Block, Dag, DagBuilder, NodeId, ThreadId};

/// The grain-aligned split point of `[lo, hi)` (with `lo` itself aligned):
/// the midpoint rounded up to a multiple of `grain`, so every range in the
/// recursion starts on a block boundary and sibling merges never share a
/// block.
fn aligned_mid(lo: usize, hi: usize, grain: usize) -> usize {
    debug_assert!(hi - lo > grain);
    let half = (hi - lo) / 2;
    let mid = lo + half.div_ceil(grain).max(1) * grain;
    debug_assert!(lo < mid && mid < hi);
    mid
}

fn blocks_covering(lo: usize, hi: usize, grain: usize) -> std::ops::Range<usize> {
    (lo / grain)..hi.div_ceil(grain)
}

/// Builds the fork-join mergesort DAG over `len` elements with leaf size
/// `grain`: structured, single-touch and properly nested (the Theorem 8
/// class). One block per `grain` elements per recursion level.
pub fn mergesort(len: usize, grain: usize) -> Dag {
    let len = len.max(1);
    let grain = grain.max(1);
    let nblocks = len.div_ceil(grain);
    let mut b = DagBuilder::with_capacity(6 * nblocks + 4, 2 * nblocks);
    mergesort_into(&mut b, len, grain);
    b.finish().expect("mergesort builds a valid DAG")
}

/// Appends the fork-join mergesort of `len >= 1` elements at leaf size
/// `grain >= 1` to `b` (a builder holding only the root node) — the one
/// description of the family, shared by [`mergesort`] and
/// [`crate::submission::ShapeSpec::build_into`]. Allocates nothing beyond
/// the builder's own growth.
///
/// Block numbering, with `nblocks = ceil(len / grain)`: the leaf whose
/// range starts at `lo` reads input block `lo / grain`; the merge at
/// recursion depth `d` writes blocks `nblocks * (1 + d) + blk` for every
/// `blk` its range covers — each depth owns a full-width merge buffer
/// placed after the input and the shallower buffers, so a merge touches
/// the depth-`d` buffer of its range and nothing else.
pub fn mergesort_into(b: &mut DagBuilder, len: usize, grain: usize) {
    fn rec(
        b: &mut DagBuilder,
        thread: ThreadId,
        lo: usize,
        hi: usize,
        depth: usize,
        nblocks: usize,
        grain: usize,
    ) {
        if hi - lo <= grain {
            // Leaf: sort the run in place — one task reading its input
            // block (`lo` is grain-aligned, so the block is exclusively
            // this leaf's).
            let n = b.task(thread);
            b.set_block(n, Block((lo / grain) as u32));
            return;
        }
        let mid = aligned_mid(lo, hi, grain);
        let f = b.fork(thread);
        rec(b, f.future_thread, lo, mid, depth + 1, nblocks, grain);
        b.task(thread); // the fork's right child (continuation)
        rec(b, thread, mid, hi, depth + 1, nblocks, grain);
        // Join (the single touch of the left future), then merge the two
        // halves into this level's buffer, one task per covered block.
        b.touch_thread(thread, f.future_thread);
        for blk in blocks_covering(lo, hi, grain) {
            let n = b.task(thread);
            b.set_block(n, Block((nblocks * (1 + depth) + blk) as u32));
        }
    }
    debug_assert!(len >= 1 && grain >= 1);
    rec(b, ThreadId::MAIN, 0, len, 0, len.div_ceil(grain), grain);
    b.task(ThreadId::MAIN);
}

/// Builds the streaming (local-touch) mergesort DAG: the left half of every
/// range is sorted by a future thread that publishes its output in chunks
/// of `chunk` elements, each chunk a future value its parent touches in
/// order while merging with the inline-sorted right half.
///
/// Structured and local-touch but *not* single-touch for `chunk <
/// len/2` (each sorting thread is touched once per chunk) — the canonical
/// Theorem 12 recursion. `chunk >= len` degenerates to single-touch.
pub fn mergesort_streaming(len: usize, grain: usize, chunk: usize) -> Dag {
    let len = len.max(2);
    let grain = grain.max(1);
    let chunk = chunk.max(1);
    let mut alloc = BlockAlloc::new();
    let nblocks = len.div_ceil(grain);
    let mut b = DagBuilder::with_capacity(8 * nblocks.max(len / chunk + 1) + 8, len / grain + 2);

    // The root sort runs in a future thread so that even the outermost
    // output stream is published as touchable chunk values.
    let f = b.fork(ThreadId::MAIN);
    let values = stream_rec(&mut b, f.future_thread, 0, len, 0, grain, chunk, &mut alloc);
    let main = ThreadId::MAIN;
    b.task(main); // the fork's right child; cannot be a touch
    let output = alloc.region("main/output", values.len());
    for (i, v) in values.into_iter().enumerate() {
        b.touch(main, v);
        let n = b.task(main);
        b.set_block(n, output.block(i));
    }
    b.finish().expect("streaming mergesort builds a valid DAG")
}

/// Builds the sort of `[lo, hi)` on `thread` (a future thread), returning
/// the chunk-value nodes its parent must touch in order.
#[allow(clippy::too_many_arguments)]
fn stream_rec(
    b: &mut DagBuilder,
    thread: ThreadId,
    lo: usize,
    hi: usize,
    depth: usize,
    grain: usize,
    chunk: usize,
    alloc: &mut BlockAlloc,
) -> Vec<NodeId> {
    let label = |kind: &str| format!("d{depth}/{kind}/{lo}..{hi}");
    let len = hi - lo;
    let chunks = len.div_ceil(chunk);
    let value_region = alloc.region(label("values"), chunks);

    if len <= grain || len < 2 {
        // Leaf thread: sort the run (one task per covered block of its own
        // run buffer), then publish it as chunk values.
        let run = alloc.region(label("run"), len.div_ceil(grain));
        for blk in 0..run.len() {
            let n = b.task(thread);
            b.set_block(n, run.block(blk));
        }
        return publish_chunks(b, thread, &value_region);
    }

    let mid = lo + len / 2;
    // Left half: a child future thread that streams its own chunks.
    let f = b.fork(thread);
    let left_values = stream_rec(b, f.future_thread, lo, mid, depth + 1, grain, chunk, alloc);
    // Right half: sorted inline by this thread (modelled as a scan over its
    // own run buffer; the fork's right child is the first scan task).
    let run = alloc.region(label("run"), (hi - mid).div_ceil(grain));
    for blk in 0..run.len() {
        let n = b.task(thread);
        b.set_block(n, run.block(blk));
    }
    // Streaming merge: touch the left chunks in order, merge each into the
    // merge buffer, and publish this thread's own output chunks as we go.
    let merge = alloc.region(label("merge"), left_values.len());
    for (i, v) in left_values.into_iter().enumerate() {
        b.touch(thread, v);
        let n = b.task(thread);
        b.set_block(n, merge.block(i));
    }
    publish_chunks(b, thread, &value_region)
}

fn publish_chunks(b: &mut DagBuilder, thread: ThreadId, values: &BlockRegion) -> Vec<NodeId> {
    (0..values.len())
        .map(|i| {
            let v = b.task(thread);
            b.set_block(v, values.block(i));
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, ParallelSimulator, SimConfig};
    use wsf_dag::classify;

    #[test]
    fn mergesort_is_fork_join_single_touch() {
        let dag = mergesort(256, 16);
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "{:?}", class.violations);
        assert!(class.local_touch);
        assert!(class.fork_join, "LIFO join order is properly nested");
        assert!(dag.num_threads() > 4);
    }

    #[test]
    fn streaming_mergesort_is_local_touch_not_single_touch() {
        let dag = mergesort_streaming(256, 8, 16);
        let class = classify(&dag);
        assert!(class.structured, "{:?}", class.violations);
        assert!(class.local_touch, "{:?}", class.violations);
        assert!(
            !class.single_touch,
            "streaming threads are touched once per chunk"
        );
    }

    #[test]
    fn whole_array_chunk_degenerates_to_single_touch() {
        let dag = mergesort_streaming(64, 8, 64);
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "{:?}", class.violations);
    }

    #[test]
    fn both_variants_execute_under_both_policies() {
        for dag in [mergesort(128, 8), mergesort_streaming(128, 8, 16)] {
            for policy in ForkPolicy::ALL {
                for p in [1usize, 4] {
                    let report = ParallelSimulator::new(SimConfig::new(p, 16, policy)).run(&dag);
                    assert!(report.completed, "{policy} P={p}");
                    assert_eq!(report.executed(), dag.num_nodes() as u64);
                }
            }
        }
    }

    #[test]
    fn degenerate_sizes_build() {
        for dag in [
            mergesort(1, 1),
            mergesort(3, 4),
            mergesort_streaming(2, 1, 1),
            mergesort_streaming(5, 2, 2),
        ] {
            assert!(dag.num_nodes() >= 2);
        }
    }

    #[test]
    fn parallelism_shortens_the_makespan() {
        let dag = mergesort(512, 8);
        let seq = ParallelSimulator::new(SimConfig::new(1, 32, ForkPolicy::FutureFirst)).run(&dag);
        let par = ParallelSimulator::new(SimConfig::new(8, 32, ForkPolicy::FutureFirst)).run(&dag);
        assert!(par.makespan < seq.makespan);
    }
}
