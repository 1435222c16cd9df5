//! Differential wall for the one-pass stack-distance profiler: its derived
//! per-capacity hit/miss counts must be **exactly equal** to running an
//! LRU [`CacheSim`] once per capacity over the same trace — on the
//! Theorem-12/16 workload traces the experiments actually sweep, on random
//! traces (proptest), with interleaved `flush()`es, and with the
//! `u32::MAX - 1` sentinel block id that forces a dense→hash index
//! migration (the failure mode PR 4 fixed in the caches proper).
//!
//! This wall is what licenses E15/E16/E17 to replace their per-capacity
//! re-simulation loops with one profiler pass: any discrepancy at any of
//! the probed capacities is a hard failure, not a tolerance.

// The proptest! block below nests deeply enough to hit the default limit.
#![recursion_limit = "512"]

use proptest::prelude::*;
use wsf_cache::{BlockId, CacheSim, StackDistanceSim};
use wsf_core::{ForkPolicy, SequentialExecutor};
use wsf_dag::Dag;
use wsf_workloads::{apps, backpressure, sort, stencil};

/// The capacities the per-capacity reference simulators run at: both sides
/// of the indexed-representation crossover, the paper's C = 16 (±1), and
/// the legacy sweep grid.
const CAPACITIES: [usize; 9] = [1, 2, 15, 16, 17, 64, 256, 4096, 32768];

/// One step of a differential trace.
#[derive(Copy, Clone, Debug)]
enum TraceOp {
    /// Access a block (`None` = silent instruction).
    Access(Option<BlockId>),
    /// Forget residency, keep statistics (`CacheSim::flush`).
    Flush,
}

/// Runs `ops` through one stack-distance profiler and one `CacheSim` per
/// probed capacity, then asserts the profiler reproduces every reference
/// simulator's statistics exactly. `block_space` seeds the dense-index
/// hint on both sides; the profiler is additionally checked in its
/// hash-index flavor so both index paths are pinned.
fn assert_differential(ops: &[TraceOp], block_space: usize) {
    let mut sd_hint = StackDistanceSim::with_block_hint(block_space);
    let mut sd_hash = StackDistanceSim::new();
    let mut sims: Vec<CacheSim> = CAPACITIES
        .iter()
        .map(|&c| CacheSim::with_block_hint(c, block_space))
        .collect();
    for op in ops {
        match *op {
            TraceOp::Access(block) => {
                sd_hint.access_opt(block);
                sd_hash.access_opt(block);
                for sim in &mut sims {
                    sim.access_opt(block);
                }
            }
            TraceOp::Flush => {
                sd_hint.flush();
                sd_hash.flush();
                for sim in &mut sims {
                    sim.flush();
                }
            }
        }
    }
    let curve_hint = sd_hint.curve();
    let curve_hash = sd_hash.curve();
    assert_eq!(curve_hint, curve_hash, "index flavor changed the curve");
    for sim in &sims {
        let c = sim.capacity();
        assert_eq!(
            curve_hint.stats_at(c),
            sim.stats(),
            "stack-distance profile diverged from CacheSim at C = {c}"
        );
    }
}

/// The sequential block trace of `dag` (the trace E15/E16/E17 profile),
/// with a flush inserted at each third to exercise residency clears.
fn workload_ops(dag: &Dag, flushes: bool) -> (Vec<TraceOp>, usize) {
    let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(dag);
    let third = (seq.order().len() / 3).max(1);
    let mut ops = Vec::with_capacity(seq.order().len() + 2);
    for (i, &node) in seq.order().iter().enumerate() {
        if flushes && i > 0 && i % third == 0 {
            ops.push(TraceOp::Flush);
        }
        ops.push(TraceOp::Access(dag.block_of(node).map(|b| b.0)));
    }
    (ops, dag.block_space())
}

fn suite_workloads() -> Vec<(&'static str, Dag)> {
    vec![
        ("mergesort", sort::mergesort(64, 8)),
        ("mergesort-streaming", sort::mergesort_streaming(64, 8, 16)),
        ("stencil", stencil::stencil(3, 2, 3)),
        (
            "pipeline-window4",
            backpressure::batched_pipeline(2, 4, 4, 3),
        ),
        ("exchange", stencil::stencil_exchange(3, 2, 2)),
        ("exchange-1step", stencil::stencil_exchange(4, 2, 1)),
        // map_reduce parks its accumulator at the sentinel id
        // `u32::MAX - 1`, so its trace migrates the dense index mid-pass.
        ("map-reduce-sentinel", apps::map_reduce(4, 3)),
    ]
}

#[test]
fn suite_workload_traces_match_cache_sim_at_every_capacity() {
    for (name, dag) in suite_workloads() {
        for flushes in [false, true] {
            let (ops, space) = workload_ops(&dag, flushes);
            eprintln!("workload {name}: {} ops, flushes={flushes}", ops.len());
            assert_differential(&ops, space);
        }
    }
}

/// Full-scale E15 mergesort trace (65 536 keys): slow, run with
/// `cargo test -- --ignored` when touching the profiler internals.
#[test]
#[ignore = "full-scale trace; minutes-long under the per-capacity reference sims"]
fn full_scale_mergesort_trace_matches_cache_sim() {
    let dag = sort::mergesort(65_536, 64);
    let (ops, space) = workload_ops(&dag, true);
    assert_differential(&ops, space);
}

/// Decodes a raw `(tag, block)` pair into a [`TraceOp`], weighted ~8:1:1:1
/// between plain accesses, silent instructions, the sentinel id, and
/// flushes.
fn decode_op((tag, block): (u8, u32)) -> TraceOp {
    match tag {
        0..=7 => TraceOp::Access(Some(block)),
        8 => TraceOp::Access(None),
        9 => TraceOp::Access(Some(u32::MAX - 1)),
        _ => TraceOp::Flush,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_traces_match_cache_sim_at_every_capacity(
        (raw, space) in (proptest::collection::vec((0u8..11, 0u32..300), 1..400), 1usize..400)
    ) {
        let ops: Vec<TraceOp> = raw.into_iter().map(decode_op).collect();
        assert_differential(&ops, space);
    }

    // The profiler's distances themselves, against a naive MRU-stack
    // model: distance = 1-based depth of the block in a move-to-front
    // list (the textbook definition Mattson's algorithm accelerates).
    #[test]
    fn distances_match_naive_mru_stack_model(
        trace in proptest::collection::vec(0u32..64, 1..500)
    ) {
        let mut sd = StackDistanceSim::new();
        let mut stack: Vec<u32> = Vec::new();
        for &block in &trace {
            let expected = stack.iter().position(|&b| b == block).map(|depth| {
                stack.remove(depth);
                depth as u32 + 1
            });
            stack.insert(0, block);
            prop_assert_eq!(sd.access(block), expected, "block {}", block);
        }
    }
}
