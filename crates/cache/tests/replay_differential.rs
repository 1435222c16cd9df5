//! Differential wall for the trace-replay layer: [`wsf_cache::replay`]
//! must be **exactly equal**, access for access, to driving one private
//! [`CacheSim`] per lane by hand, and [`wsf_cache::replay_curves`] must be
//! exactly the per-capacity sweep of those replays — on random multi-lane
//! traces (proptest) with silent accesses, flushes, and the
//! `u32::MAX - 1` sentinel block id that forces a dense→hash index
//! migration. The runtime analogue of `stack_distance_differential.rs`:
//! this wall is what licenses the hardware-validation loop (E21) to treat
//! a replayed runtime trace as having *the* simulated miss count, not an
//! approximation of it.

use proptest::prelude::*;
use wsf_cache::{replay, replay_curves, CacheSim, CacheStats, ReplayOp, StackDistanceSim};

/// The capacities the curve is probed at: both sides of the
/// indexed-representation crossover, the paper's C = 16 (±1), and the
/// legacy sweep grid (same grid as `stack_distance_differential.rs`).
const CAPACITIES: [usize; 9] = [1, 2, 15, 16, 17, 64, 256, 4096, 32768];

/// Hand-drives one fresh `CacheSim` per lane — the reference `replay`
/// must reproduce field-for-field.
fn direct_per_lane(
    lanes: &[Vec<ReplayOp>],
    capacity: usize,
    block_space: usize,
) -> Vec<CacheStats> {
    lanes
        .iter()
        .map(|ops| {
            let mut sim = CacheSim::with_block_hint(capacity, block_space);
            for op in ops {
                match *op {
                    ReplayOp::Access(block) => {
                        sim.access_opt(block);
                    }
                    ReplayOp::Flush => sim.flush(),
                }
            }
            sim.stats()
        })
        .collect()
}

fn assert_replay_differential(lanes: &[Vec<ReplayOp>], block_space: usize) {
    // Fixed-capacity replay vs direct simulation.
    for capacity in CAPACITIES {
        let summary = replay(lanes, capacity, block_space);
        let direct = direct_per_lane(lanes, capacity, block_space);
        assert_eq!(
            summary.per_lane, direct,
            "replay diverged from direct simulation (C = {capacity})"
        );
        assert_eq!(
            summary.total,
            direct.iter().copied().sum::<CacheStats>(),
            "total is not the lane sum (C = {capacity})"
        );
    }

    // One-pass curve vs the per-capacity LRU replays, and vs hand-driven
    // per-lane profilers merged the same way.
    let curve = replay_curves(lanes, block_space);
    for capacity in CAPACITIES {
        let fixed = replay(lanes, capacity, block_space);
        assert_eq!(
            curve.stats_at(capacity),
            fixed.total,
            "curve diverged from fixed-capacity replay at C = {capacity}"
        );
    }
    let mut merged = StackDistanceSim::new().curve();
    for ops in lanes {
        let mut sd = StackDistanceSim::with_block_hint(block_space);
        for op in ops {
            match *op {
                ReplayOp::Access(block) => {
                    sd.access_opt(block);
                }
                ReplayOp::Flush => sd.flush(),
            }
        }
        merged.merge(&sd.curve());
    }
    assert_eq!(curve, merged, "replay_curves is not the per-lane merge");
}

/// Decodes a raw `(tag, block)` pair, weighted ~8:1:1:1 between plain
/// accesses, silent instructions, the sentinel id, and flushes (same
/// decoding as the stack-distance differential suite).
fn decode_op((tag, block): (u8, u32)) -> ReplayOp {
    match tag {
        0..=7 => ReplayOp::Access(Some(block)),
        8 => ReplayOp::Access(None),
        9 => ReplayOp::Access(Some(u32::MAX - 1)),
        _ => ReplayOp::Flush,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_multi_lane_traces_replay_exactly(
        (raw_lanes, space) in (
            proptest::collection::vec(
                proptest::collection::vec((0u8..11, 0u32..300), 0..120),
                1..6,
            ),
            1usize..400,
        )
    ) {
        let lanes: Vec<Vec<ReplayOp>> = raw_lanes
            .into_iter()
            .map(|raw| raw.into_iter().map(decode_op).collect())
            .collect();
        assert_replay_differential(&lanes, space);
    }
}

#[test]
fn empty_and_silent_only_lanes_replay_exactly() {
    let lanes = vec![
        vec![],
        vec![ReplayOp::Access(None); 5],
        vec![ReplayOp::Flush, ReplayOp::Access(None), ReplayOp::Flush],
    ];
    assert_replay_differential(&lanes, 4);
    let summary = replay(&lanes, 16, 4);
    assert_eq!(summary.total.misses, 0, "silent lanes cannot miss");
    assert_eq!(summary.total.silent, 6);
}

#[test]
fn sentinel_block_migrates_the_index_mid_replay() {
    // A dense run, then the sentinel, then dense again: the replay-side
    // simulators must survive the dense→hash migration exactly as the
    // direct ones do (the failure mode PR 4 fixed in the caches proper).
    let lane: Vec<ReplayOp> = (0..40u32)
        .map(|b| ReplayOp::Access(Some(b % 10)))
        .chain([ReplayOp::Access(Some(u32::MAX - 1))])
        .chain((0..40u32).map(|b| ReplayOp::Access(Some(b % 13))))
        .collect();
    assert_replay_differential(&[lane], 10);
}
