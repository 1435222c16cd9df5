//! Differential wall for per-lane schedule profiling: one
//! [`StackDistanceSim`] that takes a schedule's lanes one after another,
//! flushed before each, must report at every capacity **exactly** the
//! summed statistics of one private [`CacheSim`] per lane driven by hand,
//! and must equal the merge of one profiler per lane — on random
//! multi-lane block sequences (proptest) with silent accesses and block
//! ids past the declared space that grow the block index mid-lane. The
//! wall holds the method, in `profile_lanes` below; `wsf_core::Schedule::curve`,
//! which the capacity sweeps and the hardware-validation loop (E21) read
//! per-worker private-cache misses off, is one copy of it, held to the
//! same per-lane oracle by its own proptest in `wsf-core`'s `report.rs`.

use proptest::prelude::*;
use wsf_cache::{BlockId, CacheSim, CacheStats, MissRatioCurve, StackDistanceSim};

/// The capacities the curve is probed at: both sides of the
/// indexed-representation crossover, the paper's C = 16 (±1), and the
/// legacy sweep grid (same grid as `stack_distance_differential.rs`).
const CAPACITIES: [usize; 9] = [1, 2, 15, 16, 17, 64, 256, 4096, 32768];

/// A lane of block accesses; `None` is a silent instruction.
type Lane = Vec<Option<BlockId>>;

/// The profiling under test: one profiler, flushed before each lane.
fn profile_lanes(lanes: &[Lane], block_space: usize) -> MissRatioCurve {
    let mut sd = StackDistanceSim::with_block_hint(block_space);
    for lane in lanes {
        sd.flush();
        for &block in lane {
            sd.access_opt(block);
        }
    }
    sd.curve()
}

/// The oracle: one fresh `CacheSim` of `capacity` lines per lane, driven
/// by hand, statistics summed over the lanes.
fn direct_per_lane(lanes: &[Lane], capacity: usize, block_space: usize) -> CacheStats {
    lanes
        .iter()
        .map(|lane| {
            let mut sim = CacheSim::with_block_hint(capacity, block_space);
            for &block in lane {
                sim.access_opt(block);
            }
            sim.stats()
        })
        .sum()
}

fn assert_lane_differential(lanes: &[Lane], block_space: usize) {
    let curve = profile_lanes(lanes, block_space);
    for capacity in CAPACITIES {
        assert_eq!(
            curve.stats_at(capacity),
            direct_per_lane(lanes, capacity, block_space),
            "curve diverged from per-lane private caches at C = {capacity}"
        );
    }
    let mut merged = StackDistanceSim::new().curve();
    for lane in lanes {
        merged.merge(&profile_lanes(std::slice::from_ref(lane), block_space));
    }
    assert_eq!(
        curve, merged,
        "the flushed profiler is not the per-lane merge"
    );
}

/// Decodes a raw `(tag, block)` pair, weighted ~8:1:1 between plain
/// accesses, silent instructions and ids past the declared `space` (the
/// stack-distance differential suite's decoding, less its flushes).
fn decode_access((tag, block): (u8, u32), space: usize) -> Option<BlockId> {
    match tag {
        0..=7 => Some(block),
        8 => None,
        _ => Some(space as u32 + block),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_multi_lane_traces_replay_exactly(
        (raw_lanes, space) in (
            proptest::collection::vec(
                proptest::collection::vec((0u8..10, 0u32..300), 0..120),
                1..6,
            ),
            1usize..400,
        )
    ) {
        let lanes: Vec<Lane> = raw_lanes
            .into_iter()
            .map(|raw| raw.into_iter().map(|op| decode_access(op, space)).collect())
            .collect();
        assert_lane_differential(&lanes, space);
    }
}

#[test]
fn empty_and_silent_only_lanes_replay_exactly() {
    let lanes = vec![vec![], vec![None; 5], vec![None]];
    assert_lane_differential(&lanes, 4);
    let stats = profile_lanes(&lanes, 4).stats_at(16);
    assert_eq!(stats.misses, 0, "silent lanes cannot miss");
    assert_eq!(stats.silent, 6);
}

#[test]
fn outlier_block_grows_the_index_mid_replay() {
    // A dense run, then one id far past the declared space, then dense
    // again: the profiler and the per-lane caches must grow their index
    // mid-lane and still agree.
    let lane: Lane = (0..40u32)
        .map(|b| Some(b % 10))
        .chain([Some(100_000)])
        .chain((0..40u32).map(|b| Some(b % 13)))
        .collect();
    assert_lane_differential(&[lane.clone(), lane], 10);
}
