//! Replays runtime block-touch traces through the cache simulators.
//!
//! The hardware-validation loop records, per worker, the sequence of
//! blocks a real pool execution touched (`wsf_runtime::TouchTrace`). This
//! module feeds those per-lane sequences back through [`CacheSim`] — one
//! private simulated cache per lane, exactly how the parallel executor
//! models per-processor caches — and, lane after lane, through one
//! [`StackDistanceSim`] for full per-capacity miss-ratio curves, so an
//! *executed* schedule gets the same miss accounting as a simulated one.
//!
//! Replay is defined access-for-access: lane `i`'s ops drive a cold
//! simulator exactly as if the worker had called `access_opt`/`flush`
//! itself, so the result is bit-equal to direct simulation (pinned by the
//! `replay_differential` proptest suite, the runtime analogue of
//! `stack_distance_differential.rs`).

use crate::sim::{CacheSim, StackDistanceSim};
use crate::stack_distance::MissRatioCurve;
use crate::stats::CacheStats;
use crate::BlockId;

/// One replayed cache operation of a worker lane.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// A block access; `None` is a silent instruction (a node that touches
    /// no memory).
    Access(Option<BlockId>),
    /// A full cache flush (e.g. bracketing a phase boundary).
    Flush,
}

/// Per-lane and aggregate miss statistics from a replay (see [`replay`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// One [`CacheStats`] per input lane, in lane order.
    pub per_lane: Vec<CacheStats>,
    /// Field-wise sum over the lanes — total misses of the executed
    /// schedule under the per-worker private-cache model.
    pub total: CacheStats,
}

/// Replays each lane through its own fresh [`CacheSim`] of `capacity`
/// lines (same constructor the sequential executor uses, with
/// `block_space` as the dense-index hint), returning per-lane and summed
/// statistics.
pub fn replay(lanes: &[Vec<ReplayOp>], capacity: usize, block_space: usize) -> ReplaySummary {
    let per_lane: Vec<CacheStats> = lanes
        .iter()
        .map(|ops| {
            let mut sim = CacheSim::with_block_hint(capacity, block_space);
            for op in ops {
                match op {
                    ReplayOp::Access(block) => {
                        sim.access_opt(*block);
                    }
                    ReplayOp::Flush => sim.flush(),
                }
            }
            sim.stats()
        })
        .collect();
    let total = per_lane.iter().copied().sum();
    ReplaySummary { per_lane, total }
}

/// Replays the lanes through one [`StackDistanceSim`], flushed before each
/// lane, so every lane starts from cold private caches while the histogram
/// accumulates: the result reports, for every LRU capacity `C` at once,
/// the total misses the executed schedule would take on per-worker private
/// caches of `C` lines — the one-pass (Mattson) counterpart of calling
/// [`replay`] per capacity.
pub fn replay_curves(lanes: &[Vec<ReplayOp>], block_space: usize) -> MissRatioCurve {
    let mut sim = StackDistanceSim::with_block_hint(block_space);
    for ops in lanes {
        sim.flush();
        for op in ops {
            match op {
                ReplayOp::Access(block) => {
                    sim.access_opt(*block);
                }
                ReplayOp::Flush => sim.flush(),
            }
        }
    }
    sim.curve()
}

/// Convenience: wraps a lane's block sequence (e.g. the `block` halves of
/// `TouchTrace::node_trace`) as [`ReplayOp::Access`] ops.
pub fn ops_from_blocks(blocks: impl IntoIterator<Item = Option<BlockId>>) -> Vec<ReplayOp> {
    blocks.into_iter().map(ReplayOp::Access).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_direct_simulation_per_lane() {
        let lanes = vec![
            ops_from_blocks([Some(0), Some(1), Some(0), None, Some(2)]),
            ops_from_blocks([Some(2), Some(2), Some(3)]),
        ];
        let summary = replay(&lanes, 2, 4);
        assert_eq!(summary.per_lane.len(), 2);

        let mut direct = CacheSim::with_block_hint(2, 4);
        for b in [Some(0), Some(1), Some(0), None, Some(2)] {
            direct.access_opt(b);
        }
        assert_eq!(summary.per_lane[0], direct.stats());
        assert_eq!(
            summary.total,
            summary.per_lane.iter().copied().sum::<CacheStats>()
        );
    }

    #[test]
    fn flush_forgets_residency() {
        let with_flush = vec![vec![
            ReplayOp::Access(Some(0)),
            ReplayOp::Flush,
            ReplayOp::Access(Some(0)),
        ]];
        let summary = replay(&with_flush, 4, 1);
        assert_eq!(summary.total.misses, 2, "flush makes the repeat cold");
    }

    #[test]
    fn curves_match_fixed_capacity_replay() {
        let lanes = vec![
            ops_from_blocks((0..6u32).chain(0..6).map(Some)),
            ops_from_blocks([Some(1), None, Some(1), Some(9)]),
        ];
        let curve = replay_curves(&lanes, 10);
        for capacity in [1usize, 2, 4, 6, 8, 64] {
            let fixed = replay(&lanes, capacity, 10);
            assert_eq!(curve.stats_at(capacity), fixed.total, "capacity {capacity}");
        }
    }

    #[test]
    fn empty_lanes_are_fine() {
        let summary = replay(&[], 4, 4);
        assert_eq!(summary.total, CacheStats::default());
        assert_eq!(replay_curves(&[], 4).accesses(), 0);
    }
}
