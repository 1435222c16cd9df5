//! Deterministic streaming sources and stage sets for the epoch engine.
//!
//! `wsf_runtime`'s [`StreamEngine`](wsf_runtime::StreamEngine) executes an
//! unbounded item stream through a chain of [`StreamStage`]s with a
//! commit barrier every N items. This module provides the workload side of
//! the crash-recovery experiment (E18): a seeded replayable source and a family of order-sensitive mixing stages whose
//! committed states detect any lost, duplicated, or reordered item —
//! which is what makes "exactly-once after recovery" checkable as a
//! simple state equality.
//!
//! The per-epoch *cache* accounting for E18 comes from the matching DAG
//! shape: an epoch of `items` items through `stages` stages with window
//! `w` touches blocks exactly like
//! [`crate::backpressure::batched_pipeline`]`(stages, items, w, work)`,
//! which the experiment replays on the simulator per committed epoch.

use std::sync::Arc;
use wsf_runtime::{StreamSource, StreamStage};

/// `splitmix64`: the stream's deterministic item generator.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite, seeded, indexed stream: item `i` is a pure function of
/// `(seed, i)`, so any epoch can be re-read for retry or restore without
/// replaying the prefix.
#[derive(Clone, Debug)]
pub struct SeededStream {
    /// Stream seed.
    pub seed: u64,
    /// Stream length in items.
    pub len: u64,
}

impl SeededStream {
    /// A stream of `len` items drawn from `seed`.
    pub fn new(seed: u64, len: u64) -> Self {
        SeededStream { seed, len }
    }
}

impl StreamSource for SeededStream {
    fn item(&self, index: u64) -> Option<u64> {
        (index < self.len)
            .then(|| splitmix64(self.seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f)))
    }
}

/// An order-sensitive mixing stage: `transform` is a pure mix of the
/// epoch-start state and the input (safe to run concurrently and to
/// re-run on retry); `fold` rotates before adding, so committed states
/// change if any item is lost, duplicated, or folded out of order.
#[derive(Clone, Debug)]
pub struct MixStage {
    /// Initial state.
    pub init: u64,
    /// Multiplier used by the transform (forced odd).
    pub mul: u64,
    /// Additive constant used by the transform.
    pub add: u64,
}

impl StreamStage for MixStage {
    fn init(&self) -> u64 {
        self.init
    }

    fn transform(&self, state: u64, input: u64) -> u64 {
        (input ^ state)
            .wrapping_mul(self.mul | 1)
            .wrapping_add(self.add)
            .rotate_left(7)
    }

    fn fold(&self, state: u64, output: u64) -> u64 {
        state.rotate_left(5).wrapping_add(output)
    }
}

/// A chain of `stages` seeded [`MixStage`]s (the streaming counterpart of
/// the `batched_pipeline` stage topology).
pub fn mix_stages(stages: usize, seed: u64) -> Vec<Arc<dyn StreamStage>> {
    (0..stages.max(1) as u64)
        .map(|s| {
            let base = splitmix64(seed ^ (s.wrapping_mul(0xff51_afd7_ed55_8ccd)));
            Arc::new(MixStage {
                init: splitmix64(base),
                mul: splitmix64(base ^ 1),
                add: splitmix64(base ^ 2),
            }) as Arc<dyn StreamStage>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wsf_runtime::{sequential_reference, EpochConfig, Runtime, StreamEngine};

    #[test]
    fn seeded_stream_is_replayable_and_finite() {
        let s = SeededStream::new(42, 10);
        let first: Vec<_> = (0..10).map(|i| s.item(i).unwrap()).collect();
        let again: Vec<_> = (0..10).map(|i| s.item(i).unwrap()).collect();
        assert_eq!(first, again, "indexed reads replay identically");
        assert!(s.item(10).is_none());
        assert_ne!(first[0], first[1], "items vary");
        assert_ne!(SeededStream::new(43, 10).item(0), s.item(0), "seeds matter");
    }

    #[test]
    fn mix_stages_are_order_sensitive() {
        let stage = MixStage {
            init: 7,
            mul: 3,
            add: 11,
        };
        let (a, b) = (stage.transform(7, 100), stage.transform(7, 200));
        let ab = stage.fold(stage.fold(7, a), b);
        let ba = stage.fold(stage.fold(7, b), a);
        assert_ne!(ab, ba, "fold order must be visible in the state");
    }

    #[test]
    fn engine_runs_the_seeded_workload_to_the_reference_states() {
        let stages = mix_stages(3, 9);
        let src = SeededStream::new(77, 50);
        let rt = StdArc::new(Runtime::new(2));
        let cfg = EpochConfig {
            epoch_items: 16,
            window: 4,
            ..EpochConfig::default()
        };
        let mut engine = StreamEngine::new(rt, stages.clone(), cfg);
        let report = engine.run(&src).expect("workload commits");
        assert_eq!(report.epochs_committed, 4); // 16+16+16+2
        assert_eq!(
            engine.committed_states(),
            sequential_reference(&stages, &src, 16)
        );
    }
}
