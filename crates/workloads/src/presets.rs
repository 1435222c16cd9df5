//! Size presets for the workload-suite generators, up to ~10^6 distinct
//! blocks.
//!
//! The E15 capacity sweep showed the indexed cache models make per-access
//! cost independent of `C`, but its working sets topped out around
//! 10^4–10^5 blocks — an order of magnitude below what the dense
//! block→slot index is engineered for. These presets pin down named
//! parameter choices for every suite family at two block budgets:
//!
//! * [`BlockScale::HundredK`] — ~10^5 distinct blocks, sized so a release
//!   build + simulation stays inside the CI time budget;
//! * [`BlockScale::Million`] — ~10^6 distinct blocks, the scale the
//!   `#[ignore]`d tests in `crates/workloads/tests/scale.rs` build and
//!   simulate, stressing the dense index's memory footprint and grow path
//!   (every family numbers its blocks densely from 0, so
//!   `Dag::block_space()` declares the dense range, and the builders
//!   pre-size their node arrays via `DagBuilder::with_capacity`).
//!
//! Exact block counts per family (all asserted in the scale tests):
//!
//! | family | blocks |
//! |--------|--------|
//! | [`mergesort`] | `(len/grain) · (1 + log₂(len/grain))` |
//! | [`stencil()`] | `rows·width + (rows-1)·steps` |
//! | [`stencil_exchange`] | `rows·width + 2·(rows-1)·steps` |
//! | [`batched_pipeline`] | `stages·items·(work+1) + ⌈items/window⌉ + items` |

use crate::{backpressure, sort, stencil};
use wsf_dag::Dag;

/// The distinct-block budget a preset targets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BlockScale {
    /// ~10^5 distinct blocks: large enough to dwarf every swept cache
    /// capacity, small enough for CI.
    HundredK,
    /// ~10^6 distinct blocks: the dense block→slot index's target regime.
    Million,
}

impl BlockScale {
    fn pick<T>(self, hundred_k: T, million: T) -> T {
        match self {
            BlockScale::HundredK => hundred_k,
            BlockScale::Million => million,
        }
    }
}

/// Fork-join mergesort at the preset scale (`grain = 16`;
/// `len = 2^17` / `2^20` elements → ~1.1·10^5 / ~1.1·10^6 blocks).
pub fn mergesort(scale: BlockScale) -> Dag {
    sort::mergesort(scale.pick(131_072, 1_048_576), 16)
}

/// One-sided wavefront stencil at the preset scale
/// (256×384×2 → ~9.9·10^4 blocks; 1024×1000×2 → ~1.03·10^6 blocks).
pub fn stencil(scale: BlockScale) -> Dag {
    let (rows, width, steps) = scale.pick((256, 384, 2), (1_024, 1_000, 2));
    stencil::stencil(rows, width, steps)
}

/// Symmetric-exchange stencil at the preset scale
/// (256×384×2 → ~9.9·10^4 blocks; 1024×1000×2 → ~1.03·10^6 blocks).
pub fn stencil_exchange(scale: BlockScale) -> Dag {
    let (rows, width, steps) = scale.pick((256, 384, 2), (1_024, 1_000, 2));
    stencil::stencil_exchange(rows, width, steps)
}

/// Bounded-backpressure pipeline at the preset scale (4 stages, window 8,
/// work 2; 8·10^3 / 8·10^4 items → ~1.05·10^5 / ~1.05·10^6 blocks).
pub fn batched_pipeline(scale: BlockScale) -> Dag {
    backpressure::batched_pipeline(4, scale.pick(8_000, 80_000), 8, 2)
}

/// One preset family: its name and its scaled builder.
pub type Family = (&'static str, fn(BlockScale) -> Dag);

/// Every preset family as a `(name, builder)` pair, for the tests
/// that sweep the whole suite.
pub const FAMILIES: [Family; 4] = [
    ("mergesort", mergesort),
    ("stencil", stencil),
    ("stencil_exchange", stencil_exchange),
    ("batched_pipeline", batched_pipeline),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_k_presets_hit_their_block_budget() {
        for (name, build) in FAMILIES {
            let dag = build(BlockScale::HundredK);
            let blocks = dag.num_blocks();
            assert!(
                (90_000..200_000).contains(&blocks),
                "{name}: {blocks} blocks is outside the ~10^5 budget"
            );
            // Block ids are dense from 0, so the declared dense-index range
            // never exceeds the numbering (equality holds whenever every
            // id is used, as the stencils and pipeline do).
            assert!(dag.block_space() >= blocks, "{name}");
        }
    }
}
