//! Wire-encodable workload shapes for the serving front end (`wsf-server`).
//!
//! A [`ShapeSpec`] is a compact, validated description of one DAG from the
//! Theorem-12 workload suite — fork-join mergesort ([`crate::sort`]),
//! wavefront stencil ([`crate::stencil`]) or bounded-backpressure pipeline
//! ([`crate::backpressure`]) — small enough to ship over a socket as a few
//! flat little-endian `u64` words and cheap enough to rebuild on the server
//! without allocating.
//!
//! A shape is a set of parameters, not a second builder:
//! [`ShapeSpec::build_into`] dispatches to the family's one builder —
//! [`crate::sort::mergesort_into`] (`Mergesort { leaves }` is
//! `mergesort(leaves, 1)`), [`crate::stencil::stencil_into`],
//! [`crate::backpressure::batched_pipeline_into`] — which append into a
//! caller-owned recycled [`DagBuilder`] using a reusable [`ShapeScratch`],
//! so steady-state rebuilds perform no heap allocation (asserted by the
//! server's counting-allocator test), and the experiment tables run the
//! very DAGs the server serves (`tests/family_golden.rs` pins both entry
//! points to the same digests). What this module adds is what the wire
//! needs:
//!
//! * **flat-`u64` codec** — [`ShapeSpec::encode`]/[`ShapeSpec::decode`]
//!   round-trip through the word stream the server's framing layer carries;
//!   `decode` validates every parameter against hard caps so a malicious
//!   frame cannot request an unbounded build;
//! * **declared footprint** — the builders number their blocks in closed
//!   form over the parameters, so the exact distinct-block count is known
//!   before anything is built: [`ShapeSpec::footprint`], the quantity the
//!   server's admission control charges.
//!
//! Every family is structured local-touch (Definition 3), so the Theorem 12
//! deviation/miss bounds apply to everything the server executes; the tests
//! assert the classification.

use crate::backpressure::batched_pipeline_into;
use crate::sort::mergesort_into;
use crate::stencil::stencil_into;
use wsf_dag::{Dag, DagBuilder, NodeId, ThreadId};

/// Largest mergesort leaf count a frame may request (power of two).
pub const MAX_LEAVES: u64 = 1 << 14;
/// Largest stencil row count a frame may request.
pub const MAX_ROWS: u64 = 512;
/// Largest stencil row width a frame may request.
pub const MAX_WIDTH: u64 = 4096;
/// Largest stencil step count a frame may request.
pub const MAX_STEPS: u64 = 512;
/// Largest pipeline stage count a frame may request.
pub const MAX_STAGES: u64 = 64;
/// Largest pipeline item count a frame may request.
pub const MAX_ITEMS: u64 = 8192;
/// Largest per-item work chain a frame may request.
pub const MAX_WORK: u64 = 64;
/// Cap on the estimated node count of any single decoded shape.
pub const MAX_NODES: u64 = 1 << 21;

/// A decoding/validation failure for a submitted shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// The word stream ended inside a shape.
    Truncated,
    /// The leading word is not a known shape tag.
    BadTag(u64),
    /// A parameter is outside its validity range.
    BadParam(&'static str),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::Truncated => write!(f, "shape words truncated"),
            ShapeError::BadTag(t) => write!(f, "unknown shape tag {t}"),
            ShapeError::BadParam(what) => write!(f, "shape parameter out of range: {what}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A wire-encodable description of one workload-suite DAG.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ShapeSpec {
    /// Fork-join divide-and-conquer mergesort over `leaves` unit runs
    /// (`leaves` a power of two): [`crate::sort::mergesort`] at unit grain.
    Mergesort {
        /// Number of leaf runs (power of two, `1..=MAX_LEAVES`).
        leaves: u32,
    },
    /// One-sided wavefront stencil: `rows` row threads sweeping `width`
    /// interior blocks for `steps` steps, exchanging one boundary value per
    /// step: [`crate::stencil::stencil`].
    Stencil {
        /// Grid rows (`1..=MAX_ROWS`); row 0 is the main thread.
        rows: u32,
        /// Interior blocks per row (`1..=MAX_WIDTH`).
        width: u32,
        /// Time steps (`1..=MAX_STEPS`).
        steps: u32,
    },
    /// Bounded-backpressure streaming pipeline: `stages` stage workers per
    /// batch, `items` items in batches of `window`, `work` work nodes per
    /// item per stage: [`crate::backpressure::batched_pipeline`].
    Pipeline {
        /// Pipeline stages (`1..=MAX_STAGES`).
        stages: u32,
        /// Items flowing through the pipeline (`1..=MAX_ITEMS`).
        items: u32,
        /// Backpressure window (`1..=items`).
        window: u32,
        /// Work nodes per item per stage (`1..=MAX_WORK`).
        work: u32,
    },
}

const TAG_MERGESORT: u64 = 1;
const TAG_STENCIL: u64 = 2;
const TAG_PIPELINE: u64 = 3;

impl ShapeSpec {
    /// The family name (table/report label).
    pub fn name(&self) -> &'static str {
        match self {
            ShapeSpec::Mergesort { .. } => "mergesort",
            ShapeSpec::Stencil { .. } => "stencil",
            ShapeSpec::Pipeline { .. } => "batched_pipeline",
        }
    }

    /// Number of `u64` words [`ShapeSpec::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        match self {
            ShapeSpec::Mergesort { .. } => 2,
            ShapeSpec::Stencil { .. } => 4,
            ShapeSpec::Pipeline { .. } => 5,
        }
    }

    /// Appends the flat-`u64` encoding (tag word + parameters) to `out`.
    pub fn encode(&self, out: &mut Vec<u64>) {
        match *self {
            ShapeSpec::Mergesort { leaves } => {
                out.push(TAG_MERGESORT);
                out.push(leaves as u64);
            }
            ShapeSpec::Stencil { rows, width, steps } => {
                out.push(TAG_STENCIL);
                out.push(rows as u64);
                out.push(width as u64);
                out.push(steps as u64);
            }
            ShapeSpec::Pipeline {
                stages,
                items,
                window,
                work,
            } => {
                out.push(TAG_PIPELINE);
                out.push(stages as u64);
                out.push(items as u64);
                out.push(window as u64);
                out.push(work as u64);
            }
        }
    }

    /// Decodes and validates one shape from the front of `words`, returning
    /// it with the number of words consumed.
    pub fn decode(words: &[u64]) -> Result<(ShapeSpec, usize), ShapeError> {
        let tag = *words.first().ok_or(ShapeError::Truncated)?;
        let need = match tag {
            TAG_MERGESORT => 2,
            TAG_STENCIL => 4,
            TAG_PIPELINE => 5,
            other => return Err(ShapeError::BadTag(other)),
        };
        if words.len() < need {
            return Err(ShapeError::Truncated);
        }
        let spec = match tag {
            TAG_MERGESORT => {
                let leaves = words[1];
                if leaves == 0 || leaves > MAX_LEAVES || !leaves.is_power_of_two() {
                    return Err(ShapeError::BadParam("leaves"));
                }
                ShapeSpec::Mergesort {
                    leaves: leaves as u32,
                }
            }
            TAG_STENCIL => {
                let (rows, width, steps) = (words[1], words[2], words[3]);
                if rows == 0 || rows > MAX_ROWS {
                    return Err(ShapeError::BadParam("rows"));
                }
                if width == 0 || width > MAX_WIDTH {
                    return Err(ShapeError::BadParam("width"));
                }
                if steps == 0 || steps > MAX_STEPS {
                    return Err(ShapeError::BadParam("steps"));
                }
                if rows * steps * (width + 2) > MAX_NODES {
                    return Err(ShapeError::BadParam("stencil node count"));
                }
                ShapeSpec::Stencil {
                    rows: rows as u32,
                    width: width as u32,
                    steps: steps as u32,
                }
            }
            TAG_PIPELINE => {
                let (stages, items, window, work) = (words[1], words[2], words[3], words[4]);
                if stages == 0 || stages > MAX_STAGES {
                    return Err(ShapeError::BadParam("stages"));
                }
                if items == 0 || items > MAX_ITEMS {
                    return Err(ShapeError::BadParam("items"));
                }
                if window == 0 || window > items {
                    return Err(ShapeError::BadParam("window"));
                }
                if work == 0 || work > MAX_WORK {
                    return Err(ShapeError::BadParam("work"));
                }
                if stages * items * (work + 2) > MAX_NODES {
                    return Err(ShapeError::BadParam("pipeline node count"));
                }
                ShapeSpec::Pipeline {
                    stages: stages as u32,
                    items: items as u32,
                    window: window as u32,
                    work: work as u32,
                }
            }
            _ => unreachable!(),
        };
        Ok((spec, need))
    }

    /// Exact number of distinct memory blocks the built DAG accesses — the
    /// declared footprint the server's admission control charges. Equals
    /// the built DAG's `block_space()`.
    pub fn footprint(&self) -> u64 {
        match *self {
            ShapeSpec::Mergesort { leaves } => {
                let leaves = leaves as u64;
                // Input run per leaf plus one full-width merge buffer per
                // recursion level.
                leaves * (1 + leaves.trailing_zeros() as u64)
            }
            ShapeSpec::Stencil { rows, width, steps } => {
                let (rows, width, steps) = (rows as u64, width as u64, steps as u64);
                // Interior blocks per row plus one boundary block per
                // (non-top row, step).
                rows * width + (rows - 1) * steps
            }
            ShapeSpec::Pipeline {
                stages,
                items,
                window,
                work,
            } => {
                let (stages, items, window, work) =
                    (stages as u64, items as u64, window as u64, work as u64);
                // Per (stage, item): `work` work blocks + 1 value block;
                // plus one dispatch block per batch and one output block per
                // item on the consumer.
                stages * items * (work + 1) + items.div_ceil(window) + items
            }
        }
    }

    /// Builds this shape into `b` (a fresh or recycled builder holding only
    /// the root node) and takes the finished DAG, leaving `b` spent and
    /// ready for [`DagBuilder::recycle`]. Steady-state rebuilds of
    /// same-shape traffic allocate nothing once `b` and `scratch` have
    /// reached their high-water capacity.
    pub fn build_into(&self, b: &mut DagBuilder, scratch: &mut ShapeScratch) -> Dag {
        debug_assert_eq!(b.num_nodes(), 1, "builder must be fresh or recycled");
        match *self {
            ShapeSpec::Mergesort { leaves } => mergesort_into(b, leaves as usize, 1),
            ShapeSpec::Stencil { rows, width, steps } => {
                stencil_into(b, scratch, rows as usize, width as usize, steps as usize)
            }
            ShapeSpec::Pipeline {
                stages,
                items,
                window,
                work,
            } => batched_pipeline_into(
                b,
                scratch,
                stages as usize,
                items as usize,
                window as usize,
                work as usize,
            ),
        }
        b.finish_take().expect("submission shapes build valid DAGs")
    }

    /// A small instance of each family — the smoke-mode serving mix.
    pub fn smoke_mix() -> [ShapeSpec; 3] {
        [
            ShapeSpec::Mergesort { leaves: 32 },
            ShapeSpec::Stencil {
                rows: 8,
                width: 16,
                steps: 4,
            },
            ShapeSpec::Pipeline {
                stages: 4,
                items: 16,
                window: 4,
                work: 2,
            },
        ]
    }
}

/// Reusable buffers for [`ShapeSpec::build_into`] and the family builders
/// it dispatches to: thread-chain ids plus the two published-value rings
/// the deepest-first sweeps swap between.
#[derive(Debug, Default)]
pub struct ShapeScratch {
    pub(crate) threads: Vec<ThreadId>,
    pub(crate) prev: Vec<NodeId>,
    pub(crate) cur: Vec<NodeId>,
}

impl ShapeScratch {
    /// Creates an empty scratch (buffers grow to the traffic's working set).
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, ParallelSimulator, SimConfig};
    use wsf_dag::classify;

    fn sample_specs() -> Vec<ShapeSpec> {
        vec![
            ShapeSpec::Mergesort { leaves: 1 },
            ShapeSpec::Mergesort { leaves: 64 },
            ShapeSpec::Stencil {
                rows: 1,
                width: 3,
                steps: 2,
            },
            ShapeSpec::Stencil {
                rows: 6,
                width: 8,
                steps: 5,
            },
            ShapeSpec::Pipeline {
                stages: 1,
                items: 4,
                window: 4,
                work: 1,
            },
            ShapeSpec::Pipeline {
                stages: 3,
                items: 10,
                window: 4,
                work: 2,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let specs = sample_specs();
        let mut words = Vec::new();
        for s in &specs {
            let before = words.len();
            s.encode(&mut words);
            assert_eq!(words.len() - before, s.encoded_len());
        }
        let mut off = 0;
        for s in &specs {
            let (got, used) = ShapeSpec::decode(&words[off..]).unwrap();
            assert_eq!(&got, s);
            off += used;
        }
        assert_eq!(off, words.len());
    }

    #[test]
    fn decode_rejects_invalid() {
        assert_eq!(ShapeSpec::decode(&[]), Err(ShapeError::Truncated));
        assert_eq!(ShapeSpec::decode(&[99, 1]), Err(ShapeError::BadTag(99)));
        assert_eq!(ShapeSpec::decode(&[1]), Err(ShapeError::Truncated));
        // Non-power-of-two and oversized leaf counts.
        assert_eq!(
            ShapeSpec::decode(&[1, 3]),
            Err(ShapeError::BadParam("leaves"))
        );
        assert_eq!(
            ShapeSpec::decode(&[1, 2 * MAX_LEAVES]),
            Err(ShapeError::BadParam("leaves"))
        );
        assert_eq!(
            ShapeSpec::decode(&[2, 0, 4, 4]),
            Err(ShapeError::BadParam("rows"))
        );
        // Window larger than the item count.
        assert_eq!(
            ShapeSpec::decode(&[3, 2, 4, 5, 1]),
            Err(ShapeError::BadParam("window"))
        );
        // Node-count cap: individually legal parameters, oversized product.
        assert_eq!(
            ShapeSpec::decode(&[2, MAX_ROWS, MAX_WIDTH, MAX_STEPS]),
            Err(ShapeError::BadParam("stencil node count"))
        );
    }

    #[test]
    fn footprint_matches_built_block_space() {
        let mut b = DagBuilder::new();
        let mut scratch = ShapeScratch::new();
        for spec in sample_specs() {
            let dag = spec.build_into(&mut b, &mut scratch);
            assert_eq!(
                dag.block_space() as u64,
                spec.footprint(),
                "{spec:?}: declared footprint must equal built block space"
            );
            b.recycle(dag);
        }
    }

    #[test]
    fn all_families_are_structured_local_touch() {
        let mut b = DagBuilder::new();
        let mut scratch = ShapeScratch::new();
        for spec in [
            ShapeSpec::Mergesort { leaves: 32 },
            ShapeSpec::Stencil {
                rows: 5,
                width: 4,
                steps: 3,
            },
            ShapeSpec::Pipeline {
                stages: 3,
                items: 8,
                window: 3,
                work: 2,
            },
        ] {
            let dag = spec.build_into(&mut b, &mut scratch);
            let class = classify(&dag);
            assert!(
                class.is_structured_local_touch(),
                "{spec:?}: {:?}",
                class.violations
            );
            b.recycle(dag);
        }
    }

    #[test]
    fn rebuilds_through_recycle_are_identical() {
        let mut b = DagBuilder::new();
        let mut scratch = ShapeScratch::new();
        let spec = ShapeSpec::Pipeline {
            stages: 3,
            items: 12,
            window: 5,
            work: 2,
        };
        let first = spec.build_into(&mut b, &mut scratch);
        let (nodes, threads) = (first.num_nodes(), first.num_threads());
        b.recycle(first);
        // Interleave a different family to dirty the scratch, then rebuild.
        let other = ShapeSpec::Mergesort { leaves: 16 }.build_into(&mut b, &mut scratch);
        b.recycle(other);
        let second = spec.build_into(&mut b, &mut scratch);
        assert_eq!(second.num_nodes(), nodes);
        assert_eq!(second.num_threads(), threads);
        assert!(second.check_edge_invariants());
    }

    #[test]
    fn shapes_execute_to_completion() {
        let mut b = DagBuilder::new();
        let mut scratch = ShapeScratch::new();
        for spec in ShapeSpec::smoke_mix() {
            let dag = spec.build_into(&mut b, &mut scratch);
            for p in [1usize, 4] {
                let report = ParallelSimulator::new(SimConfig::new(p, 64, ForkPolicy::FutureFirst))
                    .run(&dag);
                assert!(report.completed, "{spec:?} P={p}");
                assert_eq!(report.executed(), dag.num_nodes() as u64);
            }
            b.recycle(dag);
        }
    }
}
