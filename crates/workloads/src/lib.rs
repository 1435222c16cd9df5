//! # wsf-workloads — workload generators for the cache-locality experiments
//!
//! Two kinds of workloads:
//!
//! * [`figures`] — faithful reconstructions of the worst-case DAG
//!   constructions in the paper (Figures 3, 4, 5, 6, 7 and 8), each bundled
//!   with the adversarial schedule its proof describes, so the lower-bound
//!   executions of Theorems 9 and 10 can be replayed on the simulator;
//! * application-shaped workloads — fork-join divide and conquer
//!   ([`apps`]), local-touch pipelines ([`pipeline`]), random structured
//!   single-touch DAGs ([`random`]) and closure-based versions of the same
//!   programs for the real runtime ([`runtime_apps`]);
//! * the Theorem-12 workload suite — divide-and-conquer mergesort in
//!   fork-join and streaming-merge variants ([`sort`]), wavefront stencil
//!   grids with boundary-exchange futures ([`stencil`]) and streaming
//!   pipelines with bounded backpressure ([`backpressure`]). The three
//!   families the server also builds ([`sort::mergesort_into`],
//!   [`stencil::stencil_into`], [`backpressure::batched_pipeline_into`])
//!   each have one allocation-free builder with closed-form block ids; the
//!   rest draw theirs from the shared [`block_alloc::BlockAlloc`]. Both
//!   numberings are collision-checked;
//! * the Theorem-16/18 super-final family — the symmetric-exchange stencil
//!   ([`stencil::stencil_exchange`]), whose per-neighbour boundary copies
//!   need a super final node to close the computation;
//! * [`streaming`] — seeded replayable stream sources and order-sensitive
//!   stage chains for the fault-tolerant epoch engine
//!   (`wsf_runtime::StreamEngine`), feeding the crash-recovery experiment
//!   (E18);
//! * [`dag_exec`] — a chain interpreter that executes any structured DAG
//!   on the real pool under the parsimonious discipline, emitting the
//!   block-touch traces of the hardware-validation loop (E21);
//! * [`presets`] — named size presets scaling every suite family up to
//!   ~10^6 distinct blocks;
//! * [`submission`] — wire-encodable parameter sets of those three
//!   families for the serving front end (`wsf-server`): codec, caps and
//!   exact declared-footprint accounting over the same builders.
//!
//! Every generator documents which experiment (E1–E21 in `docs/DESIGN.md`)
//! it feeds and which figure or theorem of the paper it reproduces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod backpressure;
pub mod block_alloc;
pub mod dag_exec;
pub mod figures;
pub mod pipeline;
pub mod presets;
pub mod random;
pub mod runtime_apps;
pub mod sort;
pub mod stencil;
pub mod streaming;
pub mod submission;
