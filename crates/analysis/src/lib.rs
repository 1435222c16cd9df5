//! # wsf-analysis — the experiment harness
//!
//! Reproduces every theorem and figure of *"Well-Structured Futures and
//! Cache Locality"* as an executable experiment over the simulator
//! (`wsf-core`), the workload generators (`wsf-workloads`) and the real
//! runtime (`wsf-runtime`). See `docs/DESIGN.md` §3 for the experiment
//! index and `docs/EXPERIMENTS.md` for an archived run.
//!
//! ```
//! use wsf_analysis::{experiments, Scale};
//!
//! let tables = experiments::e7_lemma4(Scale::Quick);
//! assert!(!tables[0].is_empty());
//! println!("{}", tables[0]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod fit;
pub mod par;
pub mod policy;
pub mod sweeps;
pub mod table;
pub mod tournament;
pub mod validate;

pub use experiments::{default_capacity_grid, registry, run_all, Scale};
pub use fit::{mean_ratio, power_law_exponent};
pub use par::{par_map, set_threads, threads};
pub use policy::{OrderSpec, PolicySpec};
pub use sweeps::{
    capacity_sweep, seed_sweep, seed_sweep_cells, sequential_curve, CapacityGrid, CapacityRun,
    CapacitySweep, SweepCell, SweepConfig,
};
pub use table::Table;
pub use tournament::{
    policy_space, policy_space_with, run_tournament, Tournament, TournamentConfig, TournamentEntry,
};
pub use validate::{validate_trace, BoundFamily, TraceValidation};
