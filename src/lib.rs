//! # wsf — Well-Structured Futures and Cache Locality
//!
//! Umbrella crate re-exporting the whole workspace: the computation-DAG
//! model ([`dag`]), the cache simulator ([`cache`]), the work-stealing
//! deques ([`deque`]), the parsimonious work-stealing execution simulator
//! ([`core`]), the real futures runtime ([`runtime`]), the workload
//! generators ([`workloads`]) and the experiment harness ([`analysis`]).
//!
//! The workspace reproduces the system described in *"Well-Structured
//! Futures and Cache Locality"* (Maurice Herlihy and Zhiyu Liu, PPoPP 2014):
//! it lets you build future-parallel computation DAGs, classify them as
//! structured / single-touch / local-touch, execute them sequentially or
//! with a simulated parsimonious work-stealing scheduler under either the
//! *future-first* or *parent-first* fork policy, and measure the deviations
//! and additional cache misses that the paper's theorems bound.
//!
//! ## Quick example
//!
//! ```
//! use wsf::prelude::*;
//!
//! // Build the structured single-touch DAG of the paper's Figure 4.
//! let dag = wsf::workloads::figures::fig4(4, 3);
//! assert!(wsf::dag::classify(&dag).is_structured_single_touch());
//!
//! // Sequential baseline and a 4-processor work-stealing execution.
//! let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
//! let par = ParallelSimulator::new(SimConfig {
//!     processors: 4,
//!     cache_lines: 8,
//!     fork_policy: ForkPolicy::FutureFirst,
//!     ..SimConfig::default()
//! })
//! .run(&dag);
//!
//! assert!(par.cache_misses() >= seq.cache_misses());
//! assert!(par.completed);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use wsf_analysis as analysis;
pub use wsf_cache as cache;
pub use wsf_core as core;
pub use wsf_dag as dag;
pub use wsf_deque as deque;
pub use wsf_runtime as runtime;
pub use wsf_server as server;
pub use wsf_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use wsf_cache::{CacheSim, LruCache};
    pub use wsf_core::{
        ExecutionReport, ForkPolicy, ParallelSimulator, SequentialExecutor, SimConfig,
    };
    pub use wsf_dag::{Block, Dag, DagBuilder, DagClass, EdgeKind, NodeId, ThreadId};
    pub use wsf_runtime::{Runtime, RuntimeBuilder, SpawnPolicy};
}
