//! # wsf-core — a parsimonious work-stealing execution simulator
//!
//! This crate implements the scheduler and cost model of *"Well-Structured
//! Futures and Cache Locality"* (Herlihy & Liu, PPoPP 2014):
//!
//! * [`SequentialExecutor`] runs a computation DAG on one simulated
//!   processor with the parsimonious work-stealing rule, producing the
//!   baseline node order and cache-miss count;
//! * [`ParallelSimulator`] runs the DAG on `P` simulated processors, each
//!   with a private deque and a private cache, under either the
//!   *future-first* or *parent-first* [`ForkPolicy`], with steal victims
//!   chosen by a [`Scheduler`] (seeded random by default, or a scripted
//!   adversary reproducing the executions in the lower-bound proofs);
//! * [`ExecutionReport`] exposes the quantities the paper's theorems bound:
//!   deviations, steals and cache misses beyond the sequential execution;
//! * [`bounds`] holds the theorem formulas themselves for comparison;
//! * [`SimScratch`] is the reusable buffer arena behind
//!   [`ParallelSimulator::run_with_scratch`]: sweeps that simulate many
//!   DAGs pass one scratch to every run and pay zero per-step heap
//!   allocation in steady state (see the `alloc_free` integration test).
//!
//! ```
//! use wsf_core::{ForkPolicy, ParallelSimulator, SequentialExecutor, SimConfig};
//! use wsf_dag::DagBuilder;
//!
//! // A small structured single-touch computation.
//! let mut b = DagBuilder::new();
//! let main = b.main_thread();
//! let f = b.fork(main);
//! b.chain(f.future_thread, 3);
//! b.task(main);
//! b.touch_thread(main, f.future_thread);
//! b.task(main);
//! let dag = b.finish().unwrap();
//!
//! let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
//! assert_eq!(seq.order().len(), dag.num_nodes());
//!
//! let par = ParallelSimulator::new(SimConfig::new(2, 8, ForkPolicy::FutureFirst)).run(&dag);
//! assert!(par.completed);
//! assert_eq!(par.executed(), dag.num_nodes() as u64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
mod config;
mod parallel;
mod policy;
mod ready;
mod report;
mod scheduler;
mod scratch;
mod sequential;

pub use config::SimConfig;
pub use parallel::ParallelSimulator;
pub use policy::ForkPolicy;
pub use ready::{next_and_push, ReadyTracker};
pub use report::{ExecutionReport, ProcStats, SeqReport, TraceEvent};
pub use scheduler::{
    PolicyConfig, PolicyScheduler, RandomScheduler, Scheduler, ScriptedScheduler, SleepDirective,
    StealAmount, StealContext, VictimOrder, WakeCondition,
};
pub use scratch::SimScratch;
pub use sequential::SequentialExecutor;
