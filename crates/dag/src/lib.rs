//! # wsf-dag — computation DAGs for future-parallel programs
//!
//! This crate implements the computation model of *"Well-Structured Futures
//! and Cache Locality"* (Herlihy & Liu, PPoPP 2014), Section 2:
//!
//! * a future-parallel computation is a DAG of unit tasks connected by
//!   **continuation**, **future** (spawn) and **touch** (join) edges;
//! * a **thread** is a maximal chain of continuation edges;
//! * a **fork** is a node with an outgoing future edge; its *left child* is
//!   the first node of the spawned future thread and its *right child* is
//!   the next node of the parent thread;
//! * a **touch** is a node with an incoming touch edge; its *future parent*
//!   supplies the value and its *local parent* is its continuation
//!   predecessor.
//!
//! On top of the raw graph the crate provides
//!
//! * [`DagBuilder`] — safe incremental construction (cycles are impossible
//!   by construction),
//! * [`classify`]/[`DagClass`] — the paper's Definitions 1, 2, 3, 13 and 17
//!   (structured, single-touch, local-touch, super-final-node variants),
//! * [`traverse`] — span `T∞`, work `T₁`, critical paths, reachability,
//! * [`memory`] — memory-block assignment helpers used by the cache
//!   locality experiments.
//!
//! ```
//! use wsf_dag::{DagBuilder, classify, span};
//!
//! // fib(3)-style fork-join: two futures touched in LIFO order.
//! let mut b = DagBuilder::new();
//! let main = b.main_thread();
//! let f1 = b.fork(main);
//! b.chain(f1.future_thread, 2);
//! let f2 = b.fork(main);
//! b.chain(f2.future_thread, 2);
//! b.task(main);
//! b.touch_thread(main, f2.future_thread);
//! b.touch_thread(main, f1.future_thread);
//! b.task(main);
//! let dag = b.finish().unwrap();
//!
//! let class = classify(&dag);
//! assert!(class.is_structured_single_touch());
//! assert!(class.fork_join);
//! // Longest path: root, fork1, fork2, the three nodes of the second
//! // future thread, both touches, final node.
//! assert_eq!(span(&dag), 9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod classify;
mod dag;
mod edge;
mod error;
mod ids;
pub mod memory;
mod node;
mod thread;
pub mod traverse;
mod validate;

pub use builder::{DagBuilder, Fork};
pub use classify::{classify, is_structured_local_touch, is_structured_single_touch, DagClass};
pub use dag::Dag;
pub use edge::{Edge, EdgeKind};
pub use error::DagError;
pub use ids::{Block, NodeId, ThreadId};
pub use node::{NodeData, SuccessorRecord};
pub use thread::ThreadData;
pub use traverse::{critical_path, is_descendant, parallelism, span, topo_order};
pub use validate::validate;
