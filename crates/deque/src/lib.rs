//! # wsf-deque — work-stealing deques
//!
//! The parsimonious work-stealing scheduler of the paper gives each
//! processor a double-ended queue: the owner pushes and pops work at the
//! *bottom* while thieves steal from the *top*.
//!
//! Three implementations are provided:
//!
//! * [`chase_lev`] — a lock-free Chase–Lev deque (dynamic circular
//!   work-stealing deque, SPAA 2005) used by the real thread-pool runtime
//!   in `wsf-runtime`; the invariants are documented inline and exercised
//!   by a multi-threaded stress test.
//! * [`injector`] — a locked MPMC FIFO (`Mutex<VecDeque>` with a padded
//!   length that lets an empty poll skip the lock) used by the runtime as
//!   its global injector for tasks submitted from outside the pool.
//! * [`sim`] — a deterministic, single-threaded deque with the same
//!   bottom/top interface, used by the execution simulator in `wsf-core`
//!   where determinism and introspection matter more than concurrency.
//!
//! ```
//! use wsf_deque::chase_lev;
//!
//! let (worker, stealer) = chase_lev::deque::<u32>();
//! worker.push(1);
//! worker.push(2);
//! assert_eq!(stealer.steal().success(), Some(1)); // thieves take the oldest task
//! assert_eq!(worker.pop(), Some(2));              // the owner takes the newest
//! assert_eq!(worker.pop(), None);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chase_lev;
pub mod injector;
pub mod sim;

pub use chase_lev::{deque, Steal, Stealer, Worker};
pub use injector::{Injector, StallSite};
pub use sim::SimDeque;
