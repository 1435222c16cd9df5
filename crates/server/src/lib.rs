//! `wsf-server`: futures-as-a-service over the `wsf` runtime.
//!
//! A TCP/UDS front end that accepts DAG/future submissions from many
//! concurrent clients over a length-prefixed, versioned flat-`u64` binary
//! protocol ([`protocol`]), admits or sheds them by declared block
//! footprint ([`admission`]), batches accepted work into the runtime's
//! injector via [`wsf_deque::Injector::push_batch`] — one lock per frame,
//! no steady-state allocation on the ingest hot path — and executes each
//! submission on a shared [`wsf_runtime::Runtime`] with per-tenant
//! accounting ([`tenant`]). A shape's DAG and sequential baseline are
//! built once and shared by every request that names them ([`plan`]);
//! only the tenant's seeded stealing run is computed per request.
//!
//! Layering:
//!
//! * [`protocol`] — framing and status codes (transport-free, allocation-
//!   free after warm-up).
//! * [`admission`] — the reject-vs-queue decision.
//! * [`tenant`] — per-tenant policy/machine specs and accounting.
//! * [`plan`] — the bounded cache of immutable `(DAG, sequential
//!   baseline)` plans, keyed by shape and machine.
//! * [`core`] — ingest → admit → batch-inject → resolve plan → execute;
//!   exactly-once completion delivery under injected worker faults;
//!   graceful drain-then-stop shutdown.
//! * [`net`] — TCP/UDS listeners and per-connection reader/writer threads;
//!   hung clients cannot wedge shutdown.
//! * [`client`] — a reference blocking client plus the zipfian tenant
//!   sampler E20 uses; load generation and latency measurement live in
//!   the standalone `benchmark/` crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod client;
pub mod core;
pub mod net;
pub mod plan;
pub mod protocol;
pub mod tenant;

pub use admission::AdmissionMode;
pub use client::{BenchClient, ZipfSampler};
pub use core::{Completion, ConnShared, Ingest, ServerConfig, ServerCore, ServerReport};
pub use net::Server;
pub use plan::{PlanStats, PLAN_BUDGET_NODES};
pub use protocol::{
    frame_request, FrameReader, ProtocolError, COMPLETION_WORDS, MAX_FRAME_WORDS, PROTOCOL_VERSION,
    REQUEST_MAGIC, RESPONSE_MAGIC, STATUS_BAD_SHAPE, STATUS_FAILED, STATUS_OK, STATUS_SHED,
    STATUS_SHUTTING_DOWN,
};
pub use tenant::{TenantReport, TenantSpec};
