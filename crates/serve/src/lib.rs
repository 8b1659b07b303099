//! # swcc-serve — the batch coherence-query service
//!
//! A std-only TCP service that answers batches of coherence-model
//! queries — `(scheme, workload, machine) → power / penalty /
//! sensitivity` — through the `swcc-core` batch solver engine, fronted
//! by a sharded single-flight solved-point cache that this crate keeps
//! in a private module, `cache`.
//!
//! The wire protocol (newline-delimited JSON) is documented in
//! [`protocol`]; the admission/solve pipeline and its bit-identity
//! guarantees in [`server`]; the emitted metrics in [`metrics`]. Two
//! binaries ship with the crate:
//!
//! * `swcc-serve` — the server.
//! * `swcc-loadgen` — a closed-loop load harness that measures
//!   throughput and latency quantiles against a running server, gates
//!   on conservative floors, and can bit-verify served results against
//!   direct library calls (`--verify`).
//!
//! Served results are **bit-identical** to direct library calls: bus
//! answers match [`swcc_core::bus::analyze_bus`], network answers match
//! [`swcc_core::network::analyze_network`] (the server's
//! [`swcc_core::batch::BatchPatelSolver`] lanes run the same
//! guarded-Newton kernel as the pointwise solve). The golden end-to-end tests and
//! `swcc-loadgen --verify` both check this across the wire.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cache;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use protocol::{
    parse_request, Batch, Machine, Query, QueryKind, Request, TelemetryFormat, PROTOCOL_VERSION,
};
pub use server::{
    handle_request, run_batch, run_batch_traced, spawn, BusPoint, RunningServer, ServeConfig,
    ServeState,
};
pub use telemetry::{PhaseSpan, RequestTrace, Telemetry, TelemetrySnapshot, TELEMETRY_SCHEMA};
