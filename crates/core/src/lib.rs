//! # swcc-core — analytical model of software cache coherence
//!
//! A Rust implementation of the analytical performance model from
//! Susan Owicki and Anant Agarwal, *Evaluating the Performance of
//! Software Cache Coherence*, ASPLOS 1989.
//!
//! In a shared-memory multiprocessor with private caches, cached copies
//! of a data item must be kept consistent. The paper compares two
//! *software* coherence schemes — **No-Cache** (shared data is
//! uncacheable) and **Software-Flush** (shared data is cached between
//! explicit, compiler-inserted flush instructions) — against a
//! **Dragon**-like write-update snoopy protocol and a coherence-free
//! **Base** upper bound, on both a shared bus and a circuit-switched
//! multistage interconnection network.
//!
//! ## Model structure
//!
//! The model has three layers, mirrored by this crate's modules:
//!
//! 1. **System model** ([`system`]) — the cost in CPU and interconnect
//!    cycles of each hardware operation (paper Tables 1 and 9).
//! 2. **Workload model** ([`workload`], [`scheme`]) — eleven parameters
//!    (Table 2) characterizing a parallel program, and per-scheme
//!    operation frequencies (Tables 3–6). Combining the two layers gives
//!    the per-instruction demand `(c, b)` ([`demand`], Eqs. 1–2).
//! 3. **Contention model** — a closed machine-repairman queueing network
//!    for the bus ([`queue`], [`bus`]) and Patel's fixed-point analysis
//!    for the multistage network ([`network`]).
//!
//! The figure of merit is **processing power** `n · U`, where `U` is the
//! per-processor utilization in productive instructions per cycle.
//!
//! ## Quick start
//!
//! ```
//! use swcc_core::prelude::*;
//!
//! # fn main() -> Result<(), swcc_core::ModelError> {
//! let system = BusSystemModel::new();          // Table 1 machine
//! let workload = WorkloadParams::default();    // Table 7 middle values
//!
//! for scheme in Scheme::ALL {
//!     let perf = analyze_bus(scheme, &workload, &system, 16)?;
//!     println!("{scheme:<15} power = {:.2}", perf.power());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Sensitivity and scaling
//!
//! [`sensitivity::sensitivity_table`] reproduces the paper's Table 8
//! one-at-a-time analysis; [`network::analyze_network`] evaluates the
//! software schemes at network scale (e.g. 256 processors).
//!
//! The companion crates `swcc-trace` (synthetic multiprocessor address
//! traces) and `swcc-sim` (a trace-driven cache/bus simulator) validate
//! this model the same way the paper did, and `swcc-experiments`
//! regenerates every table and figure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bus;
pub mod demand;
pub mod directory;
mod error;
pub mod invalidate;
pub mod metrics;
pub mod network;
pub mod queue;
pub mod scheme;
pub mod sensitivity;
pub mod system;
pub mod workload;

pub use error::{ModelError, Result};

/// Convenient glob-import of the most used items.
///
/// ```
/// use swcc_core::prelude::*;
/// let _ = WorkloadParams::default();
/// ```
pub mod prelude {
    pub use crate::batch::{machine_repairman_grid, BatchPatelSolver, PatelBatchSolution};
    pub use crate::bus::{analyze_bus, analyze_bus_sweep, BusPerformance};
    pub use crate::demand::{scheme_demand, scheme_terms, Demand};
    pub use crate::network::{
        analyze_network, network_power_curve, network_power_curves, NetworkPerformance,
    };
    pub use crate::queue::{machine_repairman, machine_repairman_sweep, MvaSolution, MvaSweep};
    pub use crate::scheme::Scheme;
    pub use crate::sensitivity::{sensitivity_table, SensitivityTable};
    pub use crate::system::{
        BusSystemModel, CostModel, MissSource, NetworkSystemModel, OpCost, Operation,
    };
    pub use crate::workload::{Level, ParamId, WorkloadParams};
    pub use crate::{ModelError, Result};
}
