//! # swcc-trace — multiprocessor address traces
//!
//! Trace records, synthetic workload generation, and workload-parameter
//! extraction for the software-cache-coherence reproduction.
//!
//! The paper validated its analytical model against ATUM-2 address
//! traces from a four-processor VAX 8350. Those traces are unavailable,
//! so this crate provides:
//!
//! * [`record`] — the trace representation: interleaved
//!   fetch/load/store/flush records ([`Access`], [`Trace`]).
//! * [`layout`] — the segmented address space that lets software schemes
//!   classify data as shared (the page-table-tag mechanism).
//! * [`synth`] — a seeded synthetic generator with instruction-loop
//!   locality, private LRU-stack locality, and critical-section-shaped
//!   sharing, plus POPS/THOR/PERO-like presets.
//! * [`stats`] — measurement of the Table 2 parameters (`ls`, `wr`,
//!   `shd`, `apl`, `mdshd`) back out of any trace, as the paper did.
//!
//! ```
//! use swcc_trace::synth::pops_like;
//! use swcc_trace::stats::TraceStats;
//!
//! let trace = pops_like(4, 10_000, 42).generate();
//! let stats = TraceStats::measure(&trace, 4); // 16-byte blocks
//! assert!(stats.shd() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod io;
pub mod layout;
pub mod record;
pub mod stats;
pub mod synth;

pub use layout::{AddressLayout, Region};
pub use record::{Access, AccessKind, Addr, BlockAddr, CpuId, Trace};
