//! # swcc-experiments — reproduction harness
//!
//! Regenerates every table and figure of Owicki & Agarwal, *Evaluating
//! the Performance of Software Cache Coherence* (ASPLOS 1989), from the
//! `swcc-core` analytical model and the `swcc-sim`/`swcc-trace`
//! validation substrate.
//!
//! * [`tables`] — Tables 1–9 (cost tables, frequencies, ranges, and the
//!   Table 8 sensitivity analysis).
//! * [`figures`] — Figures 4–11 (bus scheme comparisons, `apl` studies,
//!   bus-versus-network, and the 256-processor network study).
//! * [`validation`] — Figures 1–3 (model versus trace-driven
//!   simulation).
//! * [`registry`] — id-indexed access to all 26 experiments (the paper's
//!   nine tables and eleven figures, and six extensions), used by the
//!   `repro` binary.
//! * [`runner`] — a scoped-thread pool that runs batches of experiments
//!   concurrently (`repro --jobs N`) and records per-experiment
//!   wall-clock durations into the artifacts.
//! * [`history`], [`sim_report`], [`gate`] — the `swcc-run/v2` run
//!   record behind `repro --record`, its model-vs-simulation section and
//!   the tables, accuracy gate and drift gate that read it.
//! * [`tree`], [`trace_report`], [`trace_export`] — the read side of
//!   `repro --trace` files: parsing, span trees, reports and exports.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p swcc-experiments --bin repro -- all
//! ```
//!
//! or a single artifact:
//!
//! ```
//! use swcc_experiments::registry::{find, RunOptions};
//!
//! let exp = find("fig5").expect("fig5 is registered");
//! let output = (exp.run)(&RunOptions::quick());
//! println!("{}", output.artifact.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod extensions;
pub mod figures;
pub mod gate;
pub mod history;
pub mod html_report;
pub mod plot;
pub mod registry;
pub mod runner;
pub mod sim_report;
pub mod tables;
pub mod trace_export;
pub mod trace_report;
pub mod tree;
pub mod validation;

pub use artifact::{Artifact, Figure, Series, Table};
pub use history::{BuildProvenance, RecordedRun, RUN_SCHEMA};
pub use registry::{find, Experiment, RunOptions, EXPERIMENTS};
pub use runner::{default_jobs, run_all, run_selected, run_selected_observed, RunRecord};
