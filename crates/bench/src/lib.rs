//! # swcc-bench — sweep-engine benchmark
//!
//! The `swcc-bench` binary times the batched solver kernels against
//! their pointwise references (the MVA/bus sweep, warm-started and
//! lockstep batch Patel solves, the MVA grid) and writes the speedup
//! ratios and solver iteration counts as a `BENCH_sweep.json` report.
//!
//! The [`compare`] module backs `swcc-bench --compare old.json
//! new.json`, the perf half of CI's regression gate: ratios are gated
//! within a tolerance, iteration counts exactly.
//!
//! Other layers are timed elsewhere: perfbench (`perfbench/`) measures
//! the model, simulator and service per layer, and `repro --record`
//! stores each experiment's `duration_ms` in the `swcc-run/v2` record.

pub mod compare;

/// Schema identifier written into every `BENCH_sweep.json` report and
/// the only one `--compare` accepts. v2 added the batch-engine sections
/// (`batch_patel`, `batch_grid`) and the warm-solver setup/iteration
/// time split.
pub const BENCH_SCHEMA: &str = "swcc-bench/v2";
