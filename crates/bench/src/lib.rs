//! # swcc-bench — benchmark harness
//!
//! Criterion benchmarks for the software-cache-coherence reproduction.
//! Each of the paper's tables and figures has a benchmark that runs the
//! corresponding experiment from `swcc-experiments` (`bench_tables`,
//! `bench_figures`, `bench_validation`); `bench_components` times the
//! individual solvers and the simulator; `bench_ablations` times the
//! design-choice variants called out in DESIGN.md (Dragon second-order
//! terms, hardware cost-table derivation, network message-size trade).
//!
//! Run with `cargo bench --workspace`. The simulation-backed benchmarks
//! use the `quick` experiment profile and reduced sample counts so a
//! full `cargo bench` completes in minutes.
//!
//! The [`compare`] module backs `swcc-bench --compare old.json
//! new.json`, the perf half of CI's regression gate.

pub mod compare;

/// Schema identifier written into every `BENCH_sweep.json` report and
/// the only one `--compare` accepts. v2 added the batch-engine sections
/// (`batch_patel`, `batch_grid`) and the warm-solver setup/iteration
/// time split.
pub const BENCH_SCHEMA: &str = "swcc-bench/v2";

/// Returns the quick run options shared by all benches, so every bench
/// times the same workload an experiment smoke test runs.
pub fn bench_options() -> swcc_experiments::RunOptions {
    swcc_experiments::RunOptions::quick()
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_options_are_quick() {
        let o = super::bench_options();
        assert!(o.validation.instructions_per_cpu <= 20_000);
    }
}
