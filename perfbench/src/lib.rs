//! The swcc benchmark: four fixed-work workloads, each aimed at one
//! layer, driven through the repository's public APIs in one process
//! on one thread.
//!
//! * `sim-validate` — the paper's validation method: synthesize
//!   traces, measure the workload parameters, simulate, and evaluate
//!   the model at the measured parameters.
//! * `model-sweep` — the analytical model at seeded Table 7 design
//!   points.
//! * `serve-hot` — the query service's read path: every point cached.
//! * `serve-cold` — its write path: every point new, cache growing.
//!
//! Every workload runs a fixed, seeded op list (never "as many ops as
//! fit"), split into rounds of equal work, so the op multiset repeats
//! from run to run; the timing figures are medians over rounds. An
//! untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) wraps each layer call in a span of the benchmark's own
//! recorder and reports the per-layer metrics.

pub mod alloc;
pub mod model_sweep;
pub mod report;
pub mod rng;
pub mod serve;
pub mod sim_validate;
pub mod spans;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the recorded reference values belong to.
pub const DEFAULT_SEED: u64 = 1;

/// One run's parameters, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// The run length the fixed work is sized for.
    pub seconds: u32,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl RunConfig {
    /// Rounds of fixed work for this run's length, given the rounds per
    /// ten seconds (at least one), so the work depends only on the
    /// arguments.
    pub fn rounds(&self, per_10s: usize) -> usize {
        (per_10s * self.seconds as usize / 10).max(1)
    }
}

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 4] = ["sim-validate", "model-sweep", "serve-hot", "serve-cold"];

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<report::Report, String> {
    let mut report = report::Report::new(workload, cfg.trace);
    match workload {
        "sim-validate" => sim_validate::run(cfg, &mut report),
        "model-sweep" => model_sweep::run(cfg, &mut report),
        "serve-hot" => serve::run(cfg, serve::Mode::Hot, &mut report),
        "serve-cold" => serve::run(cfg, serve::Mode::Cold, &mut report),
        other => {
            return Err(format!(
                "unknown workload \"{other}\" (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    Ok(report)
}
