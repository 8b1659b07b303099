//! The run record and its append-only log behind `repro --record`,
//! `history`, `report` and `check-record`.
//!
//! A recorded run appends one `swcc-run/v1` line ([`RUN_SCHEMA`]) to a
//! JSONL log (`history/runs.jsonl` by default): build provenance, the
//! run options, the wall clock, each experiment's timings, worker and
//! counters, per-figure model-vs-simulation accuracy, and the run's
//! metric totals. One strict reader ([`RecordedRun::from_jsonl`]) reads
//! it back and rejects every other schema.
//!
//! `repro history` compares the newest record against the **trailing
//! median** of its comparable predecessors — regression detection that
//! needs no committed baseline and gets stronger as the log grows. Only
//! machine-independent quantities are gated, so a laptop and a CI runner
//! can share a log, and each is a ceiling (lower is better):
//!
//! * **solver work** — the run's `core.solver.solves` and
//!   `core.solver.residual_evals` totals;
//! * **per-figure accuracy** — the worst model-vs-simulation error of
//!   each validation figure.
//!
//! Wall clock and simulator throughput (`sim.accesses` over the summed
//! `sim.run_ms`) are shown in the trend table but never gated. Records
//! from `--quick` runs and full runs are never compared with each other
//! (the workload differs by construction), and a record is only
//! comparable when it covers the same number of experiments.

use std::fmt::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use swcc_core::metrics as core_metrics;
use swcc_obs::quantile::median;
use swcc_obs::MetricsSnapshot;
use swcc_sim::metrics as sim_metrics;

use crate::artifact::Artifact;
use crate::registry::EXPERIMENTS;
use crate::runner::RunRecord;
use crate::validation::max_relative_error;

/// Schema identifier of every run record.
pub const RUN_SCHEMA: &str = "swcc-run/v1";

/// Default relative drift tolerance (5%).
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.05;

/// Default path of the record log, relative to the working directory.
pub const DEFAULT_RECORD_PATH: &str = "history/runs.jsonl";

/// Build provenance stamped into every record at compile time (see
/// `build.rs`). Every field degrades to `"unknown"` rather than
/// failing — e.g. a build from a source tarball has no git commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildProvenance {
    /// Abbreviated git commit the binary was built from.
    pub git_commit: String,
    /// `rustc --version` of the compiling toolchain.
    pub rustc: String,
    /// `cargo --version` of the driving cargo.
    pub cargo: String,
    /// Cargo build profile (`"debug"` / `"release"`).
    pub profile: String,
}

impl BuildProvenance {
    /// The provenance baked into this binary.
    pub fn current() -> Self {
        BuildProvenance {
            git_commit: option_env!("SWCC_GIT_COMMIT")
                .unwrap_or("unknown")
                .to_string(),
            rustc: option_env!("SWCC_RUSTC").unwrap_or("unknown").to_string(),
            cargo: option_env!("SWCC_CARGO").unwrap_or("unknown").to_string(),
            profile: option_env!("SWCC_PROFILE").unwrap_or("unknown").to_string(),
        }
    }
}

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricCounter {
    /// Metric name (`"core.solver.residual_evals"`, ...).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One named gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricGauge {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// One named histogram, reduced to count/sum/mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricHistogram {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all finite observations.
    pub sum: f64,
    /// `sum / count`, or `0.0` when empty.
    pub mean: f64,
}

/// A metrics snapshot in record form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Counters, sorted by name.
    pub counters: Vec<MetricCounter>,
    /// Gauges, sorted by name.
    pub gauges: Vec<MetricGauge>,
    /// Histograms, sorted by name.
    pub histograms: Vec<MetricHistogram>,
}

impl MetricsReport {
    /// Converts an in-memory snapshot to record form.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        MetricsReport {
            counters: snapshot
                .counters
                .iter()
                .map(|c| MetricCounter {
                    name: c.name.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: snapshot
                .gauges
                .iter()
                .map(|g| MetricGauge {
                    name: g.name.clone(),
                    value: g.value,
                })
                .collect(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|h| MetricHistogram {
                    name: h.name.clone(),
                    count: h.count,
                    sum: h.sum,
                    mean: h.mean(),
                })
                .collect(),
        }
    }
}

/// One experiment's entry in a record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRun {
    /// Stable experiment id.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Wall-clock run time in milliseconds.
    pub duration_ms: f64,
    /// Queue wait (batch start to claim) in milliseconds.
    pub queue_wait_ms: f64,
    /// Zero-based worker thread index that ran it.
    pub worker: usize,
    /// Solver/sweep counters attributed to this experiment.
    pub counters: Vec<MetricCounter>,
}

/// Model-vs-simulation accuracy of one validation figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyEntry {
    /// Experiment id (`"fig1"`, ...).
    pub figure: String,
    /// Worst `|model − sim| / sim` across the figure's curves.
    pub max_rel_error: f64,
}

/// One recorded run: a single `swcc-run/v1` line of the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedRun {
    /// Always [`RUN_SCHEMA`].
    pub schema: String,
    /// Build provenance of the recording binary.
    pub build: BuildProvenance,
    /// Whether the run used the `--quick` profile.
    pub quick: bool,
    /// Worker threads the runner was given.
    pub jobs: usize,
    /// Whole-batch wall-clock milliseconds (trend only, never gated).
    pub wall_ms: f64,
    /// Per-experiment entries, in run order.
    pub experiments: Vec<ExperimentRun>,
    /// Per-validation-figure accuracy, sorted by figure id.
    pub accuracy: Vec<AccuracyEntry>,
    /// Process-wide metric totals (from the installed registry).
    pub metrics: MetricsReport,
}

impl RecordedRun {
    /// Builds a record from a finished observed run and the process-wide
    /// metrics snapshot.
    ///
    /// Validation figures are recognized by their `"… sim"` series
    /// (the model/sim pairing [`max_relative_error`] scores); other
    /// artifacts contribute nothing to `accuracy`.
    pub fn from_run(
        quick: bool,
        jobs: usize,
        records: &[RunRecord],
        wall_ms: f64,
        totals: &MetricsSnapshot,
    ) -> RecordedRun {
        let mut accuracy: Vec<AccuracyEntry> = records
            .iter()
            .filter_map(|r| match &r.artifact {
                Artifact::Figure(fig) if fig.series.iter().any(|s| s.name.ends_with(" sim")) => {
                    Some(AccuracyEntry {
                        figure: r.id.to_string(),
                        max_rel_error: max_relative_error(fig),
                    })
                }
                _ => None,
            })
            .collect();
        accuracy.sort_by(|a, b| a.figure.cmp(&b.figure));
        RecordedRun {
            schema: RUN_SCHEMA.to_string(),
            build: BuildProvenance::current(),
            quick,
            jobs,
            wall_ms,
            experiments: records
                .iter()
                .map(|r| ExperimentRun {
                    id: r.id.to_string(),
                    title: r.title.to_string(),
                    duration_ms: r.duration.as_secs_f64() * 1e3,
                    queue_wait_ms: r.queue_wait.as_secs_f64() * 1e3,
                    worker: r.worker,
                    counters: MetricsReport::from_snapshot(&r.metrics).counters,
                })
                .collect(),
            accuracy,
            metrics: MetricsReport::from_snapshot(totals),
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("record serialization is infallible")
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a wrong
    /// shape, or a schema other than [`RUN_SCHEMA`].
    pub fn from_jsonl(line: &str) -> Result<RecordedRun, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("invalid run record: {e}"))?;
        match value.get_field("schema").and_then(Value::as_str) {
            Some(RUN_SCHEMA) => {
                RecordedRun::from_value(&value).map_err(|e| format!("invalid run record: {e}"))
            }
            Some(other) => Err(format!(
                "unsupported run record schema {other:?} (expected {RUN_SCHEMA:?})"
            )),
            None => Err(format!(
                "run record has no schema field (expected {RUN_SCHEMA:?})"
            )),
        }
    }

    /// The entry for one experiment id, if present.
    pub fn experiment(&self, id: &str) -> Option<&ExperimentRun> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// Registered experiment ids this record does **not** cover — empty
    /// for a full `repro --all` run.
    pub fn missing_experiments(&self) -> Vec<&'static str> {
        EXPERIMENTS
            .iter()
            .map(|e| e.id)
            .filter(|id| self.experiment(id).is_none())
            .collect()
    }

    /// A whole-run counter total; 0 when the run did not record it.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Simulator throughput: `sim.accesses` over the summed `sim.run_ms`,
    /// in accesses per second. `None` when the run simulated nothing.
    /// Machine dependent, so shown but never gated.
    pub fn sim_accesses_per_second(&self) -> Option<f64> {
        let accesses = self.counter(sim_metrics::SIM_ACCESSES);
        let run_ms = self
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == sim_metrics::SIM_RUN_MS)?
            .sum;
        (accesses > 0 && run_ms > 0.0).then(|| accesses as f64 / (run_ms / 1e3))
    }

    /// Worst accuracy error across this record's validation figures.
    pub fn worst_rel_error(&self) -> Option<f64> {
        self.accuracy
            .iter()
            .map(|a| a.max_rel_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }
}

/// Appends one record to the log, creating the file and its parent
/// directory as needed.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn append_record(path: &Path, record: &RecordedRun) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_jsonl())
}

/// Loads the whole log, oldest first. A missing file is an empty
/// history, not an error.
///
/// # Errors
///
/// Returns a line-numbered message for an unreadable file or a record
/// that fails [`RecordedRun::from_jsonl`] — the log is an append-only
/// store this tool owns, so corruption is worth failing loudly over
/// (unlike trace ingestion, which tolerates truncation).
pub fn load_history(path: &Path) -> Result<Vec<RecordedRun>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = RecordedRun::from_jsonl(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

// --- drift detection ----------------------------------------------------

/// One gated quantity's comparison against its trailing median. Every
/// gated quantity is a ceiling: lower is better.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Quantity name (`"solver residual evals"`, ...).
    pub quantity: String,
    /// The newest sample's value.
    pub current: f64,
    /// Trailing median across the earlier samples.
    pub median: f64,
    /// `true` when the value exceeded `median × (1 + tolerance) + ε`.
    pub drifted: bool,
}

/// The full drift verdict for the newest sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftOutcome {
    /// Per-quantity comparisons (empty when nothing was comparable).
    pub rows: Vec<DriftRow>,
    /// Trailing samples the medians were computed over.
    pub compared: usize,
    /// Relative tolerance used.
    pub tolerance: f64,
    /// Why something was not gated.
    pub notes: Vec<String>,
}

impl DriftOutcome {
    /// `true` when no gated quantity drifted — the `repro history`
    /// exit code.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| !r.drifted)
    }

    /// Renders the verdict table. Notes (quantities skipped because
    /// trailing records predate them) always print, so a silent gate
    /// never masquerades as a passing one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        if self.rows.is_empty() {
            out.push_str("drift: SKIPPED (insufficient history)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "drift check vs trailing median of {} run(s), tolerance {:.1}% (ceilings)",
            self.compared,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12}  status",
            "quantity", "current", "median"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>12.4} {:>12.4}  {}",
                row.quantity,
                row.current,
                row.median,
                if row.drifted { "DRIFT" } else { "ok" }
            );
        }
        let drifted = self.rows.iter().filter(|r| r.drifted).count();
        if drifted == 0 {
            out.push_str("drift: OK\n");
        } else {
            let _ = writeln!(out, "drift: FAILED ({drifted} quantity(ies) drifted)");
        }
        out
    }
}

/// The machine-independent quantities of one record, as (name, value)
/// pairs. Accuracy entries are keyed per figure so a drift names the
/// curve that moved.
fn gated_quantities(record: &RecordedRun) -> Vec<(String, f64)> {
    let mut out = vec![
        (
            "solver residual evals".to_string(),
            record.counter(core_metrics::SOLVER_RESIDUAL_EVALS) as f64,
        ),
        (
            "solver solves".to_string(),
            record.counter(core_metrics::SOLVER_SOLVES) as f64,
        ),
    ];
    for entry in &record.accuracy {
        out.push((
            format!("{} max rel error", entry.figure),
            entry.max_rel_error,
        ));
    }
    out
}

/// Compares the newest record against the trailing median of its
/// comparable predecessors.
///
/// Comparable means: same `quick` flag and same experiment count (a
/// `--quick` run and a full run do different work by construction).
/// With fewer than two comparable predecessors every quantity is
/// skipped — the gate trivially passes and says why.
pub fn detect_drift(history: &[RecordedRun], tolerance: f64) -> DriftOutcome {
    let samples: Vec<Vec<(String, f64)>> = match history.last() {
        Some(newest) => history
            .iter()
            .filter(|r| r.quick == newest.quick && r.experiments.len() == newest.experiments.len())
            .map(gated_quantities)
            .collect(),
        None => Vec::new(),
    };
    trailing_median_gate(&samples, "comparable run(s)", tolerance)
}

/// The trailing-median rule behind both gates. The last sample is the
/// newest; each of its quantities is a ceiling against the median of the
/// same quantity over the earlier samples. With fewer than two earlier
/// samples nothing is gated — a median of one would turn one noisy
/// sample into a hard ceiling — and the outcome says why. A quantity
/// that some earlier sample lacks (a figure added since) is skipped
/// with a note, never failed.
fn trailing_median_gate(
    samples: &[Vec<(String, f64)>],
    what: &str,
    tolerance: f64,
) -> DriftOutcome {
    // For near-zero medians (a perfect accuracy figure) the relative
    // band collapses; the absolute epsilon keeps noise from flagging.
    const EPSILON: f64 = 1e-9;
    let mut outcome = DriftOutcome {
        rows: Vec::new(),
        compared: samples.len().saturating_sub(1),
        tolerance,
        notes: Vec::new(),
    };
    let Some((current, trailing)) = samples.split_last().filter(|(_, t)| t.len() >= 2) else {
        outcome.notes.push(format!(
            "insufficient history: {} trailing {what}, but a trailing median needs at \
             least 2 — gating against a single sample would turn one noisy value into \
             a hard ceiling; record more history",
            outcome.compared
        ));
        return outcome;
    };
    for (quantity, value) in current {
        let trailing_values: Vec<f64> = trailing
            .iter()
            .filter_map(|s| s.iter().find(|(name, _)| name == quantity).map(|s| s.1))
            .collect();
        if trailing_values.len() < trailing.len() {
            outcome.notes.push(format!(
                "{quantity}: SKIPPED ({} of {} trailing {what} predate it; record more history)",
                trailing.len() - trailing_values.len(),
                trailing.len()
            ));
            continue;
        }
        let Some(median) = median(&trailing_values) else {
            continue;
        };
        outcome.rows.push(DriftRow {
            quantity: quantity.clone(),
            current: *value,
            median,
            drifted: *value > median * (1.0 + tolerance) + EPSILON,
        });
    }
    outcome
}

// --- loadgen steady-state p99 trending ----------------------------------

/// Steady-state p99 extracted from one `swcc-loadgen` report, or the
/// printable reason there is none.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadgenP99 {
    /// A `swcc-loadgen/v2` report with a timeline-derived steady-state
    /// p99, in microseconds.
    Present(f64),
    /// A genuine loadgen report without the quantity — a v1 report, or
    /// a v2 run without `--timeline`. The string says which.
    Absent(String),
}

/// Reads the steady-state p99 out of one loadgen report.
///
/// # Errors
///
/// Returns a message for malformed JSON or a file that is not a
/// loadgen report at all. A report that merely lacks the quantity is
/// `Ok(Absent(reason))`, not an error — `repro history` skips it with
/// one printed line instead of failing.
pub fn loadgen_steady_p99(json: &str) -> Result<LoadgenP99, String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| format!("invalid loadgen report: {e}"))?;
    let schema = value
        .get_field("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| "loadgen report has no schema field".to_string())?;
    if !schema.starts_with("swcc-loadgen/") {
        return Err(format!("not a loadgen report (schema {schema:?})"));
    }
    if schema != "swcc-loadgen/v2" {
        return Ok(LoadgenP99::Absent(format!(
            "schema {schema} predates steady-state p99 (needs swcc-loadgen/v2)"
        )));
    }
    match value
        .get_field("steady_state")
        .and_then(|s| s.get_field("p99_us"))
        .and_then(Value::as_f64)
    {
        Some(v) if v.is_finite() && v > 0.0 => Ok(LoadgenP99::Present(v)),
        _ => Ok(LoadgenP99::Absent(
            "no steady-state p99 (run without --timeline, or no post-warmup windows)".to_string(),
        )),
    }
}

/// Gates the newest loadgen steady-state p99 (the last value) against
/// the trailing median of its predecessors, under the same rule as
/// [`detect_drift`].
pub fn loadgen_p99_drift(values: &[f64], tolerance: f64) -> DriftOutcome {
    let samples: Vec<Vec<(String, f64)>> = values
        .iter()
        .map(|&v| vec![("loadgen steady p99 (us)".to_string(), v)])
        .collect();
    trailing_median_gate(&samples, "loadgen report(s)", tolerance)
}

/// Renders the `repro history` trend table over the last `last`
/// records (0 = all).
pub fn render_history(records: &[RecordedRun], last: usize) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("history is empty (run `repro all --record PATH` first)\n");
        return out;
    }
    let shown = if last == 0 || last >= records.len() {
        records
    } else {
        &records[records.len() - last..]
    };
    let _ = writeln!(
        out,
        "run history: showing {} of {} record(s)",
        shown.len(),
        records.len()
    );
    let _ = writeln!(
        out,
        "  {:<4} {:<10} {:<5} {:>4} {:>10} {:>8} {:>13} {:>11} {:>11}",
        "#",
        "commit",
        "quick",
        "exps",
        "wall ms",
        "solves",
        "resid evals",
        "sim acc/s",
        "worst err"
    );
    let offset = records.len() - shown.len();
    for (i, r) in shown.iter().enumerate() {
        let commit: String = r.build.git_commit.chars().take(10).collect();
        let worst = r
            .worst_rel_error()
            .map(|e| format!("{:.2}%", e * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let sim_rate = r
            .sim_accesses_per_second()
            .map(|s| format!("{s:.2e}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "  {:<4} {:<10} {:<5} {:>4} {:>10.1} {:>8} {:>13} {:>11} {:>11}",
            offset + i + 1,
            commit,
            r.quick,
            r.experiments.len(),
            r.wall_ms,
            r.counter(core_metrics::SOLVER_SOLVES),
            r.counter(core_metrics::SOLVER_RESIDUAL_EVALS),
            sim_rate,
            worst
        );
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use std::num::NonZeroUsize;

    use super::*;
    use crate::registry::{find, RunOptions};
    use crate::runner::run_selected_observed;

    /// A hand-built record of 20 experiments: 1000 solves, `evals`
    /// residual evaluations, a fig1 error of `err`, and 55,000 simulated
    /// accesses in 11 ms. Shared with the dashboard tests.
    pub(crate) fn record(quick: bool, evals: u64, err: f64) -> RecordedRun {
        let counter = |name: &str, value| MetricCounter {
            name: name.to_string(),
            value,
        };
        let experiment = ExperimentRun {
            id: "fig1".to_string(),
            title: "Figure 1".to_string(),
            duration_ms: 5.0,
            queue_wait_ms: 0.0,
            worker: 0,
            counters: Vec::new(),
        };
        RecordedRun {
            schema: RUN_SCHEMA.to_string(),
            build: BuildProvenance::current(),
            quick,
            jobs: 1,
            wall_ms: 100.0,
            experiments: vec![experiment; 20],
            accuracy: vec![AccuracyEntry {
                figure: "fig1".to_string(),
                max_rel_error: err,
            }],
            metrics: MetricsReport {
                counters: vec![
                    counter(core_metrics::SOLVER_RESIDUAL_EVALS, evals),
                    counter(core_metrics::SOLVER_SOLVES, 1000),
                    counter(sim_metrics::SIM_ACCESSES, 55_000),
                ],
                gauges: Vec::new(),
                histograms: vec![MetricHistogram {
                    name: sim_metrics::SIM_RUN_MS.to_string(),
                    count: 4,
                    sum: 11.0,
                    mean: 2.75,
                }],
            },
        }
    }

    /// The record of a real observed `table1 fig11` run.
    fn sample_run() -> RecordedRun {
        let batch = vec![find("table1").unwrap(), find("fig11").unwrap()];
        let records = run_selected_observed(
            &batch,
            &RunOptions::quick(),
            NonZeroUsize::new(1).unwrap(),
            true,
        );
        RecordedRun::from_run(true, 1, &records, 12.5, &MetricsSnapshot::default())
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = record(true, 9000, 0.12);
        let line = r.to_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(RecordedRun::from_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn real_run_round_trips_through_jsonl() {
        let r = sample_run();
        assert_eq!(RecordedRun::from_jsonl(&r.to_jsonl()).unwrap(), r);
    }

    #[test]
    fn captures_per_experiment_solver_counters() {
        let run = sample_run();
        let fig11 = run.experiment("fig11").unwrap();
        let evals = fig11
            .counters
            .iter()
            .find(|c| c.name == core_metrics::SOLVER_RESIDUAL_EVALS)
            .map(|c| c.value);
        assert!(evals.unwrap_or(0) > 0, "fig11 must report solver work");
        let table1 = run.experiment("table1").unwrap();
        assert!(table1.counters.is_empty(), "a static table does no solves");
        assert!(run.accuracy.is_empty(), "neither is a validation figure");
    }

    #[test]
    fn new_records_carry_build_provenance() {
        let run = sample_run();
        assert_eq!(run.schema, RUN_SCHEMA);
        for field in [
            &run.build.git_commit,
            &run.build.rustc,
            &run.build.cargo,
            &run.build.profile,
        ] {
            assert!(!field.is_empty(), "provenance fields are never empty");
        }
        // The test binary is always built by cargo, so at least the
        // profile must have resolved to a real value.
        assert_ne!(run.build.profile, "unknown");
    }

    #[test]
    fn missing_experiments_flags_partial_runs() {
        let missing = sample_run().missing_experiments();
        assert!(missing.contains(&"fig5"), "fig5 was not in the batch");
        assert!(!missing.contains(&"fig11"));
        assert_eq!(missing.len(), EXPERIMENTS.len() - 2);
    }

    #[test]
    fn rejects_foreign_schema_and_garbage() {
        let mut r = record(true, 9000, 0.12);
        r.schema = "swcc-run/v0".to_string();
        let err = RecordedRun::from_jsonl(&r.to_jsonl()).unwrap_err();
        assert!(err.contains("unsupported run record schema"), "{err}");
        assert!(RecordedRun::from_jsonl("not json").is_err());
        assert!(RecordedRun::from_jsonl("{}").is_err());
        // The right schema on the wrong shape is still an error.
        assert!(RecordedRun::from_jsonl(r#"{"schema":"swcc-run/v1"}"#).is_err());
    }

    #[test]
    fn rejects_retired_schemas_by_name() {
        let line = sample_run().to_jsonl();
        for retired in ["swcc-run-manifest/v2", "swcc-run-history/v1"] {
            let err = RecordedRun::from_jsonl(&line.replace(RUN_SCHEMA, retired)).unwrap_err();
            assert!(err.contains("unsupported run record schema"), "{err}");
            assert!(
                err.contains(RUN_SCHEMA),
                "the error names the schema: {err}"
            );
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(RecordedRun::from_jsonl("{").is_err());
        assert!(RecordedRun::from_jsonl("[1, 2]").is_err());
    }

    #[test]
    fn sim_throughput_reads_the_metric_totals() {
        let r = record(true, 9000, 0.12);
        assert_eq!(r.sim_accesses_per_second(), Some(55_000.0 / 0.011));
        let mut idle = r;
        idle.metrics.histograms.clear();
        assert_eq!(idle.sim_accesses_per_second(), None);
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "swcc-history-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested").join("runs.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(load_history(&path).unwrap(), Vec::new(), "missing = empty");
        let a = record(true, 9000, 0.12);
        let b = record(false, 9100, 0.11);
        append_record(&path, &a).unwrap();
        append_record(&path, &b).unwrap();
        assert_eq!(load_history(&path).unwrap(), vec![a, b]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_fails_loudly_on_corrupt_log() {
        let dir = std::env::temp_dir().join(format!(
            "swcc-history-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        std::fs::write(&path, "garbage\n").unwrap();
        let err = load_history(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_needs_two_comparable_predecessors() {
        // No records, one record, two records: each skips with an
        // explicit "insufficient history" note and a passing verdict —
        // a median over a single predecessor would turn one noisy
        // sample into a hard gate.
        let outcome = detect_drift(&[], DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.passed());
        assert!(
            outcome.render().contains("insufficient history"),
            "{}",
            outcome.render()
        );
        for history in [
            vec![record(true, 9000, 0.12)],
            vec![record(true, 9000, 0.12), record(true, 9000, 0.12)],
        ] {
            let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
            assert!(outcome.passed());
            assert!(outcome.rows.is_empty());
            let rendered = outcome.render();
            assert!(rendered.contains("SKIPPED"), "{rendered}");
            assert!(rendered.contains("insufficient history"), "{rendered}");
        }
    }

    #[test]
    fn quick_and_full_runs_never_compare() {
        // Two full-run predecessors, but the newest is --quick.
        let history = [
            record(false, 9000, 0.12),
            record(false, 9000, 0.12),
            record(true, 90000, 0.9),
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.rows.is_empty(), "nothing comparable");
        assert!(outcome.passed());
    }

    #[test]
    fn steady_history_passes() {
        let history = [
            record(true, 9000, 0.120),
            record(true, 9010, 0.119),
            record(true, 8990, 0.121),
            record(true, 9005, 0.120),
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert_eq!(outcome.compared, 3);
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome.render().contains("drift: OK"));
    }

    #[test]
    fn quantities_the_trailing_runs_lack_skip_with_a_note() {
        // The newest run records a figure its predecessors never had:
        // that figure has no trailing median, so it is skipped with an
        // explicit printed line, and everything else is still gated.
        let mut newest = record(true, 9000, 0.12);
        newest.accuracy.push(AccuracyEntry {
            figure: "fig2".to_string(),
            max_rel_error: 0.5,
        });
        let history = [record(true, 9000, 0.12), record(true, 9000, 0.12), newest];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(!outcome.rows.iter().any(|r| r.quantity.starts_with("fig2")));
        assert!(outcome
            .rows
            .iter()
            .any(|r| r.quantity == "fig1 max rel error"));
        let rendered = outcome.render();
        assert!(
            rendered.contains("fig2 max rel error: SKIPPED (2 of 2"),
            "{rendered}"
        );
        assert!(rendered.contains("predate it"), "{rendered}");
    }

    #[test]
    fn drifted_accuracy_and_counts_fail_the_gate() {
        let worse_accuracy = [
            record(true, 9000, 0.120),
            record(true, 9000, 0.120),
            record(true, 9000, 0.200), // accuracy envelope blew up
        ];
        assert!(!detect_drift(&worse_accuracy, DEFAULT_DRIFT_TOLERANCE).passed());
        let more_evals = [
            record(true, 9000, 0.12),
            record(true, 9000, 0.12),
            record(true, 20000, 0.12), // solver doing far more work
        ];
        let outcome = detect_drift(&more_evals, DEFAULT_DRIFT_TOLERANCE);
        assert!(!outcome.passed());
        let row = outcome
            .rows
            .iter()
            .find(|r| r.quantity == "solver residual evals")
            .unwrap();
        assert!(row.drifted);
        assert!(outcome.render().contains("drift: FAILED"));
    }

    #[test]
    fn improvements_pass_every_gate() {
        let history = [
            record(true, 9000, 0.12),
            record(true, 9000, 0.12),
            record(true, 5000, 0.05), // strictly better everywhere
        ];
        assert!(detect_drift(&history, DEFAULT_DRIFT_TOLERANCE).passed());
    }

    #[test]
    fn loadgen_p99_extraction_distinguishes_present_absent_and_garbage() {
        let v2 = r#"{"schema":"swcc-loadgen/v2","steady_state":{"windows":3,"p99_us":812.5}}"#;
        assert_eq!(loadgen_steady_p99(v2).unwrap(), LoadgenP99::Present(812.5));
        // v2 without --timeline: the field is null, not missing.
        let no_timeline =
            r#"{"schema":"swcc-loadgen/v2","steady_state":{"windows":0,"p99_us":null}}"#;
        assert!(matches!(
            loadgen_steady_p99(no_timeline).unwrap(),
            LoadgenP99::Absent(_)
        ));
        // v1 predates the quantity entirely.
        let v1 = r#"{"schema":"swcc-loadgen/v1","latency_us":{"p99":900}}"#;
        match loadgen_steady_p99(v1).unwrap() {
            LoadgenP99::Absent(reason) => assert!(reason.contains("v2"), "{reason}"),
            other => panic!("expected Absent, got {other:?}"),
        }
        // Not a loadgen report / not JSON: hard errors.
        assert!(loadgen_steady_p99(r#"{"schema":"swcc-run/v1"}"#).is_err());
        assert!(loadgen_steady_p99("{}").is_err());
        assert!(loadgen_steady_p99("garbage").is_err());
    }

    #[test]
    fn loadgen_p99_gate_mirrors_the_drift_shape() {
        // Too little history: explicit skip, passing.
        for values in [&[][..], &[800.0][..], &[800.0, 810.0][..]] {
            let outcome = loadgen_p99_drift(values, DEFAULT_DRIFT_TOLERANCE);
            assert!(outcome.passed());
            assert!(outcome.rows.is_empty());
            assert!(
                outcome.render().contains("insufficient history"),
                "{}",
                outcome.render()
            );
        }
        // Steady: passes against the trailing median.
        let outcome = loadgen_p99_drift(&[800.0, 820.0, 810.0, 815.0], DEFAULT_DRIFT_TOLERANCE);
        assert_eq!(outcome.compared, 3);
        assert!(outcome.passed(), "{}", outcome.render());
        // Regression: newest p99 blows through the ceiling.
        let outcome = loadgen_p99_drift(&[800.0, 820.0, 810.0, 1200.0], DEFAULT_DRIFT_TOLERANCE);
        assert!(!outcome.passed());
        assert!(outcome.render().contains("loadgen steady p99"));
        // Improvement: a faster p99 never fails a ceiling.
        let outcome = loadgen_p99_drift(&[800.0, 820.0, 810.0, 400.0], DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.passed());
    }

    #[test]
    fn trend_table_renders_and_truncates() {
        let records = vec![
            record(true, 9000, 0.12),
            record(true, 9100, 0.11),
            record(true, 9200, 0.10),
        ];
        let all = render_history(&records, 0);
        assert!(all.contains("showing 3 of 3"));
        assert!(all.contains("sim acc/s"), "{all}");
        assert!(all.contains("5.00e6"), "{all}");
        let last = render_history(&records, 2);
        assert!(last.contains("showing 2 of 3"));
        assert!(last.lines().any(|l| l.trim_start().starts_with("2 ")));
        assert!(render_history(&records, 9).contains("showing 3 of 3"));
        assert!(render_history(&[], 5).contains("history is empty"));
    }
}
