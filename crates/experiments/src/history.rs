//! The append-only run-history store behind `repro all
//! --record-history` and the `repro history` drift gate.
//!
//! Bench baselines (`swcc-bench --compare`) catch regressions against
//! a *committed* reference file, but need someone to have committed
//! one. History is the complement: every recorded run appends one
//! line to `history/runs.jsonl` (schema [`HISTORY_SCHEMA`]), and
//! `repro history` compares the newest record against the **trailing
//! median** of its comparable predecessors — regression detection
//! that works with no baseline at all and gets stronger as the log
//! grows.
//!
//! Only machine-independent quantities are gated, so a laptop and a
//! CI runner can share a log:
//!
//! * **warm-start iteration speedup** (higher is better; floor) —
//!   the residual-evaluation ratio of cold versus warm Patel sweeps,
//!   deterministic for a given solver.
//! * **solver work counts** (lower is better; ceiling) — residual
//!   evaluations and solves across the whole run.
//! * **per-figure accuracy errors** (lower is better; ceiling) — the
//!   model-vs-simulation envelope of each validation figure.
//! * **batch reference iterations** (lower is better; ceiling) — the
//!   residual evaluations of a fixed 256-lane batch solve,
//!   deterministic for a given batch engine.
//! * **sim reference makespan** (lower is better; ceiling) — the final
//!   cycle count of a fixed reference trace replay, deterministic for
//!   a given simulator.
//!
//! Wall-clock time, batch throughput (lanes per second), and sim
//! throughput (accesses per second) are recorded for the trend table
//! but never gated.
//! Records from `--quick` runs and full runs are never compared with
//! each other (the workload differs by construction), and a record is
//! only comparable when it covers the same number of experiments.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use swcc_core::batch::BatchPatelSolver;
use swcc_core::metrics as core_metrics;
use swcc_core::network::WarmSolver;
use swcc_obs::quantile::median;
use swcc_obs::MetricsSnapshot;

use crate::artifact::Artifact;
use crate::manifest::{BuildProvenance, MetricsReport};
use crate::runner::RunRecord;
use crate::validation::max_relative_error;

/// Schema identifier written into every history record.
pub const HISTORY_SCHEMA: &str = "swcc-run-history/v1";

/// Default relative drift tolerance (5%).
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.05;

/// Default path of the history log, relative to the working directory.
pub const DEFAULT_HISTORY_PATH: &str = "history/runs.jsonl";

/// Model-vs-simulation accuracy of one validation figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyEntry {
    /// Experiment id (`"fig1"`, ...).
    pub figure: String,
    /// Worst `|model − sim| / sim` across the figure's curves.
    pub max_rel_error: f64,
}

/// Whole-run solver work counters (machine-independent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Guarded-Newton solves completed.
    pub solves: u64,
    /// Residual evaluations across all solves.
    pub residual_evals: u64,
    /// Solves that reused a warm-start hint.
    pub warm_reuses: u64,
    /// Newton steps that fell back to the bisection midpoint.
    pub bracket_fallbacks: u64,
}

/// The cold-versus-warm Patel iteration comparison, recomputed at
/// record time (cheap: iteration counts only, no timing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartStats {
    /// Residual evaluations of the cold (reset-per-solve) sweep.
    pub cold_iterations: u64,
    /// Residual evaluations of the warm-started sweep.
    pub warm_iterations: u64,
    /// `cold / warm` — the machine-independent speedup the sweep
    /// engine's warm starting buys.
    pub iteration_speedup: f64,
}

impl WarmStartStats {
    /// Recomputes the cold/warm iteration sweep (the same 50-solve
    /// rate sweep `swcc-bench` times, minus the timing).
    pub fn measure() -> WarmStartStats {
        const SOLVES: u32 = 50;
        const STAGES: u32 = 8;
        fn sweep(solver: &mut WarmSolver, reset: bool) -> u64 {
            let mut iterations = 0u64;
            for i in 1..=SOLVES {
                if reset {
                    solver.reset();
                }
                let _ = solver
                    .solve(f64::from(i) * 0.002, 20.0, STAGES)
                    .expect("bench sweep rates are solvable");
                iterations += u64::from(solver.last_iterations());
            }
            iterations
        }
        let mut solver = WarmSolver::new();
        let cold_iterations = sweep(&mut solver, true);
        solver.reset();
        let warm_iterations = sweep(&mut solver, false);
        WarmStartStats {
            cold_iterations,
            warm_iterations,
            iteration_speedup: cold_iterations as f64 / warm_iterations.max(1) as f64,
        }
    }
}

/// Batch-engine statistics: the run's whole-run lane counters plus a
/// fixed reference grid re-solved at record time (mirroring how
/// [`WarmStartStats`] re-runs the bench rate sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Batched Patel solves the recorded run issued.
    pub batches: u64,
    /// Lanes across those batches.
    pub lanes: u64,
    /// Residual evaluations of the fixed 256-lane reference grid —
    /// deterministic for a given solver, so it is gated as a ceiling
    /// like the scalar iteration counts.
    pub reference_iterations: u64,
    /// Reference-grid throughput in lanes per second. Machine
    /// dependent: shown in the trend table, never gated.
    pub lanes_per_second: f64,
}

impl BatchStats {
    /// Lanes in the reference grid.
    pub const REFERENCE_LANES: usize = 256;

    /// Re-solves the fixed reference grid (the bench batch section's
    /// demand range at a smaller width) and pairs it with the run's
    /// batch counters.
    pub fn measure(batches: u64, lanes: u64) -> BatchStats {
        const STAGES: u32 = 8;
        const REPS: usize = 8;
        let rates: Vec<f64> = (1..=Self::REFERENCE_LANES)
            .map(|i| i as f64 * 4.0e-4)
            .collect();
        let sizes = vec![20.0; Self::REFERENCE_LANES];
        let solver = BatchPatelSolver::new();
        let start = Instant::now();
        let mut reference_iterations = 0;
        for _ in 0..REPS {
            let solution = solver
                .solve(&rates, &sizes, STAGES)
                .expect("reference grid is solvable");
            reference_iterations = solution.total_iterations();
        }
        let elapsed = start.elapsed().as_secs_f64();
        BatchStats {
            batches,
            lanes,
            reference_iterations,
            lanes_per_second: (Self::REFERENCE_LANES * REPS) as f64 / elapsed.max(1e-12),
        }
    }
}

/// Simulator statistics: a fixed reference trace replay re-run at
/// record time (the same re-measure-at-record-time shape as
/// [`WarmStartStats`] and [`BatchStats`]), so sim wall-clock and
/// throughput trend alongside the solver quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Trace records the reference replay processed.
    pub reference_accesses: u64,
    /// Final makespan (cycles) of the reference replay —
    /// deterministic for a given simulator, so it is gated as a
    /// ceiling like the solver iteration counts.
    pub reference_makespan: u64,
    /// Reference-replay throughput in accesses per second. Machine
    /// dependent: shown in the trend table, never gated.
    pub accesses_per_second: f64,
    /// Reference-replay wall-clock milliseconds (trend only).
    pub wall_ms: f64,
}

impl SimStats {
    /// Replays the fixed reference trace (Dragon, 4 processors) and
    /// measures throughput.
    pub fn measure() -> SimStats {
        use swcc_sim::{simulate, ProtocolKind, SimConfig};
        let trace = swcc_trace::synth::pops_like(4, 10_000, 0xA7).generate();
        let config = SimConfig::new(ProtocolKind::Dragon);
        let start = Instant::now();
        let report = simulate(&trace, &config);
        let elapsed = start.elapsed().as_secs_f64();
        SimStats {
            reference_accesses: trace.len() as u64,
            reference_makespan: report.makespan(),
            accesses_per_second: trace.len() as f64 / elapsed.max(1e-12),
            wall_ms: elapsed * 1e3,
        }
    }
}

/// One recorded run: a single line of `history/runs.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Always [`HISTORY_SCHEMA`].
    pub schema: String,
    /// Build provenance of the recording binary.
    pub build: BuildProvenance,
    /// Whether the run used the `--quick` profile.
    pub quick: bool,
    /// Worker threads the runner was given.
    pub jobs: usize,
    /// Experiments the run covered.
    pub experiments: usize,
    /// Whole-batch wall-clock milliseconds (trend only, never gated).
    pub wall_ms: f64,
    /// Per-validation-figure accuracy, sorted by figure id.
    pub accuracy: Vec<AccuracyEntry>,
    /// Whole-run solver counters.
    pub solver: SolverStats,
    /// Cold-versus-warm iteration comparison.
    pub warm_start: WarmStartStats,
    /// Batch-engine counters and reference-grid measurement. `None`
    /// only for records written before the batch engine existed.
    pub batch: Option<BatchStats>,
    /// Simulator reference-replay measurement. `None` only for records
    /// written before sim telemetry existed.
    pub sim: Option<SimStats>,
}

impl HistoryRecord {
    /// Builds a record from a finished observed run.
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
    ) -> HistoryRecord {
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

        let report = MetricsReport::from_snapshot(totals);
        let counter = |name: &str| report.counter(name).unwrap_or(0);
        HistoryRecord {
            schema: HISTORY_SCHEMA.to_string(),
            build: BuildProvenance::current(),
            quick,
            jobs,
            experiments: records.len(),
            wall_ms,
            accuracy,
            solver: SolverStats {
                solves: counter(core_metrics::SOLVER_SOLVES),
                residual_evals: counter(core_metrics::SOLVER_RESIDUAL_EVALS),
                warm_reuses: counter(core_metrics::SOLVER_WARM_REUSES),
                bracket_fallbacks: counter(core_metrics::SOLVER_BRACKET_FALLBACKS),
            },
            warm_start: WarmStartStats::measure(),
            batch: Some(BatchStats::measure(
                counter(core_metrics::BATCH_PATEL_BATCHES),
                counter(core_metrics::BATCH_PATEL_LANES),
            )),
            sim: Some(SimStats::measure()),
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("history serialization is infallible")
    }

    /// Parses one JSONL line, rejecting unknown schema revisions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a wrong
    /// shape, or a schema other than [`HISTORY_SCHEMA`].
    pub fn from_jsonl(line: &str) -> Result<HistoryRecord, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("invalid history record: {e}"))?;
        let schema = value
            .get_field("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "history record has no schema field".to_string())?;
        if schema != HISTORY_SCHEMA {
            return Err(format!(
                "unsupported history schema {schema:?} (expected {HISTORY_SCHEMA:?})"
            ));
        }
        if value.get_field("batch").is_none() {
            // Pre-batch-engine record: the vendored serde has no
            // `#[serde(default)]`, so read it through the mirror and
            // upgrade explicitly (same pattern as `RunManifestV1`).
            let early: HistoryRecordPreBatch =
                serde_json::from_str(line).map_err(|e| format!("invalid history record: {e}"))?;
            return Ok(early.upgrade());
        }
        if value.get_field("sim").is_none() {
            // Pre-sim-telemetry record: same mirror-and-upgrade dance.
            let early: HistoryRecordPreSim =
                serde_json::from_str(line).map_err(|e| format!("invalid history record: {e}"))?;
            return Ok(early.upgrade());
        }
        serde_json::from_str(line).map_err(|e| format!("invalid history record: {e}"))
    }

    /// Worst accuracy error across this record's validation figures.
    pub fn worst_rel_error(&self) -> Option<f64> {
        self.accuracy
            .iter()
            .map(|a| a.max_rel_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }
}

/// The record shape written before the batch engine existed —
/// identical to [`HistoryRecord`] minus the `batch` section. Old logs
/// are read through this mirror and upgraded explicitly.
#[derive(Debug, Clone, Deserialize)]
struct HistoryRecordPreBatch {
    schema: String,
    build: BuildProvenance,
    quick: bool,
    jobs: usize,
    experiments: usize,
    wall_ms: f64,
    accuracy: Vec<AccuracyEntry>,
    solver: SolverStats,
    warm_start: WarmStartStats,
}

impl HistoryRecordPreBatch {
    fn upgrade(self) -> HistoryRecord {
        HistoryRecord {
            schema: self.schema,
            build: self.build,
            quick: self.quick,
            jobs: self.jobs,
            experiments: self.experiments,
            wall_ms: self.wall_ms,
            accuracy: self.accuracy,
            solver: self.solver,
            warm_start: self.warm_start,
            batch: None,
            sim: None,
        }
    }
}

/// The record shape written after the batch engine but before sim
/// telemetry: [`HistoryRecord`] minus the `sim` section.
#[derive(Debug, Clone, Deserialize)]
struct HistoryRecordPreSim {
    schema: String,
    build: BuildProvenance,
    quick: bool,
    jobs: usize,
    experiments: usize,
    wall_ms: f64,
    accuracy: Vec<AccuracyEntry>,
    solver: SolverStats,
    warm_start: WarmStartStats,
    batch: Option<BatchStats>,
}

impl HistoryRecordPreSim {
    fn upgrade(self) -> HistoryRecord {
        HistoryRecord {
            schema: self.schema,
            build: self.build,
            quick: self.quick,
            jobs: self.jobs,
            experiments: self.experiments,
            wall_ms: self.wall_ms,
            accuracy: self.accuracy,
            solver: self.solver,
            warm_start: self.warm_start,
            batch: self.batch,
            sim: None,
        }
    }
}

/// Appends one record to the history log, creating the file and its
/// parent directory as needed.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn append_record(path: &Path, record: &HistoryRecord) -> std::io::Result<()> {
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

/// Loads the whole history log, oldest first. A missing file is an
/// empty history, not an error.
///
/// # Errors
///
/// Returns a line-numbered message for an unreadable file or a record
/// that fails [`HistoryRecord::from_jsonl`] — the log is an
/// append-only store this tool owns, so corruption is worth failing
/// loudly over (unlike trace ingestion, which tolerates truncation).
pub fn load_history(path: &Path) -> Result<Vec<HistoryRecord>, String> {
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
        let record = HistoryRecord::from_jsonl(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

// --- drift detection ----------------------------------------------------

/// Which direction a quantity may safely move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// Higher is better: drift when current < median × (1 − tol).
    Floor,
    /// Lower is better: drift when current > median × (1 + tol) + ε.
    Ceiling,
}

/// One gated quantity's comparison against its trailing median.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Quantity name (`"warm iteration speedup"`, ...).
    pub quantity: String,
    /// The newest record's value.
    pub current: f64,
    /// Trailing median across comparable predecessors.
    pub median: f64,
    /// Gate direction.
    pub direction: DriftDirection,
    /// `true` when the value breached its bound.
    pub drifted: bool,
}

/// The full drift verdict for the newest record.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftOutcome {
    /// Per-quantity comparisons (empty when nothing was comparable).
    pub rows: Vec<DriftRow>,
    /// Comparable trailing records the medians were computed over.
    pub compared: usize,
    /// Relative tolerance used.
    pub tolerance: f64,
    /// Why nothing was gated, when `rows` is empty.
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
            "drift check vs trailing median of {} run(s), tolerance {:.1}%",
            self.compared,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>8}  status",
            "quantity", "current", "median", "bound"
        );
        for row in &self.rows {
            let bound = match row.direction {
                DriftDirection::Floor => "floor",
                DriftDirection::Ceiling => "ceil",
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>12.4} {:>12.4} {:>8}  {}",
                row.quantity,
                row.current,
                row.median,
                bound,
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

/// The machine-independent quantities of one record, as (name,
/// direction, value) rows. Accuracy entries are keyed per figure so a
/// drift names the curve that moved.
fn gated_quantities(record: &HistoryRecord) -> Vec<(String, DriftDirection, f64)> {
    let mut out = vec![
        (
            "warm iteration speedup".to_string(),
            DriftDirection::Floor,
            record.warm_start.iteration_speedup,
        ),
        (
            "warm sweep iterations".to_string(),
            DriftDirection::Ceiling,
            record.warm_start.warm_iterations as f64,
        ),
        (
            "solver residual evals".to_string(),
            DriftDirection::Ceiling,
            record.solver.residual_evals as f64,
        ),
        (
            "solver solves".to_string(),
            DriftDirection::Ceiling,
            record.solver.solves as f64,
        ),
    ];
    if let Some(batch) = &record.batch {
        out.push((
            "batch reference iterations".to_string(),
            DriftDirection::Ceiling,
            batch.reference_iterations as f64,
        ));
    }
    if let Some(sim) = &record.sim {
        out.push((
            "sim reference makespan".to_string(),
            DriftDirection::Ceiling,
            sim.reference_makespan as f64,
        ));
    }
    for entry in &record.accuracy {
        out.push((
            format!("{} max rel error", entry.figure),
            DriftDirection::Ceiling,
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
pub fn detect_drift(history: &[HistoryRecord], tolerance: f64) -> DriftOutcome {
    let Some((current, trailing)) = history.split_last() else {
        return DriftOutcome {
            rows: Vec::new(),
            compared: 0,
            tolerance,
            notes: vec!["insufficient history: no records yet".to_string()],
        };
    };
    let comparable: Vec<&HistoryRecord> = trailing
        .iter()
        .filter(|r| r.quick == current.quick && r.experiments == current.experiments)
        .collect();
    if comparable.len() < 2 {
        return DriftOutcome {
            rows: Vec::new(),
            compared: comparable.len(),
            tolerance,
            notes: vec![format!(
                "insufficient history: {} comparable trailing run(s), but a trailing \
                 median needs at least 2 — gating against a single run would turn \
                 one noisy sample into a hard floor; record more history",
                comparable.len()
            )],
        };
    }

    // For near-zero medians (a perfect accuracy figure) the relative
    // band collapses; the absolute epsilon keeps noise from flagging.
    const EPSILON: f64 = 1e-9;
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (quantity, direction, current_value) in gated_quantities(current) {
        let trailing_values: Vec<f64> = comparable
            .iter()
            .filter_map(|r| {
                gated_quantities(r)
                    .into_iter()
                    .find(|(name, _, _)| *name == quantity)
                    .map(|(_, _, v)| v)
            })
            .collect();
        // A quantity must exist in every comparable record (a figure
        // added this run has no trailing median yet). Say so explicitly
        // rather than failing — old logs predate new quantities.
        if trailing_values.len() < comparable.len() {
            notes.push(format!(
                "{quantity}: SKIPPED ({} of {} comparable run(s) predate it; \
                 record more history)",
                comparable.len() - trailing_values.len(),
                comparable.len()
            ));
            continue;
        }
        let Some(trailing_median) = median(&trailing_values) else {
            continue;
        };
        let drifted = match direction {
            DriftDirection::Floor => current_value < trailing_median * (1.0 - tolerance) - EPSILON,
            DriftDirection::Ceiling => {
                current_value > trailing_median * (1.0 + tolerance) + EPSILON
            }
        };
        rows.push(DriftRow {
            quantity,
            current: current_value,
            median: trailing_median,
            direction,
            drifted,
        });
    }
    DriftOutcome {
        rows,
        compared: comparable.len(),
        tolerance,
        notes,
    }
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

/// Gates the newest loadgen steady-state p99 against the trailing
/// median of its predecessors — the same trailing-median ceiling shape
/// as [`detect_drift`], including the two-predecessor minimum and the
/// explicit insufficient-history skip.
pub fn loadgen_p99_drift(values: &[f64], tolerance: f64) -> DriftOutcome {
    let Some((current, trailing)) = values.split_last() else {
        return DriftOutcome {
            rows: Vec::new(),
            compared: 0,
            tolerance,
            notes: vec!["insufficient history: no loadgen steady-state p99 values".to_string()],
        };
    };
    if trailing.len() < 2 {
        return DriftOutcome {
            rows: Vec::new(),
            compared: trailing.len(),
            tolerance,
            notes: vec![format!(
                "insufficient history: {} trailing loadgen report(s), but a trailing \
                 median needs at least 2 — record more timeline runs",
                trailing.len()
            )],
        };
    }
    let Some(trailing_median) = median(trailing) else {
        return DriftOutcome {
            rows: Vec::new(),
            compared: trailing.len(),
            tolerance,
            notes: vec!["insufficient history: trailing p99s have no median".to_string()],
        };
    };
    const EPSILON: f64 = 1e-9;
    DriftOutcome {
        rows: vec![DriftRow {
            quantity: "loadgen steady p99 (us)".to_string(),
            current: *current,
            median: trailing_median,
            direction: DriftDirection::Ceiling,
            drifted: *current > trailing_median * (1.0 + tolerance) + EPSILON,
        }],
        compared: trailing.len(),
        tolerance,
        notes: Vec::new(),
    }
}

/// Renders the `repro history` trend table over the last `last`
/// records (0 = all).
pub fn render_history(records: &[HistoryRecord], last: usize) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("history is empty (run `repro all --record-history` first)\n");
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
        "  {:<4} {:<10} {:<5} {:>4} {:>10} {:>9} {:>13} {:>12} {:>11} {:>11}",
        "#",
        "commit",
        "quick",
        "exps",
        "wall ms",
        "speedup",
        "resid evals",
        "batch l/s",
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
        let batch_rate = r
            .batch
            .as_ref()
            .map(|b| format!("{:.2e}", b.lanes_per_second))
            .unwrap_or_else(|| "-".to_string());
        let sim_rate = r
            .sim
            .as_ref()
            .map(|s| format!("{:.2e}", s.accesses_per_second))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "  {:<4} {:<10} {:<5} {:>4} {:>10.1} {:>9.2} {:>13} {:>12} {:>11} {:>11}",
            offset + i + 1,
            commit,
            r.quick,
            r.experiments,
            r.wall_ms,
            r.warm_start.iteration_speedup,
            r.solver.residual_evals,
            batch_rate,
            sim_rate,
            worst
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(quick: bool, speedup: f64, evals: u64, err: f64) -> HistoryRecord {
        HistoryRecord {
            schema: HISTORY_SCHEMA.to_string(),
            build: BuildProvenance::current(),
            quick,
            jobs: 1,
            experiments: 20,
            wall_ms: 100.0,
            accuracy: vec![AccuracyEntry {
                figure: "fig1".to_string(),
                max_rel_error: err,
            }],
            solver: SolverStats {
                solves: 1000,
                residual_evals: evals,
                warm_reuses: 500,
                bracket_fallbacks: 3,
            },
            warm_start: WarmStartStats {
                cold_iterations: 400,
                warm_iterations: 160,
                iteration_speedup: speedup,
            },
            batch: Some(BatchStats {
                batches: 12,
                lanes: 4000,
                reference_iterations: 1200,
                lanes_per_second: 2.5e7,
            }),
            sim: Some(SimStats {
                reference_accesses: 55_000,
                reference_makespan: 90_000,
                accesses_per_second: 5.0e6,
                wall_ms: 11.0,
            }),
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = record(true, 2.5, 9000, 0.12);
        let line = r.to_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(HistoryRecord::from_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn pre_batch_records_parse_and_skip_batch_gating() {
        // A line written before the batch engine: no `batch` field (and,
        // being older still than the sim stats, no `sim` either).
        let mut r = record(true, 2.5, 9000, 0.12);
        r.batch = None;
        r.sim = None;
        let line = r
            .to_jsonl()
            .replace(",\"batch\":null", "")
            .replace(",\"sim\":null", "");
        assert!(!line.contains("batch"), "{line}");
        let parsed = HistoryRecord::from_jsonl(&line).unwrap();
        assert_eq!(parsed, r);

        // Mixed history: batchless predecessors mean the batch ceiling
        // has no trailing median, so it is skipped, not failed.
        let mut old = record(true, 2.5, 9000, 0.12);
        old.batch = None;
        old.sim = None;
        let history = [old.clone(), old, record(true, 2.5, 9000, 0.12)];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(!outcome
            .rows
            .iter()
            .any(|row| row.quantity == "batch reference iterations"));
    }

    #[test]
    fn drifted_batch_iterations_fail_the_gate() {
        let mut slow = record(true, 2.5, 9000, 0.12);
        if let Some(batch) = &mut slow.batch {
            batch.reference_iterations = 2400; // batch engine doing 2x the work
        }
        let history = [
            record(true, 2.5, 9000, 0.12),
            record(true, 2.5, 9000, 0.12),
            slow,
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(!outcome.passed());
        let row = outcome
            .rows
            .iter()
            .find(|r| r.quantity == "batch reference iterations")
            .unwrap();
        assert!(row.drifted);
    }

    #[test]
    fn pre_sim_records_parse_skip_sim_gating_and_say_so() {
        // A line written after the batch engine but before sim
        // telemetry: has `batch`, lacks `sim`.
        let mut r = record(true, 2.5, 9000, 0.12);
        r.sim = None;
        let line = r.to_jsonl().replace(",\"sim\":null", "");
        assert!(!line.contains("\"sim\""), "{line}");
        let parsed = HistoryRecord::from_jsonl(&line).unwrap();
        assert_eq!(parsed, r);

        // Mixed history: simless predecessors mean the makespan
        // ceiling has no trailing median — skipped with an explicit
        // printed line, never failed.
        let mut old = record(true, 2.5, 9000, 0.12);
        old.sim = None;
        let history = [old.clone(), old, record(true, 2.5, 9000, 0.12)];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(!outcome
            .rows
            .iter()
            .any(|row| row.quantity == "sim reference makespan"));
        let rendered = outcome.render();
        assert!(
            rendered.contains("sim reference makespan: SKIPPED"),
            "{rendered}"
        );
    }

    #[test]
    fn drifted_sim_makespan_fails_the_gate() {
        let mut slow = record(true, 2.5, 9000, 0.12);
        if let Some(sim) = &mut slow.sim {
            sim.reference_makespan = 180_000; // simulator burning 2x cycles
        }
        let history = [
            record(true, 2.5, 9000, 0.12),
            record(true, 2.5, 9000, 0.12),
            slow,
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(!outcome.passed());
        let row = outcome
            .rows
            .iter()
            .find(|r| r.quantity == "sim reference makespan")
            .unwrap();
        assert!(row.drifted);
    }

    #[test]
    fn sim_stats_reference_replay_is_deterministic() {
        let a = SimStats::measure();
        let b = SimStats::measure();
        assert_eq!(a.reference_makespan, b.reference_makespan);
        assert_eq!(a.reference_accesses, b.reference_accesses);
        assert!(a.reference_accesses > 0);
        assert!(a.accesses_per_second > 0.0);
        assert!(a.wall_ms > 0.0);
    }

    #[test]
    fn batch_stats_reference_grid_is_deterministic() {
        let a = BatchStats::measure(3, 99);
        let b = BatchStats::measure(3, 99);
        assert_eq!(a.reference_iterations, b.reference_iterations);
        assert_eq!(a.batches, 3);
        assert_eq!(a.lanes, 99);
        assert!(a.reference_iterations > 0);
        assert!(a.lanes_per_second > 0.0);
    }

    #[test]
    fn rejects_foreign_schema_and_garbage() {
        let mut r = record(true, 2.5, 9000, 0.12);
        r.schema = "swcc-run-history/v0".to_string();
        assert!(HistoryRecord::from_jsonl(&r.to_jsonl())
            .unwrap_err()
            .contains("unsupported history schema"));
        assert!(HistoryRecord::from_jsonl("not json").is_err());
        assert!(HistoryRecord::from_jsonl("{}").is_err());
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
        let a = record(true, 2.5, 9000, 0.12);
        let b = record(false, 2.6, 9100, 0.11);
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
            vec![record(true, 2.5, 9000, 0.12)],
            vec![record(true, 2.5, 9000, 0.12), record(true, 2.5, 9000, 0.12)],
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
            record(false, 2.5, 9000, 0.12),
            record(false, 2.5, 9000, 0.12),
            record(true, 1.0, 90000, 0.9),
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(outcome.rows.is_empty(), "nothing comparable");
        assert!(outcome.passed());
    }

    #[test]
    fn steady_history_passes() {
        let history = [
            record(true, 2.50, 9000, 0.120),
            record(true, 2.52, 9010, 0.119),
            record(true, 2.48, 8990, 0.121),
            record(true, 2.51, 9005, 0.120),
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert_eq!(outcome.compared, 3);
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome.render().contains("drift: OK"));
    }

    #[test]
    fn drifted_speedup_fails_the_gate() {
        let history = [
            record(true, 2.50, 9000, 0.12),
            record(true, 2.52, 9000, 0.12),
            record(true, 1.20, 9000, 0.12), // speedup collapsed
        ];
        let outcome = detect_drift(&history, DEFAULT_DRIFT_TOLERANCE);
        assert!(!outcome.passed());
        let row = outcome
            .rows
            .iter()
            .find(|r| r.quantity == "warm iteration speedup")
            .unwrap();
        assert!(row.drifted);
        assert!(outcome.render().contains("drift: FAILED"));
    }

    #[test]
    fn drifted_accuracy_and_counts_fail_the_gate() {
        let worse_accuracy = [
            record(true, 2.5, 9000, 0.120),
            record(true, 2.5, 9000, 0.120),
            record(true, 2.5, 9000, 0.200), // accuracy envelope blew up
        ];
        assert!(!detect_drift(&worse_accuracy, DEFAULT_DRIFT_TOLERANCE).passed());
        let more_evals = [
            record(true, 2.5, 9000, 0.12),
            record(true, 2.5, 9000, 0.12),
            record(true, 2.5, 20000, 0.12), // solver doing far more work
        ];
        assert!(!detect_drift(&more_evals, DEFAULT_DRIFT_TOLERANCE).passed());
    }

    #[test]
    fn improvements_pass_every_gate() {
        let history = [
            record(true, 2.5, 9000, 0.12),
            record(true, 2.5, 9000, 0.12),
            record(true, 3.5, 5000, 0.05), // strictly better everywhere
        ];
        assert!(detect_drift(&history, DEFAULT_DRIFT_TOLERANCE).passed());
    }

    #[test]
    fn warm_start_stats_are_deterministic_and_warm_wins() {
        let a = WarmStartStats::measure();
        let b = WarmStartStats::measure();
        assert_eq!(a, b, "iteration counts are machine-independent");
        assert!(a.warm_iterations < a.cold_iterations);
        assert!(a.iteration_speedup > 1.0);
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
        assert!(loadgen_steady_p99(r#"{"schema":"swcc-run-history/v1"}"#).is_err());
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
            record(true, 2.5, 9000, 0.12),
            record(true, 2.6, 9100, 0.11),
            record(true, 2.7, 9200, 0.10),
        ];
        let all = render_history(&records, 0);
        assert!(all.contains("showing 3 of 3"));
        let last = render_history(&records, 2);
        assert!(last.contains("showing 2 of 3"));
        assert!(last.lines().any(|l| l.trim_start().starts_with("2 ")));
        assert!(render_history(&[], 5).contains("history is empty"));
    }
}
