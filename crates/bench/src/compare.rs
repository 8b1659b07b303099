//! Comparing two `BENCH_sweep.json` reports: the perf regression gate.
//!
//! Raw nanosecond timings do not transfer between machines, so the gate
//! only enforces **machine-independent** quantities:
//!
//! * *Speedup ratios* (batched-sweep vs pointwise, warm vs cold
//!   iteration counts) — each must stay within a percentage tolerance
//!   of the baseline. A batched sweep that stops being faster than the
//!   pointwise loop is a regression on any machine.
//! * *Solver iteration counts* — deterministic for a given sweep, so
//!   they must match the baseline **exactly**; a drifted count means the
//!   solver's convergence behaviour changed.
//!
//! Per-point nanosecond columns are rendered informationally but never
//! gated.
//!
//! Both reports must be `swcc-bench/v2` and carry every compared field.

use std::fmt::Write as _;

use serde_json::Value;

use crate::BENCH_SCHEMA;

/// A gated speedup-ratio comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    /// Dotted field path (`"mva_curve.speedup"`).
    pub name: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Fresh value.
    pub new: f64,
    /// Smallest acceptable fresh value, `old * (1 - tolerance)`.
    pub floor: f64,
}

impl RatioRow {
    /// `true` when the fresh ratio stayed above the floor.
    pub fn passed(&self) -> bool {
        self.new >= self.floor
    }
}

/// A gated exact-match comparison (solver iteration counts).
#[derive(Debug, Clone, PartialEq)]
pub struct ExactRow {
    /// Dotted field path (`"patel_rate_sweep.cold_iterations"`).
    pub name: &'static str,
    /// Baseline value.
    pub old: u64,
    /// Fresh value.
    pub new: u64,
}

impl ExactRow {
    /// `true` when the counts match exactly.
    pub fn passed(&self) -> bool {
        self.old == self.new
    }
}

/// An ungated informational timing comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoRow {
    /// Dotted field path.
    pub name: &'static str,
    /// Baseline nanoseconds.
    pub old: f64,
    /// Fresh nanoseconds.
    pub new: f64,
}

/// The outcome of one `--compare` run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
    /// The tolerance applied to ratio rows, as a fraction (0.2 = 20%).
    pub tolerance: f64,
    /// Gated speedup ratios.
    pub ratios: Vec<RatioRow>,
    /// Gated exact counts.
    pub exacts: Vec<ExactRow>,
    /// Informational timings.
    pub info: Vec<InfoRow>,
}

impl CompareOutcome {
    /// `true` when every gated row passed.
    pub fn passed(&self) -> bool {
        self.ratios.iter().all(RatioRow::passed) && self.exacts.iter().all(ExactRow::passed)
    }

    /// Renders the verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench compare (tolerance {:.1}% on speedup ratios)",
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<36} {:>10} {:>10} {:>10}  verdict",
            "speedup ratio", "baseline", "fresh", "floor"
        );
        for r in &self.ratios {
            let _ = writeln!(
                out,
                "  {:<36} {:>10.3} {:>10.3} {:>10.3}  {}",
                r.name,
                r.old,
                r.new,
                r.floor,
                if r.passed() { "ok" } else { "FAIL" }
            );
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>10} {:>10} {:>10}  verdict",
            "iteration count (exact)", "baseline", "fresh", ""
        );
        for e in &self.exacts {
            let _ = writeln!(
                out,
                "  {:<36} {:>10} {:>10} {:>10}  {}",
                e.name,
                e.old,
                e.new,
                "",
                if e.passed() { "ok" } else { "FAIL" }
            );
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>10} {:>10} {:>10}  (informational)",
            "ns per unit", "baseline", "fresh", "change"
        );
        for i in &self.info {
            let change = if i.old > 0.0 {
                (i.new - i.old) / i.old * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<36} {:>10.1} {:>10.1} {:>+9.1}%",
                i.name, i.old, i.new, change
            );
        }
        out.push_str(if self.passed() {
            "bench compare: passed\n"
        } else {
            "bench compare: FAILED\n"
        });
        out
    }
}

fn parse_report(label: &str, json: &str) -> Result<Value, String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| format!("{label}: invalid JSON: {e}"))?;
    match value.get_field("schema").and_then(Value::as_str) {
        Some(BENCH_SCHEMA) => Ok(value),
        schema => Err(format!(
            "{label}: unsupported bench schema {schema:?} (expected {BENCH_SCHEMA:?})"
        )),
    }
}

fn lookup<'a>(v: &'a Value, path: &'static str) -> Result<&'a Value, String> {
    let mut cur = v;
    for key in path.split('.') {
        cur = cur
            .get_field(key)
            .ok_or_else(|| format!("missing field {path:?}"))?;
    }
    Ok(cur)
}

fn lookup_f64(label: &str, v: &Value, path: &'static str) -> Result<f64, String> {
    lookup(v, path)?
        .as_f64()
        .ok_or_else(|| format!("{label}: field {path:?} is not a number"))
}

fn lookup_u64(label: &str, v: &Value, path: &'static str) -> Result<u64, String> {
    lookup(v, path)?
        .as_u64()
        .ok_or_else(|| format!("{label}: field {path:?} is not an unsigned integer"))
}

/// Speedup-ratio fields gated with the percentage tolerance.
const RATIO_FIELDS: [&str; 5] = [
    "mva_curve.speedup",
    "bus_curve_dragon.speedup",
    "patel_rate_sweep.iteration_speedup",
    "batch_patel.speedup_vs_warm",
    "batch_grid.speedup",
];

/// Deterministic iteration counts gated exactly.
const EXACT_FIELDS: [&str; 3] = [
    "patel_rate_sweep.cold_iterations",
    "patel_rate_sweep.warm_iterations",
    "batch_patel.batch_iterations",
];

/// Machine-dependent timings, reported but never gated.
const INFO_FIELDS: [&str; 8] = [
    "mva_curve.swept_ns_per_point",
    "bus_curve_dragon.swept_ns_per_point",
    "patel_rate_sweep.cold_ns_per_solve",
    "patel_rate_sweep.warm_ns_per_solve",
    "patel_rate_sweep.setup_ns_per_solve",
    "patel_rate_sweep.iteration_ns",
    "batch_patel.batch_ns_per_solve",
    "batch_grid.batch_ns_per_lane",
];

/// Compares two `BENCH_sweep.json` documents with a fractional
/// `tolerance` (0.2 = 20%) on the speedup ratios.
///
/// # Errors
///
/// Returns a message if either document is malformed, declares a
/// foreign schema, or lacks a compared field, or if the tolerance is
/// not a finite fraction in `[0, 1)`.
pub fn compare_reports(
    old_json: &str,
    new_json: &str,
    tolerance: f64,
) -> Result<CompareOutcome, String> {
    if !tolerance.is_finite() || !(0.0..1.0).contains(&tolerance) {
        return Err(format!(
            "tolerance must be a fraction in [0, 1), got {tolerance}"
        ));
    }
    let old = parse_report("baseline", old_json)?;
    let new = parse_report("fresh", new_json)?;
    let mut ratios = Vec::with_capacity(RATIO_FIELDS.len());
    for name in RATIO_FIELDS {
        let o = lookup_f64("baseline", &old, name)?;
        let n = lookup_f64("fresh", &new, name)?;
        ratios.push(RatioRow {
            name,
            old: o,
            new: n,
            floor: o * (1.0 - tolerance),
        });
    }
    let mut exacts = Vec::with_capacity(EXACT_FIELDS.len());
    for name in EXACT_FIELDS {
        exacts.push(ExactRow {
            name,
            old: lookup_u64("baseline", &old, name)?,
            new: lookup_u64("fresh", &new, name)?,
        });
    }
    let mut info = Vec::with_capacity(INFO_FIELDS.len());
    for name in INFO_FIELDS {
        info.push(InfoRow {
            name,
            old: lookup_f64("baseline", &old, name)?,
            new: lookup_f64("fresh", &new, name)?,
        });
    }
    Ok(CompareOutcome {
        tolerance,
        ratios,
        exacts,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A v2 report with the given gated values, and with the
    /// batch-engine sections only when `batch` is given.
    fn doc(mva_speedup: f64, cold_iterations: u64, batch: Option<(f64, u64)>) -> String {
        let batch = batch.map_or(String::new(), |(speedup, iterations)| {
            format!(
                r#",
              "batch_patel": {{"lanes": 1000, "stages": 8,
                               "warm_scalar_ns_per_solve": 225.0,
                               "batch_ns_per_solve": 40.0,
                               "batch_iterations": {iterations},
                               "speedup_vs_warm": {speedup}}},
              "batch_grid": {{"lanes": 1000, "customers": 64,
                              "pointwise_ns_per_lane": 350.0,
                              "batch_ns_per_lane": 60.0, "speedup": 5.8}}"#
            )
        });
        format!(
            r#"{{
              "schema": "swcc-bench/v2",
              "samples": 25,
              "generated_by": "test",
              "mva_curve": {{"points": 64, "pointwise_ns_per_point": 170.0,
                             "swept_ns_per_point": 9.2, "speedup": {mva_speedup}}},
              "bus_curve_dragon": {{"points": 64, "pointwise_ns_per_point": 340.0,
                                    "swept_ns_per_point": 12.4, "speedup": 27.7}},
              "patel_rate_sweep": {{"solves": 50, "stages": 8,
                                    "cold_ns_per_solve": 175.0, "warm_ns_per_solve": 179.0,
                                    "cold_iterations": {cold_iterations},
                                    "warm_iterations": 199,
                                    "iteration_speedup": 1.19, "wall_speedup": 0.98,
                                    "setup_ns_per_solve": 19.1, "iteration_ns": 44.1}}{batch}
            }}"#
        )
    }

    /// A report varying the scalar gated values.
    fn report(mva_speedup: f64, cold_iterations: u64) -> String {
        doc(mva_speedup, cold_iterations, Some((5.6, 4242)))
    }

    /// A report varying the batch-engine gated values.
    fn batch_report(batch_speedup: f64, batch_iterations: u64) -> String {
        doc(18.5, 238, Some((batch_speedup, batch_iterations)))
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(18.5, 238);
        let outcome = compare_reports(&r, &r, 0.2).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome.render().contains("bench compare: passed"));
        assert_eq!(outcome.ratios.len(), RATIO_FIELDS.len());
        assert_eq!(outcome.exacts.len(), EXACT_FIELDS.len());
        assert_eq!(outcome.info.len(), INFO_FIELDS.len());
    }

    #[test]
    fn identical_v2_reports_gate_the_batch_fields() {
        let r = batch_report(5.6, 4242);
        let outcome = compare_reports(&r, &r, 0.2).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome
            .ratios
            .iter()
            .any(|r| r.name == "batch_patel.speedup_vs_warm"));
        assert!(outcome
            .ratios
            .iter()
            .any(|r| r.name == "batch_grid.speedup"));
        assert!(outcome
            .exacts
            .iter()
            .any(|e| e.name == "batch_patel.batch_iterations"));
    }

    #[test]
    fn v2_baseline_requires_batch_fields_in_fresh() {
        // The batch fields are mandatory on both sides.
        let batchless = doc(18.5, 238, None);
        let err = compare_reports(&report(18.5, 238), &batchless, 0.2).unwrap_err();
        assert!(err.contains("batch_patel"), "{err}");
        let err = compare_reports(&batchless, &report(18.5, 238), 0.2).unwrap_err();
        assert!(err.contains("batch_patel"), "{err}");
    }

    #[test]
    fn drifted_batch_speedup_fails_the_gate() {
        let outcome =
            compare_reports(&batch_report(5.6, 4242), &batch_report(2.0, 4242), 0.2).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn drifted_batch_iteration_count_fails_the_gate() {
        let outcome =
            compare_reports(&batch_report(5.6, 4242), &batch_report(5.6, 4300), 0.2).unwrap();
        assert!(!outcome.passed());
    }

    #[test]
    fn small_ratio_wobble_inside_tolerance_passes() {
        let outcome = compare_reports(&report(18.5, 238), &report(16.0, 238), 0.2).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
    }

    #[test]
    fn drifted_speedup_fails_the_gate() {
        // A fresh sweep that lost most of its batching advantage: the
        // synthetic slowdown the gate exists to catch.
        let outcome = compare_reports(&report(18.5, 238), &report(9.0, 238), 0.2).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn drifted_iteration_count_fails_the_gate() {
        let outcome = compare_reports(&report(18.5, 238), &report(18.5, 260), 0.2).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn foreign_schema_is_rejected() {
        // Every schema but v2 is foreign: a future revision, the retired
        // v1, and a report with no schema at all — on either side.
        let v2 = report(18.5, 238);
        let foreign = [
            v2.replace("swcc-bench/v2", "swcc-bench/v9"),
            v2.replace("swcc-bench/v2", "swcc-bench/v1"),
            v2.replace(r#""schema": "swcc-bench/v2","#, ""),
        ];
        for other in &foreign {
            let err = compare_reports(other, &v2, 0.2).unwrap_err();
            assert!(err.contains("unsupported bench schema"), "{err}");
            assert!(err.contains("baseline"), "{err}");
            let err = compare_reports(&v2, other, 0.2).unwrap_err();
            assert!(err.contains("unsupported bench schema"), "{err}");
            assert!(err.contains("fresh"), "{err}");
        }
    }

    #[test]
    fn missing_fields_and_bad_tolerance_are_rejected() {
        assert!(compare_reports("{}", &report(18.5, 238), 0.2).is_err());
        let r = report(18.5, 238);
        assert!(compare_reports(&r, &r, 1.0).is_err());
        assert!(compare_reports(&r, &r, -0.1).is_err());
        assert!(compare_reports(&r, &r, f64::NAN).is_err());
    }
}
