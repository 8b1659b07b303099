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
//! Both `swcc-bench/v1` and `swcc-bench/v2` reports are accepted. The
//! v2-only batch-engine fields (`batch_patel.*`, `batch_grid.*`) are
//! gated only when the baseline records them: comparing against a v1
//! baseline skips them, while a v2 baseline makes them mandatory in
//! the fresh report.

use std::fmt::Write as _;

use serde_json::Value;

use crate::{BENCH_SCHEMA, BENCH_SCHEMA_V1};

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
        // Pre-schema reports are accepted as the v1 shape they were.
        None => Ok(value),
        Some(s) if s == BENCH_SCHEMA || s == BENCH_SCHEMA_V1 => Ok(value),
        Some(other) => Err(format!(
            "{label}: unsupported bench schema {other:?} (expected {BENCH_SCHEMA:?} or {BENCH_SCHEMA_V1:?})"
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
const RATIO_FIELDS: [&str; 3] = [
    "mva_curve.speedup",
    "bus_curve_dragon.speedup",
    "patel_rate_sweep.iteration_speedup",
];

/// Deterministic iteration counts gated exactly.
const EXACT_FIELDS: [&str; 2] = [
    "patel_rate_sweep.cold_iterations",
    "patel_rate_sweep.warm_iterations",
];

/// Machine-dependent timings, reported but never gated.
const INFO_FIELDS: [&str; 4] = [
    "mva_curve.swept_ns_per_point",
    "bus_curve_dragon.swept_ns_per_point",
    "patel_rate_sweep.cold_ns_per_solve",
    "patel_rate_sweep.warm_ns_per_solve",
];

/// v2-only ratio fields (batch engine). Gated like [`RATIO_FIELDS`],
/// but only when the **baseline** carries them — a v1 baseline simply
/// has no batch expectations yet. Once a baseline records them, a
/// fresh report missing them is an error (the batch engine vanished).
const V2_RATIO_FIELDS: [&str; 2] = ["batch_patel.speedup_vs_warm", "batch_grid.speedup"];

/// v2-only deterministic counts, gated exactly when the baseline has
/// them.
const V2_EXACT_FIELDS: [&str; 1] = ["batch_patel.batch_iterations"];

/// v2-only informational timings.
const V2_INFO_FIELDS: [&str; 4] = [
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

    // v2-only fields are gated iff the baseline records them; a v1 (or
    // pre-schema) baseline has no batch expectations to enforce.
    let in_baseline = |name: &'static str| lookup(&old, name).is_ok();

    let mut ratios = Vec::with_capacity(RATIO_FIELDS.len() + V2_RATIO_FIELDS.len());
    for name in RATIO_FIELDS
        .iter()
        .copied()
        .chain(V2_RATIO_FIELDS.iter().copied().filter(|&n| in_baseline(n)))
    {
        let o = lookup_f64("baseline", &old, name)?;
        let n = lookup_f64("fresh", &new, name)?;
        ratios.push(RatioRow {
            name,
            old: o,
            new: n,
            floor: o * (1.0 - tolerance),
        });
    }
    let mut exacts = Vec::with_capacity(EXACT_FIELDS.len() + V2_EXACT_FIELDS.len());
    for name in EXACT_FIELDS
        .iter()
        .copied()
        .chain(V2_EXACT_FIELDS.iter().copied().filter(|&n| in_baseline(n)))
    {
        exacts.push(ExactRow {
            name,
            old: lookup_u64("baseline", &old, name)?,
            new: lookup_u64("fresh", &new, name)?,
        });
    }
    let mut info = Vec::with_capacity(INFO_FIELDS.len() + V2_INFO_FIELDS.len());
    for name in INFO_FIELDS
        .iter()
        .copied()
        .chain(V2_INFO_FIELDS.iter().copied().filter(|&n| in_baseline(n)))
    {
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

    fn report(mva_speedup: f64, cold_iterations: u64) -> String {
        format!(
            r#"{{
              "schema": "swcc-bench/v1",
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
                                    "iteration_speedup": 1.19, "wall_speedup": 0.98}}
            }}"#
        )
    }

    /// A v2 report: the v1 sections plus the batch-engine additions.
    fn report_v2(batch_speedup: f64, batch_iterations: u64) -> String {
        let v1 = report(18.5, 238);
        let body = v1.trim_end().trim_end_matches('}');
        format!(
            r#"{body},
              "batch_patel": {{"lanes": 1000, "stages": 8,
                               "warm_scalar_ns_per_solve": 225.0,
                               "batch_ns_per_solve": 40.0,
                               "batch_iterations": {batch_iterations},
                               "speedup_vs_warm": {batch_speedup}}},
              "batch_grid": {{"lanes": 1000, "customers": 64,
                              "pointwise_ns_per_lane": 350.0,
                              "batch_ns_per_lane": 60.0, "speedup": 5.8}}
            }}"#
        )
        .replace("swcc-bench/v1", "swcc-bench/v2")
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(18.5, 238);
        let outcome = compare_reports(&r, &r, 0.2).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome.render().contains("bench compare: passed"));
    }

    #[test]
    fn identical_v2_reports_gate_the_batch_fields() {
        let r = report_v2(5.6, 4242);
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
    fn v1_baseline_skips_batch_fields_against_v2_fresh() {
        let outcome = compare_reports(&report(18.5, 238), &report_v2(5.6, 4242), 0.2).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(!outcome.ratios.iter().any(|r| r.name.starts_with("batch_")));
        assert!(!outcome.exacts.iter().any(|e| e.name.starts_with("batch_")));
    }

    #[test]
    fn v2_baseline_requires_batch_fields_in_fresh() {
        let err = compare_reports(&report_v2(5.6, 4242), &report(18.5, 238), 0.2).unwrap_err();
        assert!(err.contains("batch_patel"), "{err}");
    }

    #[test]
    fn drifted_batch_speedup_fails_the_gate() {
        let outcome = compare_reports(&report_v2(5.6, 4242), &report_v2(2.0, 4242), 0.2).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn drifted_batch_iteration_count_fails_the_gate() {
        let outcome = compare_reports(&report_v2(5.6, 4242), &report_v2(5.6, 4300), 0.2).unwrap();
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
    fn schemaless_baselines_are_accepted() {
        let legacy = report(18.5, 238).replace(r#""schema": "swcc-bench/v1","#, "");
        let outcome = compare_reports(&legacy, &report(18.5, 238), 0.2).unwrap();
        assert!(outcome.passed());
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let foreign = report(18.5, 238).replace("swcc-bench/v1", "swcc-bench/v9");
        let err = compare_reports(&foreign, &report(18.5, 238), 0.2).unwrap_err();
        assert!(err.contains("unsupported bench schema"), "{err}");
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
