//! The model-accuracy regression gate: `repro accuracy`.
//!
//! The paper's validation figures (Figs 1–3) bound how far the analytic
//! model may drift from the trace-driven simulation. This module turns
//! that envelope into a CI gate: a checked-in baseline file declares an
//! explicit tolerance per figure, the gate reads each figure's worst
//! power error from a run record's accuracy (the worst of the figure's
//! validation rows) and compares it against the tolerance, and any
//! breach fails the run. A baseline is data, not code — tightening the
//! envelope is a one-line diff reviewers can see.

use serde::{Deserialize, Serialize};

use crate::history::RecordedRun;

/// Schema identifier required of every accuracy baseline file.
pub const ACCURACY_SCHEMA: &str = "swcc-accuracy-baseline/v1";

/// The tolerance for one validation figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureTolerance {
    /// Figure id (`"fig1"`, `"fig2"`, `"fig3"`).
    pub id: String,
    /// Largest allowed model-vs-simulation relative error.
    pub max_rel_error: f64,
}

/// A checked-in set of accuracy tolerances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyBaseline {
    /// Always [`ACCURACY_SCHEMA`]; checked on load.
    pub schema: String,
    /// Per-figure tolerances the gate enforces.
    pub figures: Vec<FigureTolerance>,
}

impl AccuracyBaseline {
    /// Parses a baseline file, rejecting unknown schema revisions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a foreign
    /// schema string, an empty figure list, or a non-positive tolerance.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let baseline: AccuracyBaseline =
            serde_json::from_str(json).map_err(|e| format!("invalid accuracy baseline: {e}"))?;
        if baseline.schema != ACCURACY_SCHEMA {
            return Err(format!(
                "unsupported accuracy baseline schema {:?} (expected {ACCURACY_SCHEMA:?})",
                baseline.schema
            ));
        }
        if baseline.figures.is_empty() {
            return Err("accuracy baseline lists no figures".to_string());
        }
        for f in &baseline.figures {
            if !f.max_rel_error.is_finite() || f.max_rel_error <= 0.0 {
                return Err(format!(
                    "figure {:?}: max_rel_error must be finite and positive",
                    f.id
                ));
            }
        }
        Ok(baseline)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serialization is infallible")
    }
}

/// The gate's verdict for one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Figure id.
    pub id: String,
    /// Measured worst relative error from the fresh run.
    pub measured: f64,
    /// The baseline's tolerance.
    pub limit: f64,
}

impl GateRow {
    /// `true` when the measured error is inside the tolerance.
    pub fn passed(&self) -> bool {
        self.measured <= self.limit
    }
}

/// The outcome of one full gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One row per baseline figure, in baseline order.
    pub rows: Vec<GateRow>,
}

impl GateOutcome {
    /// `true` when every figure stayed inside its tolerance.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(GateRow::passed)
    }

    /// Renders the verdict table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("accuracy gate (model vs simulation)\n");
        let _ = writeln!(
            out,
            "  {:<6} {:>12} {:>12}  verdict",
            "figure", "measured", "limit"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<6} {:>11.2}% {:>11.2}%  {}",
                row.id,
                row.measured * 100.0,
                row.limit * 100.0,
                if row.passed() { "ok" } else { "FAIL" }
            );
        }
        out.push_str(if self.passed() {
            "accuracy gate: passed\n"
        } else {
            "accuracy gate: FAILED\n"
        });
        out
    }
}

/// Compares each figure named in the baseline, as `record` measured
/// it, against its declared tolerance.
///
/// # Errors
///
/// Returns a message naming the first baseline figure the record has
/// no accuracy for.
pub fn check(baseline: &AccuracyBaseline, record: &RecordedRun) -> Result<GateOutcome, String> {
    let rows = baseline
        .figures
        .iter()
        .map(|figure| {
            let entry = record
                .accuracy
                .iter()
                .find(|a| a.figure == figure.id)
                .ok_or_else(|| {
                    format!(
                        "the run record has no accuracy for {:?}: its run did not run \
                         that figure",
                        figure.id
                    )
                })?;
            Ok(GateRow {
                id: figure.id.clone(),
                measured: entry.max_rel_error,
                limit: figure.max_rel_error,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(GateOutcome { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tests::record;

    fn baseline(figures: &[(&str, f64)]) -> AccuracyBaseline {
        AccuracyBaseline {
            schema: ACCURACY_SCHEMA.to_string(),
            figures: figures
                .iter()
                .map(|(id, tol)| FigureTolerance {
                    id: (*id).to_string(),
                    max_rel_error: *tol,
                })
                .collect(),
        }
    }

    #[test]
    fn baseline_round_trips_and_validates() {
        let b = baseline(&[("fig1", 0.3)]);
        let parsed = AccuracyBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert!(AccuracyBaseline::from_json("{").is_err());
        let mut foreign = b.clone();
        foreign.schema = "swcc-accuracy-baseline/v0".to_string();
        assert!(AccuracyBaseline::from_json(&foreign.to_json())
            .unwrap_err()
            .contains("unsupported"));
        let mut bad = b.clone();
        bad.figures[0].max_rel_error = 0.0;
        assert!(AccuracyBaseline::from_json(&bad.to_json()).is_err());
        let mut empty = b;
        empty.figures.clear();
        assert!(AccuracyBaseline::from_json(&empty.to_json()).is_err());
    }

    #[test]
    fn gate_passes_inside_the_envelope() {
        // The record's fig1 error is 12%: a 30% tolerance passes, and so
        // does a tolerance equal to the error.
        for limit in [0.30, 0.12] {
            let outcome = check(&baseline(&[("fig1", limit)]), &record(true, 9000, 0.12)).unwrap();
            assert!(outcome.passed(), "{}", outcome.render());
            assert!(outcome.render().contains("ok"));
            assert!(outcome.render().contains("12.00%"));
        }
    }

    #[test]
    fn gate_fails_on_injected_drift() {
        // A synthetic impossible tolerance simulates an accuracy
        // regression: the recorded error is not under 0.01%.
        let outcome = check(&baseline(&[("fig1", 0.0001)]), &record(true, 9000, 0.12)).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn gate_rejects_unknown_figures() {
        // A figure the record lacks (never run, or unknown) is an error
        // naming it, never a pass.
        for id in ["fig99", "fig2"] {
            let err = check(
                &baseline(&[("fig1", 0.5), (id, 0.5)]),
                &record(true, 9000, 0.12),
            )
            .unwrap_err();
            assert!(err.contains(id), "{err}");
        }
    }
}
