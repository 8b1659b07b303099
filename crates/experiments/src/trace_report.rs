//! Rendering of `repro --trace` JSONL files: the `trace-report`
//! subcommand.
//!
//! A trace file is a stream of span/point events (see
//! [`swcc_obs::trace`]) emitted by the instrumented solvers, sweeps,
//! simulator and runner. This module folds one back into the three
//! summaries the paper's diagnostics need:
//!
//! * **Per-phase timing** — wall-clock totals *and self time* per span
//!   name (via the reconstructed [`crate::tree::SpanTree`]), plus a
//!   per-experiment breakdown from the runner's spans.
//! * **Convergence diagnostics** — the distribution of Patel solver
//!   iterations to tolerance (p50/p90/p99 via
//!   [`swcc_obs::quantile`]), warm-start provenance, bracket
//!   fallbacks, and *divergences*: solves that hit the iteration cap
//!   with the root bracket still wider than the tolerance.
//! * **Coherence event mix** — per-protocol sums of the simulator's
//!   `sim.events` summaries, over every simulation the run traced.
//!
//! Model-vs-simulation accuracy is not here: the run record keeps it
//! (see [`crate::sim_report`]).
//!
//! Ingestion is lenient: truncated or corrupt JSONL lines are counted
//! in [`TraceReport::skipped`] and surfaced as a warning, never fatal —
//! a trace cut off by sink capacity or a killed process is still
//! mostly useful. [`TraceReport::is_clean`] is the gate the
//! `trace-report` subcommand exposes through its exit code: a report
//! with divergences fails.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde::Value;
use swcc_obs::quantile;
use swcc_obs::EventKind;

use crate::tree::{parse_trace, ParsedEvent, SpanTree};

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Spans of this name that closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across them (children included).
    pub total_ns: u64,
    /// Self nanoseconds across them (children excluded).
    pub self_ns: u64,
}

/// One experiment's timing, from its `runner.experiment` span.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment id (`"fig1"`, `"table8"`, ...).
    pub id: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Worker thread that ran it.
    pub worker: u64,
}

/// Patel solver convergence summary, from `patel.solve` spans and
/// `patel.result` events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceSummary {
    /// Guarded-Newton solves seen.
    pub solves: u64,
    /// Of those, solves that started from a warm-start hint.
    pub warm: u64,
    /// Iterations-to-tolerance of every solve, sorted.
    pub iterations: Vec<u64>,
    /// Newton steps that fell back to the bisection midpoint.
    pub fallbacks: u64,
    /// Solves that hit the iteration cap unconverged.
    pub divergences: u64,
}

impl ConvergenceSummary {
    /// The `q`-quantile of the iteration distribution, rounded to the
    /// nearest count; 0 with no solves.
    fn iteration_quantile(&self, q: f64) -> u64 {
        let values: Vec<f64> = self.iterations.iter().map(|&v| v as f64).collect();
        quantile::quantile(&values, q)
            .map(|v| v.round() as u64)
            .unwrap_or(0)
    }

    /// Smallest iteration count, or 0 with no solves.
    pub fn min_iterations(&self) -> u64 {
        self.iterations.first().copied().unwrap_or(0)
    }

    /// Median iteration count, or 0 with no solves.
    pub fn median_iterations(&self) -> u64 {
        self.iteration_quantile(0.5)
    }

    /// 90th-percentile iteration count, or 0 with no solves.
    pub fn p90_iterations(&self) -> u64 {
        self.iteration_quantile(0.9)
    }

    /// 99th-percentile iteration count, or 0 with no solves.
    pub fn p99_iterations(&self) -> u64 {
        self.iteration_quantile(0.99)
    }

    /// Largest iteration count, or 0 with no solves.
    pub fn max_iterations(&self) -> u64 {
        self.iterations.last().copied().unwrap_or(0)
    }
}

/// Aggregate coherence-event mix for one protocol, summed over every
/// `sim.events` point in the trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventMixRow {
    /// Protocol name (`"Base"`, `"Dragon"`, ...).
    pub protocol: String,
    /// Simulator runs folded into this row.
    pub runs: u64,
    /// Trace accesses replayed.
    pub accesses: u64,
    /// Lines invalidated in remote caches.
    pub invalidations: u64,
    /// Remote lines refreshed by update broadcasts.
    pub updates: u64,
    /// Broadcast bus operations issued.
    pub broadcasts: u64,
    /// Dirty lines written back to memory.
    pub write_backs: u64,
    /// Cache line fills.
    pub fills: u64,
    /// Bus transactions arbitrated.
    pub bus_transactions: u64,
    /// Software flush operations (clean + dirty).
    pub flushes: u64,
}

/// Everything `trace-report` extracts from one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total JSONL records parsed cleanly.
    pub events: u64,
    /// Span-start records among them.
    pub spans: u64,
    /// Truncated/corrupt lines skipped during parsing.
    pub skipped: u64,
    /// Spans that never saw their end record.
    pub unclosed: u64,
    /// Per-span-name wall-clock aggregates, sorted by name.
    pub phases: BTreeMap<String, PhaseTiming>,
    /// Per-experiment timings, in span start order.
    pub experiments: Vec<ExperimentTiming>,
    /// Patel solver convergence summary.
    pub convergence: ConvergenceSummary,
    /// Per-protocol coherence-event sums, sorted by protocol.
    pub event_mix: Vec<EventMixRow>,
}

impl TraceReport {
    /// `true` when the trace shows no solver divergences — the
    /// condition the `trace-report` subcommand turns into its exit
    /// code. Skipped lines are a warning, not a failure.
    pub fn is_clean(&self) -> bool {
        self.convergence.divergences == 0
    }

    /// Experiment ids that have a span in this trace.
    pub fn experiment_ids(&self) -> BTreeSet<&str> {
        self.experiments.iter().map(|e| e.id.as_str()).collect()
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.events == 0 {
            out.push_str("trace report: empty trace (no events)\n");
            if self.skipped > 0 {
                let _ = writeln!(out, "warning: skipped {} corrupt line(s)", self.skipped);
            }
            return out;
        }
        let _ = writeln!(
            out,
            "trace report: {} events, {} spans",
            self.events, self.spans
        );
        if self.skipped > 0 {
            let _ = writeln!(out, "warning: skipped {} corrupt line(s)", self.skipped);
        }
        if self.unclosed > 0 {
            let _ = writeln!(
                out,
                "warning: {} span(s) never closed (truncated trace?)",
                self.unclosed
            );
        }

        out.push_str("\nper-phase timing\n");
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "mean ms"
        );
        for (name, t) in &self.phases {
            let total_ms = t.total_ns as f64 / 1e6;
            let mean_ms = if t.count > 0 {
                total_ms / t.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12.3} {:>12.3} {:>12.4}",
                name,
                t.count,
                total_ms,
                t.self_ns as f64 / 1e6,
                mean_ms
            );
        }

        if !self.experiments.is_empty() {
            out.push_str("\nexperiment phases\n");
            let _ = writeln!(out, "  {:<16} {:>12} {:>8}", "id", "ms", "worker");
            let mut by_duration = self.experiments.clone();
            by_duration.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.id.cmp(&b.id)));
            for e in &by_duration {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12.3} {:>8}",
                    e.id,
                    e.duration_ns as f64 / 1e6,
                    e.worker
                );
            }
        }

        out.push_str("\nsolver convergence\n");
        let c = &self.convergence;
        let _ = writeln!(
            out,
            "  solves: {} guarded-Newton, {} warm-started",
            c.solves, c.warm
        );
        let _ = writeln!(
            out,
            "  iterations to tolerance: min {} / p50 {} / p90 {} / p99 {} / max {}",
            c.min_iterations(),
            c.median_iterations(),
            c.p90_iterations(),
            c.p99_iterations(),
            c.max_iterations()
        );
        let _ = writeln!(out, "  bracket fallbacks: {}", c.fallbacks);
        let _ = writeln!(out, "  divergences (iteration cap hit): {}", c.divergences);

        if !self.event_mix.is_empty() {
            out.push_str("\ncoherence event mix\n");
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "protocol",
                "runs",
                "accesses",
                "inval",
                "update",
                "bcast",
                "wb",
                "fill",
                "bus",
                "flush"
            );
            for r in &self.event_mix {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    r.protocol,
                    r.runs,
                    r.accesses,
                    r.invalidations,
                    r.updates,
                    r.broadcasts,
                    r.write_backs,
                    r.fills,
                    r.bus_transactions,
                    r.flushes
                );
            }
        }

        if self.is_clean() {
            out.push_str("\nstatus: clean (no solver divergences)\n");
        } else {
            let _ = writeln!(
                out,
                "\nstatus: FAILED ({} solver divergence(s))",
                self.convergence.divergences
            );
        }
        out
    }
}

fn field_str<'a>(event: &'a ParsedEvent, key: &str) -> Option<&'a str> {
    event.field(key).and_then(Value::as_str)
}

fn field_u64(event: &ParsedEvent, key: &str) -> Option<u64> {
    event.field(key).and_then(Value::as_u64)
}

fn field_bool(event: &ParsedEvent, key: &str) -> Option<bool> {
    event.field(key).and_then(Value::as_bool)
}

/// Parses a `repro --trace` JSONL file into a [`TraceReport`].
///
/// Never fails: corrupt lines are counted in [`TraceReport::skipped`]
/// and an empty file yields an empty (clean) report.
pub fn analyze(jsonl: &str) -> TraceReport {
    let parsed = parse_trace(jsonl);
    let tree = SpanTree::build(&parsed.events);

    let mut report = TraceReport {
        events: parsed.events.len() as u64,
        skipped: parsed.skipped as u64,
        unclosed: tree.unclosed() as u64,
        ..TraceReport::default()
    };

    // Phase timing (with self time) straight off the span tree.
    report.phases = tree
        .name_timings()
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                PhaseTiming {
                    count: t.count,
                    total_ns: t.total_ns,
                    self_ns: t.self_ns,
                },
            )
        })
        .collect();

    // Experiment breakdown from the runner's spans.
    for node in tree.nodes() {
        if node.name == "runner.experiment" && node.closed {
            let id = node.field("id").and_then(Value::as_str).unwrap_or("?");
            let worker = node.field("worker").and_then(Value::as_u64).unwrap_or(0);
            report.experiments.push(ExperimentTiming {
                id: id.to_string(),
                duration_ns: node.dur_ns.unwrap_or(0),
                worker,
            });
        }
    }

    // protocol → summed coherence events.
    let mut event_mix: BTreeMap<String, EventMixRow> = BTreeMap::new();
    for event in &parsed.events {
        match event.kind {
            EventKind::SpanStart => {
                report.spans += 1;
                if event.name == "patel.solve" {
                    report.convergence.solves += 1;
                    if field_bool(event, "warm") == Some(true) {
                        report.convergence.warm += 1;
                    }
                }
            }
            EventKind::Point => match event.name.as_str() {
                "patel.result" => {
                    if let Some(iters) = field_u64(event, "iterations") {
                        report.convergence.iterations.push(iters);
                    }
                    report.convergence.fallbacks += field_u64(event, "fallbacks").unwrap_or(0);
                    if field_bool(event, "converged") == Some(false) {
                        report.convergence.divergences += 1;
                    }
                }
                "sim.events" => {
                    let protocol = field_str(event, "protocol").unwrap_or("?").to_string();
                    let row = event_mix.entry(protocol.clone()).or_insert(EventMixRow {
                        protocol,
                        ..EventMixRow::default()
                    });
                    row.runs += 1;
                    row.accesses += field_u64(event, "accesses").unwrap_or(0);
                    row.invalidations += field_u64(event, "invalidations").unwrap_or(0);
                    row.updates += field_u64(event, "updates").unwrap_or(0);
                    row.broadcasts += field_u64(event, "broadcasts").unwrap_or(0);
                    row.write_backs += field_u64(event, "write_backs").unwrap_or(0);
                    row.fills += field_u64(event, "fills").unwrap_or(0);
                    row.bus_transactions += field_u64(event, "bus_transactions").unwrap_or(0);
                    row.flushes += field_u64(event, "flushes").unwrap_or(0);
                }
                _ => {}
            },
            EventKind::SpanEnd => {}
        }
    }

    report.convergence.iterations.sort_unstable();
    report.event_mix = event_mix.into_values().collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        [
            r#"{"ev":"start","name":"runner.batch","span":1,"parent":0,"seq":0,"thread":1,"fields":{"experiments":2,"workers":2,"observe":true}}"#,
            r#"{"ev":"start","name":"runner.experiment","span":2,"parent":1,"seq":1,"thread":2,"fields":{"id":"fig1","worker":0,"queue_wait_ms":0.1}}"#,
            r#"{"ev":"start","name":"patel.solve","span":3,"parent":2,"seq":2,"thread":2,"fields":{"rate":0.03,"size":20,"stages":8,"warm":false}}"#,
            r#"{"ev":"point","name":"patel.iteration","span":3,"parent":3,"seq":3,"thread":2,"fields":{"iter":1,"x":0.6,"residual":0.01,"lo":0,"hi":1}}"#,
            r#"{"ev":"point","name":"patel.result","span":3,"parent":3,"seq":4,"thread":2,"fields":{"iterations":5,"fallbacks":1,"root":0.52,"converged":true}}"#,
            r#"{"ev":"end","name":"patel.solve","span":3,"parent":2,"seq":5,"thread":2,"dur_ns":4200}"#,
            r#"{"ev":"start","name":"patel.solve","span":4,"parent":2,"seq":6,"thread":2,"fields":{"rate":0.04,"size":20,"stages":8,"warm":true}}"#,
            r#"{"ev":"point","name":"patel.result","span":4,"parent":4,"seq":7,"thread":2,"fields":{"iterations":3,"fallbacks":0,"root":0.5,"converged":true}}"#,
            r#"{"ev":"end","name":"patel.solve","span":4,"parent":2,"seq":8,"thread":2,"dur_ns":2100}"#,
            r#"{"ev":"point","name":"sim.events","span":2,"parent":2,"seq":14,"thread":2,"fields":{"protocol":"Dragon","accesses":5000,"invalidations":0,"updates":40,"broadcasts":41,"write_backs":7,"fills":120,"bus_transactions":170,"flushes":0,"cycle_steals":80}}"#,
            r#"{"ev":"end","name":"runner.experiment","span":2,"parent":1,"seq":10,"thread":2,"dur_ns":9000000}"#,
            r#"{"ev":"start","name":"runner.experiment","span":5,"parent":1,"seq":11,"thread":3,"fields":{"id":"table1","worker":1,"queue_wait_ms":0.2}}"#,
            r#"{"ev":"end","name":"runner.experiment","span":5,"parent":1,"seq":12,"thread":3,"dur_ns":1000000}"#,
            r#"{"ev":"end","name":"runner.batch","span":1,"parent":0,"seq":13,"thread":1,"dur_ns":11000000}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_phase_timing_and_experiments() {
        let report = analyze(&sample_trace());
        assert_eq!(report.events, 14);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.phases["patel.solve"].count, 2);
        assert_eq!(report.phases["patel.solve"].total_ns, 6300);
        assert_eq!(report.phases["runner.experiment"].count, 2);
        assert_eq!(report.experiments.len(), 2);
        assert!(report.experiment_ids().contains("fig1"));
        assert!(report.experiment_ids().contains("table1"));
    }

    #[test]
    fn phase_self_time_excludes_children() {
        let report = analyze(&sample_trace());
        // fig1's experiment span is 9 ms with 6300 ns of solves inside;
        // table1's is 1 ms with nothing inside.
        assert_eq!(
            report.phases["runner.experiment"].self_ns,
            10_000_000 - 6300
        );
        // The solves are leaves: self == total.
        assert_eq!(report.phases["patel.solve"].self_ns, 6300);
        // The batch excludes both experiments.
        assert_eq!(report.phases["runner.batch"].self_ns, 1_000_000);
    }

    #[test]
    fn summarizes_convergence() {
        let report = analyze(&sample_trace());
        let c = &report.convergence;
        assert_eq!(c.solves, 2);
        assert_eq!(c.warm, 1);
        assert_eq!(c.iterations, vec![3, 5]);
        assert_eq!(c.fallbacks, 1);
        assert_eq!(c.divergences, 0);
        assert_eq!(c.median_iterations(), 4, "interpolated midpoint of 3 and 5");
        assert_eq!(c.max_iterations(), 5);
        assert!(report.is_clean());
    }

    #[test]
    fn flags_divergences() {
        let trace = sample_trace()
            + "\n"
            + r#"{"ev":"point","name":"patel.result","span":0,"parent":0,"seq":14,"thread":2,"fields":{"iterations":200,"fallbacks":12,"root":0.5,"converged":false}}"#;
        let report = analyze(&trace);
        assert_eq!(report.convergence.divergences, 1);
        assert!(!report.is_clean());
        assert!(report.render().contains("FAILED"));
    }

    #[test]
    fn sums_sim_events_per_protocol() {
        let extra = r#"{"ev":"point","name":"sim.events","span":0,"parent":0,"seq":15,"thread":2,"fields":{"protocol":"Dragon","accesses":1000,"invalidations":0,"updates":10,"broadcasts":9,"write_backs":3,"fills":30,"bus_transactions":40,"flushes":0,"cycle_steals":20}}"#;
        let report = analyze(&format!("{}\n{extra}", sample_trace()));
        assert_eq!(report.event_mix.len(), 1);
        let r = &report.event_mix[0];
        assert_eq!(r.protocol, "Dragon");
        assert_eq!(r.runs, 2);
        assert_eq!(r.accesses, 6000);
        assert_eq!(r.updates, 50);
        assert_eq!(r.broadcasts, 50);
        assert_eq!(r.write_backs, 10);
        assert_eq!(r.fills, 150);
        assert_eq!(r.bus_transactions, 210);
        assert_eq!(r.invalidations, 0);
        assert_eq!(r.flushes, 0);
    }

    #[test]
    fn render_includes_every_section() {
        let report = analyze(&sample_trace());
        let text = report.render();
        for needle in [
            "per-phase timing",
            "self ms",
            "experiment phases",
            "solver convergence",
            "coherence event mix",
            "status: clean",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn skips_malformed_lines_with_a_warning() {
        let trace = format!("not json\n{}\n{{\"ev\":\"trunc", sample_trace());
        let report = analyze(&trace);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.events, 14, "good lines still parse");
        assert!(report.is_clean(), "skips warn, they do not fail");
        assert!(report.render().contains("skipped 2 corrupt line(s)"));
    }

    #[test]
    fn unknown_event_kinds_are_skipped_not_fatal() {
        let report = analyze(r#"{"ev":"wat","name":"x","span":1,"parent":0,"seq":0,"thread":1}"#);
        assert_eq!(report.events, 0);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn empty_trace_is_clean_with_a_message() {
        let report = analyze("");
        assert_eq!(report.events, 0);
        assert_eq!(report.skipped, 0);
        assert!(report.is_clean());
        assert!(report.render().contains("empty trace"));
    }

    #[test]
    fn truncated_trace_reports_unclosed_spans() {
        let trace =
            r#"{"ev":"start","name":"runner.batch","span":1,"parent":0,"seq":0,"thread":1}"#;
        let report = analyze(trace);
        assert_eq!(report.unclosed, 1);
        assert!(report.render().contains("never closed"));
    }
}
