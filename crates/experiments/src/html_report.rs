//! The single-file HTML run dashboard behind `repro report --html`.
//!
//! Combines, in one dependency-free page (inline SVG, inline CSS, no
//! scripts, no external requests):
//!
//! * **Phase timings** — a horizontal self-time bar chart per span
//!   name from a `--trace` file, with its table twin.
//! * **Iterations to tolerance** — the Patel solver's convergence
//!   distribution as a bar chart plus p50/p90/p99 summary.
//! * **Model-vs-sim accuracy** — the per-curve envelope table.
//! * **Model-vs-sim divergence** — every traced validation point,
//!   worst relative error first, with sim and model power side by
//!   side.
//! * **Coherence event mix** — per-protocol invalidation / update /
//!   write-back / fill rates summed from the simulator's `sim.events`
//!   summaries.
//! * **History sparklines** — solver work, accuracy, wall-clock, and
//!   simulator-throughput trends over the run-record log
//!   (`history/runs.jsonl` by default).
//!
//! Chart styling follows the repo's data-viz conventions: one blue
//! series hue (charts here never show two series), light/dark themes
//! via CSS custom properties and `prefers-color-scheme`, text always
//! in ink tokens (never the series color), hairline gridlines, thin
//! bars with a rounded data end, and a table twin for every chart.
//! Reserved status colors (with icon + label, never color alone) mark
//! the solver-divergence verdict.

use std::fmt::Write as _;

use swcc_core::metrics::{SOLVER_RESIDUAL_EVALS, SOLVER_SOLVES};

use crate::history::{BuildProvenance, RecordedRun};
use crate::trace_report::TraceReport;

/// Chart geometry: bar thickness (≤ 24px per the mark spec).
const BAR_THICKNESS: f64 = 16.0;
/// Vertical rhythm per bar row.
const BAR_ROW: f64 = 24.0;
/// Radius of the rounded data end on bars.
const BAR_RADIUS: f64 = 4.0;
/// Left edge of the bar plot area (label gutter).
const BAR_PLOT_X: f64 = 190.0;
/// Width of the bar plot area.
const BAR_PLOT_W: f64 = 420.0;
/// Total bar-chart width.
const BAR_SVG_W: f64 = 680.0;

/// Escapes text for HTML element content and attribute values.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Human-readable milliseconds from nanoseconds.
fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// A value formatted for direct labels: trims to a sensible precision.
fn fmt_value(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// One horizontal bar with the data-end corners rounded (the baseline
/// end stays square so bars read as anchored).
fn bar_path(x: f64, y: f64, w: f64, h: f64) -> String {
    let r = BAR_RADIUS.min(w / 2.0).min(h / 2.0);
    format!(
        "M{x:.1},{y:.1} h{:.1} a{r:.1},{r:.1} 0 0 1 {r:.1},{r:.1} v{:.1} \
         a{r:.1},{r:.1} 0 0 1 -{r:.1},{r:.1} h-{:.1} z",
        (w - r).max(0.0),
        (h - 2.0 * r).max(0.0),
        (w - r).max(0.0),
    )
}

/// A horizontal bar chart of `(label, value)` rows with direct value
/// labels and native `<title>` hover tooltips. `unit` suffixes the
/// tooltip values.
fn bar_chart(rows: &[(String, f64)], unit: &str) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let height = rows.len() as f64 * BAR_ROW + 8.0;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {BAR_SVG_W:.0} {height:.0}\" width=\"{BAR_SVG_W:.0}\" \
         height=\"{height:.0}\" role=\"img\">"
    );
    // Baseline of the plot area.
    let _ = write!(
        svg,
        "<line x1=\"{BAR_PLOT_X:.1}\" y1=\"0\" x2=\"{BAR_PLOT_X:.1}\" y2=\"{height:.0}\" \
         stroke=\"var(--baseline)\" stroke-width=\"1\"/>"
    );
    for (i, (label, value)) in rows.iter().enumerate() {
        let y = i as f64 * BAR_ROW + 4.0;
        let w = if max > 0.0 {
            (value / max) * (BAR_PLOT_W - 60.0)
        } else {
            0.0
        };
        let mid = y + BAR_THICKNESS / 2.0;
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{mid:.1}\" text-anchor=\"end\" dominant-baseline=\"central\" \
             class=\"label\">{}</text>",
            BAR_PLOT_X - 8.0,
            esc(label)
        );
        let _ = write!(
            svg,
            "<path d=\"{}\" fill=\"var(--series-1)\"><title>{}: {} {unit}</title></path>",
            bar_path(BAR_PLOT_X, y, w.max(1.0), BAR_THICKNESS),
            esc(label),
            fmt_value(*value)
        );
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{mid:.1}\" dominant-baseline=\"central\" \
             class=\"value\">{}</text>",
            BAR_PLOT_X + w.max(1.0) + 6.0,
            fmt_value(*value)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// A sparkline (2px line, end marker with a surface ring, hairline
/// midline) over an ordered series.
fn sparkline(values: &[f64], width: f64, height: f64) -> String {
    let mut svg = format!(
        "<svg viewBox=\"0 0 {width:.0} {height:.0}\" width=\"{width:.0}\" \
         height=\"{height:.0}\" role=\"img\">"
    );
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 2 {
        let _ = write!(
            svg,
            "<text x=\"4\" y=\"{:.1}\" class=\"label\">not enough runs</text></svg>",
            height / 2.0
        );
        return svg;
    }
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = if (hi - lo).abs() < 1e-12 {
        1.0
    } else {
        hi - lo
    };
    let pad = 6.0;
    let x = |i: usize| pad + i as f64 / (finite.len() - 1) as f64 * (width - 2.0 * pad);
    let y = |v: f64| height - pad - (v - lo) / span * (height - 2.0 * pad);
    // Hairline gridline at the vertical midpoint.
    let _ = write!(
        svg,
        "<line x1=\"{pad:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
         stroke=\"var(--grid)\" stroke-width=\"1\"/>",
        height / 2.0,
        width - pad,
        height / 2.0
    );
    let mut path = String::new();
    for (i, &v) in finite.iter().enumerate() {
        let _ = write!(
            path,
            "{}{:.1},{:.1}",
            if i == 0 { "M" } else { " L" },
            x(i),
            y(v)
        );
    }
    let _ = write!(
        svg,
        "<path d=\"{path}\" fill=\"none\" stroke=\"var(--series-1)\" stroke-width=\"2\" \
         stroke-linejoin=\"round\" stroke-linecap=\"round\"/>"
    );
    // End marker: ≥8px across, ringed in surface so it reads over the line.
    let last = finite.len() - 1;
    let _ = write!(
        svg,
        "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"var(--series-1)\" \
         stroke=\"var(--surface-1)\" stroke-width=\"2\"><title>latest: {}</title></circle>",
        x(last),
        y(finite[last]),
        fmt_value(finite[last])
    );
    svg.push_str("</svg>");
    svg
}

fn stat_tile(out: &mut String, label: &str, value: &str) {
    let _ = write!(
        out,
        "<div class=\"tile\"><div class=\"tile-value\">{}</div>\
         <div class=\"tile-label\">{}</div></div>",
        esc(value),
        esc(label)
    );
}

fn section_phase_timings(out: &mut String, report: &TraceReport) {
    out.push_str("<section class=\"card\"><h2>Phase timings</h2>");
    if report.phases.is_empty() {
        out.push_str("<p class=\"note\">No spans in the trace.</p></section>");
        return;
    }
    out.push_str(
        "<p class=\"note\">Self time per span name (time in the span minus its children) — \
         where the run actually went.</p>",
    );
    let mut rows: Vec<(String, f64)> = report
        .phases
        .iter()
        .map(|(name, t)| (name.clone(), t.self_ns as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(10);
    out.push_str(&bar_chart(&rows, "ms self"));
    // Table twin.
    out.push_str(
        "<details><summary>Table view</summary><table>\
         <thead><tr><th>span</th><th>count</th><th>total ms</th>\
         <th>self ms</th><th>mean ms</th></tr></thead><tbody>",
    );
    for (name, t) in &report.phases {
        let mean = if t.count > 0 {
            t.total_ns as f64 / 1e6 / t.count as f64
        } else {
            0.0
        };
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{mean:.4}</td></tr>",
            esc(name),
            t.count,
            fmt_ms(t.total_ns),
            fmt_ms(t.self_ns)
        );
    }
    out.push_str("</tbody></table></details></section>");
}

fn section_iterations(out: &mut String, report: &TraceReport) {
    let c = &report.convergence;
    out.push_str("<section class=\"card\"><h2>Solver iterations to tolerance</h2>");
    if c.iterations.is_empty() {
        out.push_str("<p class=\"note\">No solver results in the trace.</p></section>");
        return;
    }
    // Distribution: solves per iteration count.
    let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &i in &c.iterations {
        *buckets.entry(i).or_insert(0) += 1;
    }
    let rows: Vec<(String, f64)> = buckets
        .iter()
        .map(|(iters, count)| (format!("{iters} iter"), *count as f64))
        .collect();
    let _ = write!(
        out,
        "<p class=\"note\">{} guarded-Newton solves ({} warm-started, \
         {} bracket fallbacks).</p>",
        c.solves, c.warm, c.fallbacks
    );
    out.push_str(&bar_chart(&rows, "solves"));
    let _ = write!(
        out,
        "<details><summary>Table view</summary><table>\
         <thead><tr><th>min</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr></thead>\
         <tbody><tr><td class=\"num\">{}</td><td class=\"num\">{}</td>\
         <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>\
         </tbody></table></details></section>",
        c.min_iterations(),
        c.median_iterations(),
        c.p90_iterations(),
        c.p99_iterations(),
        c.max_iterations()
    );
}

fn section_accuracy(out: &mut String, report: &TraceReport) {
    out.push_str("<section class=\"card\"><h2>Model vs simulation accuracy</h2>");
    if report.accuracy.is_empty() {
        out.push_str("<p class=\"note\">No validation points in the trace.</p></section>");
        return;
    }
    out.push_str(
        "<p class=\"note\">Worst relative gap between the analytic model and the \
         trace-driven simulation, per validation curve.</p>\
         <table><thead><tr><th>preset</th><th>protocol</th><th>cache KiB</th>\
         <th>points</th><th>max rel error</th></tr></thead><tbody>",
    );
    for r in &report.accuracy {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{:.1}%</td></tr>",
            esc(&r.preset),
            esc(&r.protocol),
            r.cache_bytes / 1024,
            r.points,
            r.max_rel_error * 100.0
        );
    }
    out.push_str("</tbody></table></section>");
}

fn section_divergence(out: &mut String, report: &TraceReport) {
    out.push_str("<section class=\"card\"><h2>Model vs simulation divergence</h2>");
    if report.divergence.is_empty() {
        out.push_str("<p class=\"note\">No validation points in the trace.</p></section>");
        return;
    }
    out.push_str(
        "<p class=\"note\">Per-point relative error, worst first — where on each curve \
         the analytic model drifts from the trace-driven simulation.</p>",
    );
    let label = |p: &crate::trace_report::DivergencePoint| {
        format!(
            "{} {} {}K n={}",
            p.preset,
            p.protocol,
            p.cache_bytes / 1024,
            p.n
        )
    };
    let mut worst: Vec<&crate::trace_report::DivergencePoint> = report.divergence.iter().collect();
    worst.sort_by(|a, b| b.rel_error.total_cmp(&a.rel_error));
    let rows: Vec<(String, f64)> = worst
        .iter()
        .take(10)
        .map(|p| (label(p), p.rel_error * 100.0))
        .collect();
    out.push_str(&bar_chart(&rows, "% rel error"));
    // Table twin: every point, in curve order.
    out.push_str(
        "<details><summary>Table view</summary><table>\
         <thead><tr><th>preset</th><th>protocol</th><th>cache KiB</th><th>n</th>\
         <th>sim power</th><th>model power</th><th>rel error</th></tr></thead><tbody>",
    );
    for p in &report.divergence {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{:.3}</td><td class=\"num\">{:.3}</td>\
             <td class=\"num\">{:.1}%</td></tr>",
            esc(&p.preset),
            esc(&p.protocol),
            p.cache_bytes / 1024,
            p.n,
            p.sim_power,
            p.model_power,
            p.rel_error * 100.0
        );
    }
    out.push_str("</tbody></table></details></section>");
}

fn section_event_mix(out: &mut String, report: &TraceReport) {
    out.push_str("<section class=\"card\"><h2>Coherence event mix</h2>");
    if report.event_mix.is_empty() {
        out.push_str(
            "<p class=\"note\">No simulator event summaries in the trace — rerun with \
             tracing through a simulation-backed experiment.</p></section>",
        );
        return;
    }
    out.push_str(
        "<p class=\"note\">Coherence events per 1000 replayed accesses, summed over every \
         traced simulator run — the protocols' bus behavior side by side.</p>",
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for r in &report.event_mix {
        let per_k = |v: u64| {
            if r.accesses > 0 {
                v as f64 * 1000.0 / r.accesses as f64
            } else {
                0.0
            }
        };
        for (event, value) in [
            ("invalidations", r.invalidations),
            ("updates", r.updates),
            ("broadcasts", r.broadcasts),
            ("write-backs", r.write_backs),
            ("fills", r.fills),
            ("bus transactions", r.bus_transactions),
            ("flushes", r.flushes),
        ] {
            if value > 0 {
                rows.push((format!("{} {event}", r.protocol), per_k(value)));
            }
        }
    }
    rows.truncate(14);
    out.push_str(&bar_chart(&rows, "per 1k accesses"));
    // Table twin: raw sums.
    out.push_str(
        "<details><summary>Table view</summary><table>\
         <thead><tr><th>protocol</th><th>runs</th><th>accesses</th><th>inval</th>\
         <th>update</th><th>bcast</th><th>wb</th><th>fill</th><th>bus</th><th>flush</th>\
         </tr></thead><tbody>",
    );
    for r in &report.event_mix {
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td></tr>",
            esc(&r.protocol),
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
    out.push_str("</tbody></table></details></section>");
}

fn section_history(out: &mut String, history: &[RecordedRun]) {
    out.push_str("<section class=\"card\"><h2>Run history</h2>");
    if history.len() < 2 {
        out.push_str(
            "<p class=\"note\">Fewer than two recorded runs — run \
             <code>repro all --record PATH</code> to grow the log.</p></section>",
        );
        return;
    }
    let _ = write!(
        out,
        "<p class=\"note\">Trends over the last {} recorded run(s); oldest to newest.</p>",
        history.len()
    );
    let spark = |out: &mut String, title: &str, values: Vec<f64>| {
        let _ = write!(out, "<div class=\"spark\"><h3>{}</h3>", esc(title));
        out.push_str(&sparkline(&values, 300.0, 64.0));
        let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if let (Some(first), Some(last)) = (finite.first(), finite.last()) {
            let _ = write!(
                out,
                "<div class=\"spark-range\">{} → {}</div>",
                fmt_value(*first),
                fmt_value(*last)
            );
        }
        out.push_str("</div>");
    };
    out.push_str("<div class=\"spark-row\">");
    spark(
        out,
        "Solver solves",
        history
            .iter()
            .map(|r| r.counter(SOLVER_SOLVES) as f64)
            .collect(),
    );
    spark(
        out,
        "Solver residual evaluations",
        history
            .iter()
            .map(|r| r.counter(SOLVER_RESIDUAL_EVALS) as f64)
            .collect(),
    );
    spark(
        out,
        "Worst accuracy error (%)",
        history
            .iter()
            .map(|r| r.worst_rel_error().map(|e| e * 100.0).unwrap_or(f64::NAN))
            .collect(),
    );
    spark(
        out,
        "Wall clock (ms, machine-dependent)",
        history.iter().map(|r| r.wall_ms).collect(),
    );
    spark(
        out,
        "Sim accesses/s (machine-dependent)",
        history
            .iter()
            .map(|r| r.sim_accesses_per_second().unwrap_or(f64::NAN))
            .collect(),
    );
    out.push_str("</div>");
    // Table twin.
    out.push_str(
        "<details><summary>Table view</summary><table>\
         <thead><tr><th>#</th><th>commit</th><th>quick</th><th>exps</th>\
         <th>wall ms</th><th>solves</th><th>resid evals</th><th>worst err</th>\
         <th>sim acc/s</th></tr>\
         </thead><tbody>",
    );
    for (i, r) in history.iter().enumerate() {
        let commit: String = r.build.git_commit.chars().take(10).collect();
        let worst = r
            .worst_rel_error()
            .map(|e| format!("{:.2}%", e * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let sim_rate = r
            .sim_accesses_per_second()
            .map(|s| format!("{s:.2e}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = write!(
            out,
            "<tr><td class=\"num\">{}</td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{:.1}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
            i + 1,
            esc(&commit),
            r.quick,
            r.experiments.len(),
            r.wall_ms,
            r.counter(SOLVER_SOLVES),
            r.counter(SOLVER_RESIDUAL_EVALS),
            worst,
            sim_rate
        );
    }
    out.push_str("</tbody></table></details></section>");
}

/// The dashboard's inline stylesheet: ink/surface/series tokens with a
/// selected dark mode (own steps, not an automatic flip).
const STYLE: &str = "\
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #006300; --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme=\"light\"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --status-good: #0ca30c; --status-critical: #d03b3b;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 0 0 8px; }
.viz-root h3 { font-size: 12px; margin: 0 0 4px; color: var(--text-secondary); font-weight: 600; }
.provenance { color: var(--text-muted); font-size: 12px; margin-bottom: 20px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 16px; max-width: 760px; }
.note { color: var(--text-secondary); font-size: 12.5px; margin: 0 0 12px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin-bottom: 16px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 110px; }
.tile-value { font-size: 22px; }
.tile-label { color: var(--text-muted); font-size: 11.5px; margin-top: 2px; }
.status { font-size: 13px; padding: 12px 16px; }
.status.good { color: var(--status-good); }
.status.critical { color: var(--status-critical); }
svg text.label { fill: var(--text-secondary); font-size: 11.5px;
  font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif; }
svg text.value { fill: var(--text-secondary); font-size: 11.5px;
  font-variant-numeric: tabular-nums;
  font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif; }
table { border-collapse: collapse; font-size: 12.5px; margin-top: 8px; }
th { text-align: left; color: var(--text-muted); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 12px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 12px 4px 0; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
details summary { color: var(--text-secondary); font-size: 12px; cursor: pointer;
  margin-top: 12px; }
.spark-row { display: flex; gap: 24px; flex-wrap: wrap; }
.spark-range { color: var(--text-muted); font-size: 11.5px;
  font-variant-numeric: tabular-nums; }
code { font-size: 11.5px; }
";

/// Renders the complete dashboard page.
///
/// `trace` is optional (a dashboard can be history-only); `history`
/// may be empty. The output is a single self-contained HTML document:
/// no scripts, stylesheets, fonts, or images are fetched.
pub fn render_dashboard(trace: Option<&TraceReport>, history: &[RecordedRun]) -> String {
    let build = BuildProvenance::current();
    let mut out = String::with_capacity(32 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">");
    out.push_str("<title>swcc run dashboard</title><style>");
    out.push_str(STYLE);
    out.push_str("</style></head><body class=\"viz-root\">");
    out.push_str("<h1>swcc run dashboard</h1>");
    let _ = write!(
        out,
        "<div class=\"provenance\">commit {} · {} · {}</div>",
        esc(&build.git_commit),
        esc(&build.profile),
        esc(&build.rustc)
    );

    if let Some(report) = trace {
        out.push_str("<div class=\"tiles\">");
        stat_tile(&mut out, "trace events", &report.events.to_string());
        stat_tile(&mut out, "spans", &report.spans.to_string());
        stat_tile(&mut out, "solves", &report.convergence.solves.to_string());
        if let Some(worst) = report.worst_rel_error() {
            stat_tile(
                &mut out,
                "worst accuracy",
                &format!("{:.1}%", worst * 100.0),
            );
        }
        // Divergences: reserved status colors, icon + label, never
        // color alone.
        if report.is_clean() {
            out.push_str(
                "<div class=\"tile status good\">\u{2713} clean — no solver divergences</div>",
            );
        } else {
            let _ = write!(
                out,
                "<div class=\"tile status critical\">\u{2717} {} solver divergence(s)</div>",
                report.convergence.divergences
            );
        }
        if report.skipped > 0 {
            let _ = write!(
                out,
                "<div class=\"tile status critical\">\u{26a0} {} corrupt trace line(s) \
                 skipped</div>",
                report.skipped
            );
        }
        out.push_str("</div>");

        section_phase_timings(&mut out, report);
        section_iterations(&mut out, report);
        section_accuracy(&mut out, report);
        section_divergence(&mut out, report);
        section_event_mix(&mut out, report);
    } else {
        out.push_str(
            "<section class=\"card\"><p class=\"note\">No trace supplied — run with \
             <code>repro report &lt;trace.jsonl&gt; --html …</code> for phase timings, \
             convergence, and accuracy sections.</p></section>",
        );
    }

    section_history(&mut out, history);
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tests::record;
    use crate::trace_report::analyze;

    fn sample_report() -> TraceReport {
        analyze(
            &[
                r#"{"ev":"start","name":"runner.batch","span":1,"parent":0,"seq":0,"thread":1}"#,
                r#"{"ev":"start","name":"patel.solve","span":2,"parent":1,"seq":1,"thread":1,"fields":{"warm":false}}"#,
                r#"{"ev":"point","name":"patel.result","span":2,"parent":2,"seq":2,"thread":1,"fields":{"iterations":5,"fallbacks":0,"converged":true}}"#,
                r#"{"ev":"end","name":"patel.solve","span":2,"parent":1,"seq":3,"thread":1,"dur_ns":4000}"#,
                r#"{"ev":"point","name":"validation.point","span":1,"parent":1,"seq":4,"thread":1,"fields":{"preset":"POPS","protocol":"Base","cache_bytes":65536,"n":2,"sim_power":1.8,"model_power":1.7,"rel_error":0.055}}"#,
                r#"{"ev":"point","name":"sim.events","span":1,"parent":1,"seq":5,"thread":1,"fields":{"protocol":"Dragon","accesses":5000,"invalidations":0,"updates":40,"broadcasts":41,"write_backs":7,"fills":120,"bus_transactions":170,"flushes":0,"cycle_steals":80}}"#,
                r#"{"ev":"end","name":"runner.batch","span":1,"parent":0,"seq":6,"thread":1,"dur_ns":20000}"#,
            ]
            .join("\n"),
        )
    }

    fn sample_history(n: usize) -> Vec<RecordedRun> {
        (0..n)
            .map(|i| RecordedRun {
                wall_ms: 100.0 + i as f64,
                ..record(true, 9000 + i as u64, 0.12)
            })
            .collect()
    }

    #[test]
    fn dashboard_is_self_contained() {
        let report = sample_report();
        let html = render_dashboard(Some(&report), &sample_history(3));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        // No external requests of any kind.
        for needle in [
            "http://", "https://", "<script", "<link", "src=", "@import", "url(",
        ] {
            assert!(!html.contains(needle), "found {needle:?} in dashboard");
        }
    }

    #[test]
    fn dashboard_has_every_section() {
        let report = sample_report();
        let html = render_dashboard(Some(&report), &sample_history(3));
        for needle in [
            "Phase timings",
            "Solver iterations to tolerance",
            "Model vs simulation accuracy",
            "Model vs simulation divergence",
            "Coherence event mix",
            "Dragon updates",
            "Sim accesses/s",
            "Run history",
            "Table view",
            "<svg",
            "prefers-color-scheme: dark",
            "clean — no solver divergences",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        // The accuracy table carries the traced curve.
        assert!(html.contains("POPS"));
    }

    #[test]
    fn dashboard_without_trace_or_history_still_renders() {
        let html = render_dashboard(None, &[]);
        assert!(html.contains("No trace supplied"));
        assert!(html.contains("Fewer than two recorded runs"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn divergences_surface_as_critical_status_with_icon() {
        let mut report = sample_report();
        report.convergence.divergences = 2;
        let html = render_dashboard(Some(&report), &[]);
        assert!(html.contains("status critical"));
        assert!(html.contains("2 solver divergence(s)"));
        assert!(html.contains('\u{2717}'), "icon pairs with the color");
    }

    #[test]
    fn html_escapes_attacker_controlled_names() {
        let jsonl = r#"{"ev":"start","name":"<b>&evil</b>","span":1,"parent":0,"seq":0,"thread":1}
{"ev":"end","name":"<b>&evil</b>","span":1,"parent":0,"seq":1,"thread":1,"dur_ns":10}"#;
        let report = analyze(jsonl);
        let html = render_dashboard(Some(&report), &[]);
        assert!(!html.contains("<b>&evil"));
        assert!(html.contains("&lt;b&gt;&amp;evil"));
    }

    #[test]
    fn bar_paths_handle_degenerate_widths() {
        // Sliver bars clamp the corner radius instead of emitting
        // negative segment lengths or NaN.
        for p in [
            bar_path(0.0, 0.0, 0.5, 16.0),
            bar_path(0.0, 0.0, 1.0, 2.0),
            bar_path(0.0, 0.0, 200.0, 16.0),
        ] {
            assert!(!p.contains("NaN"), "{p}");
            assert!(!p.contains("h--") && !p.contains("v-"), "{p}");
        }
        let chart = bar_chart(&[("x".to_string(), 0.0)], "ms");
        assert!(chart.contains("<svg"));
    }
}
