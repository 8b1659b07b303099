//! Exporting `repro --trace` JSONL files to external profiler formats:
//! the `trace-export` subcommand.
//!
//! Two targets:
//!
//! * **Chrome trace-event JSON** ([`export_chrome`]) — loads in
//!   Perfetto / `chrome://tracing`. Each closed span becomes a
//!   complete (`"ph":"X"`) event on its worker's track (thread ordinal
//!   → `tid`), point events become instants, and thread-name metadata
//!   labels the tracks.
//! * **Folded stacks** ([`export_folded`]) — `root;child;leaf N` lines
//!   with *self*-time attribution (span duration minus closed
//!   children), the input format of `flamegraph.pl`, `inferno`, and
//!   speedscope. This is what makes "Patel solver vs MVA vs simulator"
//!   hot paths directly visible.
//!
//! The trace wire format carries no absolute timestamps — only a
//! global sequence number and a duration on each span end — so the
//! Chrome exporter *synthesizes* a timeline: events are laid out in
//! `seq` order, each thread keeps a monotonic lane cursor, and a span
//! starts at the later of its lane cursor and its parent's start. The
//! result preserves relative ordering, nesting, and measured
//! durations; the absolute scale is a reconstruction, not wall-clock
//! truth (concurrent spans are laid out from their own lane cursors,
//! so cross-thread overlap is approximate).
//!
//! Ingestion is lenient (see [`crate::tree::parse_trace`]):
//! truncated or corrupt lines are skipped and counted, never fatal.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde::Value;
use swcc_obs::EventKind;

use crate::tree::{parse_trace, ParsedEvent, ParsedTrace, SpanTree};

/// Output format for [`export`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Folded flamegraph stacks with self-time attribution.
    Folded,
}

impl ExportFormat {
    /// Parses a `--format` value.
    pub fn from_name(name: &str) -> Option<ExportFormat> {
        match name {
            "chrome" => Some(ExportFormat::Chrome),
            "folded" => Some(ExportFormat::Folded),
            _ => None,
        }
    }
}

/// The result of one export: the rendered output plus ingestion
/// diagnostics the CLI surfaces as warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// The rendered Chrome JSON or folded-stack text.
    pub output: String,
    /// Corrupt/truncated JSONL lines skipped during parsing.
    pub skipped_lines: usize,
    /// Events parsed cleanly.
    pub events: usize,
    /// Spans that never saw their end record (excluded from output).
    pub unclosed_spans: usize,
}

/// Parses a JSONL trace (leniently) and renders it in `format`.
pub fn export(jsonl: &str, format: ExportFormat) -> Export {
    let trace = parse_trace(jsonl);
    let tree = SpanTree::build(&trace.events);
    let output = match format {
        ExportFormat::Chrome => export_chrome(&trace),
        ExportFormat::Folded => export_folded(&tree),
    };
    Export {
        output,
        skipped_lines: trace.skipped,
        events: trace.events.len(),
        unclosed_spans: tree.unclosed(),
    }
}

// --- chrome trace-event export ------------------------------------------

/// A JSON object with `entries` in order.
fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Microseconds (Chrome's unit) from synthesized nanoseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The event category Perfetto filters on: the name's first dotted
/// segment (`patel.solve` → `patel`).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders a parsed trace as Chrome trace-event JSON.
///
/// Timestamps are synthesized (see the module docs): per-thread lane
/// cursors advance in global `seq` order, so `ts` is monotonically
/// non-decreasing within each `tid` and every complete event's
/// `[ts, ts + dur]` window nests inside its same-thread parent.
/// Unclosed spans are omitted.
pub fn export_chrome(trace: &ParsedTrace) -> String {
    let mut order: Vec<&ParsedEvent> = trace.events.iter().collect();
    order.sort_by_key(|e| e.seq);

    // thread ordinal → lane cursor (synthesized ns).
    let mut lane_now: BTreeMap<u64, u64> = BTreeMap::new();
    // open span id → (synthesized start ns, start fields).
    let mut open: BTreeMap<u64, (u64, Vec<(String, Value)>)> = BTreeMap::new();
    let mut threads: BTreeSet<u64> = BTreeSet::new();
    let mut records: Vec<Value> = Vec::new();

    for event in order {
        threads.insert(event.thread);
        let now = lane_now.get(&event.thread).copied().unwrap_or(0);
        let name = || Value::Str(event.name.clone());
        let cat = || Value::Str(category(&event.name).to_string());
        match event.kind {
            EventKind::SpanStart => {
                let parent_start = open.get(&event.parent).map(|(ts, _)| *ts).unwrap_or(0);
                let start = now.max(parent_start);
                lane_now.insert(event.thread, start);
                open.insert(event.span, (start, event.fields.clone()));
            }
            EventKind::SpanEnd => {
                let (start, mut args) = open
                    .remove(&event.span)
                    .unwrap_or_else(|| (now, Vec::new()));
                let dur = event.dur_ns.unwrap_or(0);
                lane_now.insert(event.thread, now.max(start.saturating_add(dur)));
                args.push(("span_id".to_string(), Value::UInt(event.span)));
                records.push(object(vec![
                    ("name", name()),
                    ("cat", cat()),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Float(us(start))),
                    ("dur", Value::Float(us(dur))),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(event.thread)),
                    ("args", Value::Object(args)),
                ]));
            }
            EventKind::Point => records.push(object(vec![
                ("name", name()),
                ("cat", cat()),
                ("ph", Value::Str("i".to_string())),
                ("ts", Value::Float(us(now))),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(event.thread)),
                ("s", Value::Str("t".to_string())),
                ("args", Value::Object(event.fields.clone())),
            ])),
        }
    }

    let mut events: Vec<Value> = threads
        .iter()
        .map(|&thread| {
            let label = if thread == 1 {
                "main".to_string()
            } else {
                format!("worker-{}", thread - 1)
            };
            object(vec![
                ("name", Value::Str("thread_name".to_string())),
                ("ph", Value::Str("M".to_string())),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(thread)),
                ("args", object(vec![("name", Value::Str(label))])),
            ])
        })
        .collect();
    events.extend(records);
    let document = object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&document).expect("JSON value serialization is infallible")
}

// --- folded flamegraph export -------------------------------------------

/// A frame name safe for the folded format: `;` separates frames and
/// whitespace separates the count, so both are replaced.
fn fold_frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c => c,
        })
        .collect()
}

/// Renders a span tree as folded flamegraph stacks.
///
/// One line per distinct root-to-span path, `a;b;c <self_ns>`, where
/// the count is the path's aggregate *self* time in nanoseconds
/// (duration minus closed children). Unclosed spans and zero-self
/// paths are omitted. For a sequential trace the line counts sum to
/// the root spans' total time exactly (self-time is a partition of
/// each closed span); for a parallel trace they sum to aggregate CPU
/// time across workers, which exceeds wall-clock.
pub fn export_folded(tree: &SpanTree) -> String {
    let mut paths: BTreeMap<String, u64> = BTreeMap::new();
    for (idx, node) in tree.nodes().iter().enumerate() {
        if !node.closed {
            continue;
        }
        let self_ns = tree.self_ns(idx);
        if self_ns == 0 {
            continue;
        }
        // Walk ancestors by span id to build the root-first path.
        let mut frames = vec![fold_frame(&node.name)];
        let mut parent = node.parent;
        while parent != 0 {
            match tree.node_for_span(parent) {
                Some(p) => {
                    frames.push(fold_frame(&tree.nodes()[p].name));
                    parent = tree.nodes()[p].parent;
                }
                None => break,
            }
        }
        frames.reverse();
        let path = frames.join(";");
        *paths.entry(path).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (path, self_ns) in paths {
        let _ = writeln!(out, "{path} {self_ns}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        [
            r#"{"ev":"start","name":"runner.batch","span":1,"parent":0,"seq":0,"thread":1,"fields":{"experiments":2}}"#,
            r#"{"ev":"start","name":"runner.experiment","span":2,"parent":1,"seq":1,"thread":2,"fields":{"id":"fig1","worker":0}}"#,
            r#"{"ev":"start","name":"patel.solve","span":3,"parent":2,"seq":2,"thread":2,"fields":{"rate":0.03}}"#,
            r#"{"ev":"point","name":"patel.result","span":3,"parent":3,"seq":3,"thread":2,"fields":{"iterations":5,"converged":true}}"#,
            r#"{"ev":"end","name":"patel.solve","span":3,"parent":2,"seq":4,"thread":2,"dur_ns":4000}"#,
            r#"{"ev":"end","name":"runner.experiment","span":2,"parent":1,"seq":5,"thread":2,"dur_ns":9000}"#,
            r#"{"ev":"end","name":"runner.batch","span":1,"parent":0,"seq":6,"thread":1,"dur_ns":20000}"#,
        ]
        .join("\n")
    }

    fn trace_events(chrome: &str) -> Vec<Value> {
        let value: Value = serde_json::from_str(chrome).expect("chrome output is valid JSON");
        value
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array")
            .clone()
    }

    #[test]
    fn chrome_output_is_valid_and_shaped() {
        let export = export(&sample_trace(), ExportFormat::Chrome);
        assert_eq!(export.skipped_lines, 0);
        assert_eq!(export.unclosed_spans, 0);
        let events = trace_events(&export.output);

        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get_field("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3, "three closed spans");
        for e in &complete {
            assert!(e.get_field("name").and_then(Value::as_str).is_some());
            assert!(e.get_field("ts").and_then(Value::as_f64).unwrap() >= 0.0);
            assert!(e.get_field("dur").and_then(Value::as_f64).unwrap() >= 0.0);
            assert!(e.get_field("tid").and_then(Value::as_u64).is_some());
        }

        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get_field("ph").and_then(Value::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 1);

        let meta: Vec<&Value> = events
            .iter()
            .filter(|e| e.get_field("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2, "one thread_name record per thread");
    }

    #[test]
    fn chrome_timestamps_nest_within_same_thread_parents() {
        let export = export(&sample_trace(), ExportFormat::Chrome);
        let events = trace_events(&export.output);
        let span = |name: &str| -> (f64, f64) {
            let e = events
                .iter()
                .find(|e| {
                    e.get_field("ph").and_then(Value::as_str) == Some("X")
                        && e.get_field("name").and_then(Value::as_str) == Some(name)
                })
                .unwrap_or_else(|| panic!("span {name}"));
            (
                e.get_field("ts").and_then(Value::as_f64).unwrap(),
                e.get_field("dur").and_then(Value::as_f64).unwrap(),
            )
        };
        let (exp_ts, exp_dur) = span("runner.experiment");
        let (solve_ts, solve_dur) = span("patel.solve");
        assert!(solve_ts >= exp_ts, "child starts after parent");
        assert!(
            solve_ts + solve_dur <= exp_ts + exp_dur,
            "child ends within parent"
        );
    }

    #[test]
    fn folded_self_times_partition_root_total() {
        let export = export(&sample_trace(), ExportFormat::Folded);
        let mut total = 0u64;
        for line in export.output.lines() {
            let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
            assert!(!path.is_empty());
            total += count.parse::<u64>().expect("count is an integer");
        }
        // Root span is 20000 ns; self-times partition it exactly:
        // batch 11000 + experiment 5000 + solve 4000.
        assert_eq!(total, 20000);
        assert!(export
            .output
            .contains("runner.batch;runner.experiment;patel.solve 4000"));
    }

    #[test]
    fn lenient_ingestion_counts_corrupt_lines() {
        let jsonl = format!("{}\ngarbage line\n", sample_trace());
        let export = export(&jsonl, ExportFormat::Chrome);
        assert_eq!(export.skipped_lines, 1);
        assert_eq!(export.events, 7);
        // Output is still valid JSON.
        let _ = trace_events(&export.output);
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let chrome = export("", ExportFormat::Chrome);
        assert_eq!(chrome.events, 0);
        let events = trace_events(&chrome.output);
        assert!(events.is_empty());
        let folded = export("", ExportFormat::Folded);
        assert!(folded.output.is_empty());
    }

    #[test]
    fn unclosed_spans_are_excluded_and_counted() {
        let jsonl = r#"{"ev":"start","name":"hang","span":1,"parent":0,"seq":0,"thread":1}"#;
        let export = export(jsonl, ExportFormat::Chrome);
        assert_eq!(export.unclosed_spans, 1);
        assert!(trace_events(&export.output)
            .iter()
            .all(|e| e.get_field("ph").and_then(Value::as_str) != Some("X")));
    }

    #[test]
    fn fold_frames_escape_separators() {
        assert_eq!(fold_frame("a;b c"), "a:b_c");
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(
            ExportFormat::from_name("chrome"),
            Some(ExportFormat::Chrome)
        );
        assert_eq!(
            ExportFormat::from_name("folded"),
            Some(ExportFormat::Folded)
        );
        assert_eq!(ExportFormat::from_name("svg"), None);
    }
}
