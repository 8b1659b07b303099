//! Property tests of the trace analytics pipeline: arbitrary span
//! forests serialized through the real wire writer
//! ([`swcc_obs::trace::event_to_jsonl`]) must round-trip through the
//! parser and span tree ([`swcc_experiments::tree`]) with identical structure
//! and durations, and the Chrome / folded exporters must stay
//! internally consistent (valid JSON, self-times partitioning the root
//! total).

use proptest::prelude::*;

use serde::Value;
use swcc_experiments::trace_export::{export, export_chrome, ExportFormat};
use swcc_experiments::tree::{parse_line, parse_trace, SpanTree};
use swcc_obs::trace::{event_to_jsonl, EventKind, Field, TraceEvent};

/// Span names the generator draws from; includes characters the folded
/// exporter must escape (space, semicolon).
const NAMES: [&str; 5] = [
    "runner.batch",
    "runner.experiment",
    "patel.solve",
    "mva sweep",
    "odd;name",
];

/// A model span: what the trace *should* describe.
#[derive(Debug, Clone)]
struct SpanSpec {
    name: &'static str,
    self_ns: u64,
    children: Vec<SpanSpec>,
}

impl SpanSpec {
    fn total_ns(&self) -> u64 {
        self.self_ns + self.children.iter().map(SpanSpec::total_ns).sum::<u64>()
    }

    fn count(&self) -> usize {
        1 + self.children.iter().map(SpanSpec::count).sum::<usize>()
    }
}

/// Folds a flat recipe of `(name_idx, self_ns, arity)` items into a
/// tree, depth-capped; an exhausted recipe yields leaves.
fn build_spec(items: &mut std::slice::Iter<'_, (u64, u64, u64)>, depth: u32) -> SpanSpec {
    let &(name_idx, self_ns, arity) = items.next().unwrap_or(&(0, 1, 0));
    let n_children = if depth >= 3 { 0 } else { arity as usize };
    SpanSpec {
        name: NAMES[name_idx as usize % NAMES.len()],
        self_ns: self_ns.max(1),
        children: (0..n_children)
            .map(|_| build_spec(items, depth + 1))
            .collect(),
    }
}

/// A strategy over single-root span trees.
fn span_specs() -> impl Strategy<Value = SpanSpec> {
    prop::collection::vec((0u64..5, 1u64..10_000, 0u64..4), 1..40)
        .prop_map(|recipe| build_spec(&mut recipe.iter(), 0))
}

/// Serializes a spec depth-first through the real wire writer,
/// returning the JSONL text. Start/end pairs carry the model's
/// nesting; durations are `self + Σ children`.
fn emit(spec: &SpanSpec) -> String {
    fn walk(
        spec: &SpanSpec,
        parent: u64,
        lines: &mut Vec<String>,
        next_span: &mut u64,
        next_seq: &mut u64,
    ) -> u64 {
        let span = *next_span;
        *next_span += 1;
        lines.push(event_to_jsonl(&TraceEvent {
            kind: EventKind::SpanStart,
            name: spec.name,
            span,
            parent,
            seq: *next_seq,
            thread: 1,
            duration_ns: None,
            sampled: false,
            fields: &[],
        }));
        *next_seq += 1;
        let mut total = spec.self_ns;
        for child in &spec.children {
            total += walk(child, span, lines, next_span, next_seq);
        }
        lines.push(event_to_jsonl(&TraceEvent {
            kind: EventKind::SpanEnd,
            name: spec.name,
            span,
            parent,
            seq: *next_seq,
            thread: 1,
            duration_ns: Some(u128::from(total)),
            sampled: false,
            fields: &[],
        }));
        *next_seq += 1;
        total
    }
    let mut lines = Vec::new();
    let (mut next_span, mut next_seq) = (1, 0);
    walk(spec, 0, &mut lines, &mut next_span, &mut next_seq);
    lines.join("\n")
}

/// Asserts the reconstructed subtree at `idx` matches `spec` exactly:
/// name, closed duration, self time, child count and child order.
fn assert_matches(tree: &SpanTree, idx: usize, spec: &SpanSpec) {
    let node = &tree.nodes()[idx];
    assert_eq!(node.name, spec.name);
    assert!(node.closed);
    assert_eq!(node.dur_ns, Some(spec.total_ns()));
    assert_eq!(tree.self_ns(idx), spec.self_ns);
    assert_eq!(node.children.len(), spec.children.len());
    for (&child_idx, child_spec) in node.children.iter().zip(&spec.children) {
        assert_matches(tree, child_idx, child_spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn span_trees_round_trip_through_the_wire_format(spec in span_specs()) {
        let jsonl = emit(&spec);
        let parsed = parse_trace(&jsonl);
        prop_assert_eq!(parsed.skipped, 0, "writer output always parses");
        prop_assert_eq!(parsed.events.len(), 2 * spec.count());
        let tree = SpanTree::build(&parsed.events);
        prop_assert_eq!(tree.unclosed(), 0);
        prop_assert_eq!(tree.roots().len(), 1, "generated forests have one root");
        assert_matches(&tree, tree.roots()[0], &spec);
    }

    #[test]
    fn folded_self_times_partition_the_root_total(spec in span_specs()) {
        let jsonl = emit(&spec);
        let folded = export(&jsonl, ExportFormat::Folded);
        prop_assert_eq!(folded.skipped_lines, 0);
        prop_assert_eq!(folded.unclosed_spans, 0);
        let mut sum = 0u64;
        for line in folded.output.lines() {
            let (path, value) = line.rsplit_once(' ').expect("folded line is 'path value'");
            prop_assert!(!path.is_empty());
            prop_assert!(
                !path.contains(' '),
                "frame whitespace must be escaped: {}", path
            );
            sum += value.parse::<u64>().expect("folded weight is integer ns");
        }
        // A sequential single-root trace partitions exactly: every
        // nanosecond of the root belongs to exactly one frame's self
        // time (the 1%-tolerance acceptance bound, met with 0%).
        prop_assert_eq!(sum, spec.total_ns());
    }

    #[test]
    fn chrome_export_is_valid_json_with_consistent_timestamps(spec in span_specs()) {
        let jsonl = emit(&spec);
        let parsed = parse_trace(&jsonl);
        let chrome = export_chrome(&parsed);
        let value: serde_json::Value =
            serde_json::from_str(&chrome).expect("chrome export is valid JSON");
        let events = value
            .get_field("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents array");
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get_field("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .collect();
        prop_assert_eq!(complete.len(), spec.count(), "one X event per closed span");
        let total_us = spec.total_ns() as f64 / 1000.0;
        let mut max_end = 0.0f64;
        for event in &complete {
            let ts = event
                .get_field("ts")
                .and_then(serde_json::Value::as_f64)
                .expect("X events carry ts");
            let dur = event
                .get_field("dur")
                .and_then(serde_json::Value::as_f64)
                .expect("X events carry dur");
            prop_assert!(ts >= 0.0 && dur >= 0.0);
            prop_assert!(
                ts + dur <= total_us + 1e-6,
                "span [{}, {}] escapes the root window {}", ts, ts + dur, total_us
            );
            max_end = max_end.max(ts + dur);
            prop_assert!(
                event
                    .get_field("args")
                    .and_then(|a| a.get_field("span_id"))
                    .is_some(),
                "X events carry their span id"
            );
        }
        prop_assert!(
            (max_end - total_us).abs() < 1e-6,
            "the root span must span the whole timeline"
        );
        prop_assert!(
            events.iter().any(|e| {
                e.get_field("ph").and_then(serde_json::Value::as_str) == Some("M")
            }),
            "thread-name metadata present"
        );
    }

    #[test]
    fn scalar_fields_round_trip_through_the_wire_format(
        u in 0u64..u64::MAX / 2,
        i in 1u64..1_000_000,
        f in -1e12..1e12f64,
        flag in prop::bool::ANY,
        text in prop::collection::vec(0u64..6, 0..12),
    ) {
        // Exercise escaping: quote, backslash, control, non-ASCII.
        const CHARS: [char; 6] = ['a', '"', '\\', '\n', 'é', '\u{1F600}'];
        let i = -(i as i64);
        let s: String = text.iter().map(|&c| CHARS[c as usize]).collect();
        let fields = [
            Field::u64("u", u),
            Field::i64("i", i),
            Field::f64("f", f),
            Field::bool("b", flag),
            Field::text("s", s.clone()),
        ];
        let line = event_to_jsonl(&TraceEvent {
            kind: EventKind::Point,
            name: "probe",
            span: 7,
            parent: 3,
            seq: 11,
            thread: 2,
            duration_ns: None,
            sampled: false,
            fields: &fields,
        });
        let event = parse_line(&line).expect("writer output parses");
        prop_assert_eq!(event.name.as_str(), "probe");
        prop_assert_eq!((event.span, event.parent, event.seq, event.thread), (7, 3, 11, 2));
        prop_assert_eq!(event.field("u").and_then(Value::as_u64), Some(u));
        prop_assert_eq!(event.field("i").and_then(Value::as_f64), Some(i as f64));
        prop_assert_eq!(event.field("f").and_then(Value::as_f64), Some(f));
        prop_assert_eq!(event.field("b").and_then(Value::as_bool), Some(flag));
        prop_assert_eq!(event.field("s").and_then(Value::as_str), Some(s.as_str()));
    }
}
