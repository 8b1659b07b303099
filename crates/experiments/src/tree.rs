//! Parsing JSONL traces back into typed events and span trees.
//!
//! [`swcc_obs::trace`] is the write side: spans and events stream out
//! as newline-delimited JSON via [`swcc_obs::trace::event_to_jsonl`].
//! This module is the read side — it parses those lines back into
//! [`ParsedEvent`]s and reconstructs the cross-thread span tree
//! ([`SpanTree`]) that `span_under` parent ids encode, so the analysis
//! commands (`repro trace-report`, `repro trace-export`) can attribute
//! time to phases without re-running anything.
//!
//! Each line is read with the vendored `serde_json`, the workspace's
//! one JSON reader. Integers and floats stay distinct in
//! [`serde::Value`] (span ids must not round-trip through `f64`), and a
//! JSON `null` — how the writer encodes a non-finite float — stays
//! [`Value::Null`].
//!
//! Ingestion is deliberately lenient: a truncated or corrupt line is
//! counted in [`ParsedTrace::skipped`] rather than aborting the whole
//! parse, because a trace cut off mid-write (capacity overflow, killed
//! process) is still mostly useful.
//!
//! ```
//! use swcc_experiments::tree::{parse_trace, SpanTree};
//!
//! let jsonl = "\
//! {\"ev\":\"start\",\"name\":\"batch\",\"span\":1,\"parent\":0,\"seq\":0,\"thread\":1}\n\
//! {\"ev\":\"start\",\"name\":\"solve\",\"span\":2,\"parent\":1,\"seq\":1,\"thread\":2}\n\
//! {\"ev\":\"end\",\"name\":\"solve\",\"span\":2,\"parent\":1,\"seq\":2,\"thread\":2,\"dur_ns\":400}\n\
//! {\"ev\":\"end\",\"name\":\"batch\",\"span\":1,\"parent\":0,\"seq\":3,\"thread\":1,\"dur_ns\":1000}\n";
//! let trace = parse_trace(jsonl);
//! assert_eq!(trace.skipped, 0);
//! let tree = SpanTree::build(&trace.events);
//! let timings = tree.name_timings();
//! assert_eq!(timings["batch"].total_ns, 1000);
//! assert_eq!(timings["batch"].self_ns, 600); // 1000 − 400 in "solve"
//! ```

use std::collections::BTreeMap;

use serde::Value;
use swcc_obs::EventKind;

// --- parsed events ------------------------------------------------------

/// One trace record parsed back from its JSONL line.
///
/// The owned mirror of [`swcc_obs::TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Record kind (`start` / `end` / `point` on the wire).
    pub kind: EventKind,
    /// Event or span name.
    pub name: String,
    /// Id of the span this record belongs to (`0` = none).
    pub span: u64,
    /// Id of the enclosing span (`0` = root).
    pub parent: u64,
    /// Process-wide sequence number.
    pub seq: u64,
    /// Small per-thread ordinal.
    pub thread: u64,
    /// Duration in nanoseconds; present only on `end` records.
    pub dur_ns: Option<u64>,
    /// Structured payload, in wire order. Every value is a JSON scalar.
    pub fields: Vec<(String, Value)>,
}

impl ParsedEvent {
    /// Looks up a field value by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A whole trace file parsed leniently.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Events that parsed cleanly, in input order.
    pub events: Vec<ParsedEvent>,
    /// Lines skipped because they were truncated or corrupt. Blank
    /// lines are ignored without counting.
    pub skipped: usize,
}

/// Parses one JSONL trace line into a [`ParsedEvent`].
///
/// # Errors
///
/// Returns a description of the failure when the line is not valid
/// JSON, is not an object, is missing a required key (`ev`, `name`,
/// `span`, `parent`, `seq`, `thread`), or has a value of the wrong type.
pub fn parse_line(line: &str) -> Result<ParsedEvent, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let Value::Object(entries) = value else {
        return Err("trace line is not a JSON object".to_string());
    };
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let required_u64 = |key: &str| match get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not an unsigned integer")),
        None => Err(format!("missing `{key}`")),
    };
    let kind = match get("ev").and_then(Value::as_str) {
        Some("start") => EventKind::SpanStart,
        Some("end") => EventKind::SpanEnd,
        Some("point") => EventKind::Point,
        Some(other) => return Err(format!("unknown event kind `{other}`")),
        None => return Err("missing or non-string `ev`".to_string()),
    };
    let name = get("name")
        .and_then(Value::as_str)
        .ok_or("missing or non-string `name`")?
        .to_string();
    let dur_ns = match get("dur_ns") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("`dur_ns` is not an unsigned integer")?),
    };
    let fields = match get("fields") {
        None => Vec::new(),
        Some(Value::Object(pairs)) => {
            if let Some((key, _)) = pairs
                .iter()
                .find(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)))
            {
                return Err(format!("field `{key}` is not a scalar"));
            }
            pairs.clone()
        }
        Some(_) => return Err("`fields` is not an object".to_string()),
    };
    Ok(ParsedEvent {
        kind,
        name,
        span: required_u64("span")?,
        parent: required_u64("parent")?,
        seq: required_u64("seq")?,
        thread: required_u64("thread")?,
        dur_ns,
        fields,
    })
}

/// Parses a whole JSONL trace, skipping corrupt lines.
///
/// Blank lines are ignored silently; lines that fail [`parse_line`]
/// are counted in [`ParsedTrace::skipped`]. An empty input yields an
/// empty event list with zero skips.
pub fn parse_trace(text: &str) -> ParsedTrace {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(event) => events.push(event),
            Err(_) => skipped += 1,
        }
    }
    ParsedTrace { events, skipped }
}

// --- span tree ----------------------------------------------------------

/// One reconstructed span in a [`SpanTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span id from the wire (`span` field of its start/end).
    pub id: u64,
    /// Span name.
    pub name: String,
    /// Thread ordinal the span ran on.
    pub thread: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Sequence number of the start record (or of the end record for
    /// an orphan end whose start was lost).
    pub start_seq: u64,
    /// Duration from the end record; `None` while unclosed.
    pub dur_ns: Option<u64>,
    /// `true` once the end record was seen.
    pub closed: bool,
    /// Fields recorded on the start event.
    pub fields: Vec<(String, Value)>,
    /// Child node indices into [`SpanTree::nodes`], in start order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Looks up a start-event field value by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Aggregated timing for all closed spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameTiming {
    /// Closed spans with this name.
    pub count: u64,
    /// Sum of their durations (includes time in child spans).
    pub total_ns: u64,
    /// Sum of their self times (duration minus closed children).
    pub self_ns: u64,
}

/// The span forest reconstructed from a parsed trace.
///
/// Spans are linked by the explicit `parent` ids the writer recorded —
/// including the cross-thread links [`swcc_obs::span_under`] creates —
/// so worker-side spans nest under the batch span that spawned them
/// even though they ran on different threads. A span whose parent never
/// appears in the trace becomes a root rather than being dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    index: BTreeMap<u64, usize>,
    unclosed: usize,
}

impl SpanTree {
    /// Builds the tree from parsed events.
    ///
    /// Events are processed in `seq` order regardless of input order. A
    /// `start` creates a node; an `end` closes it (an `end` with no
    /// matching `start` — lost to sink capacity — creates a closed
    /// orphan node so its time is still attributed). Point events do
    /// not create nodes.
    pub fn build(events: &[ParsedEvent]) -> SpanTree {
        let mut order: Vec<&ParsedEvent> = events.iter().collect();
        order.sort_by_key(|e| e.seq);

        let mut tree = SpanTree {
            nodes: Vec::new(),
            roots: Vec::new(),
            index: BTreeMap::new(),
            unclosed: 0,
        };
        for event in order {
            match event.kind {
                EventKind::SpanStart => {
                    if event.span == 0 || tree.index.contains_key(&event.span) {
                        continue; // malformed or duplicate start
                    }
                    tree.insert_node(SpanNode {
                        id: event.span,
                        name: event.name.clone(),
                        thread: event.thread,
                        parent: event.parent,
                        start_seq: event.seq,
                        dur_ns: None,
                        closed: false,
                        fields: event.fields.clone(),
                        children: Vec::new(),
                    });
                }
                EventKind::SpanEnd => {
                    if event.span == 0 {
                        continue;
                    }
                    match tree.index.get(&event.span).copied() {
                        Some(idx) => {
                            let node = &mut tree.nodes[idx];
                            if !node.closed {
                                node.closed = true;
                                node.dur_ns = event.dur_ns;
                            }
                        }
                        None => {
                            // Orphan end: the start fell off the sink.
                            tree.insert_node(SpanNode {
                                id: event.span,
                                name: event.name.clone(),
                                thread: event.thread,
                                parent: event.parent,
                                start_seq: event.seq,
                                dur_ns: event.dur_ns,
                                closed: true,
                                fields: Vec::new(),
                                children: Vec::new(),
                            });
                        }
                    }
                }
                EventKind::Point => {}
            }
        }
        tree.unclosed = tree.nodes.iter().filter(|n| !n.closed).count();
        tree
    }

    fn insert_node(&mut self, node: SpanNode) {
        let idx = self.nodes.len();
        let parent = node.parent;
        self.index.insert(node.id, idx);
        self.nodes.push(node);
        match self.index.get(&parent).copied() {
            Some(parent_idx) if parent != 0 => self.nodes[parent_idx].children.push(idx),
            _ => self.roots.push(idx),
        }
    }

    /// All nodes, in start order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of root nodes (parent `0` or parent not in the trace).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The node index for a wire span id.
    pub fn node_for_span(&self, span_id: u64) -> Option<usize> {
        self.index.get(&span_id).copied()
    }

    /// Spans that never saw their end record.
    pub fn unclosed(&self) -> usize {
        self.unclosed
    }

    /// Self time of node `idx`: its duration minus the durations of its
    /// closed children, saturating at zero (clock skew between parent
    /// and child reads can make children nominally exceed the parent).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let total = node.dur_ns.unwrap_or(0);
        let in_children: u64 = node
            .children
            .iter()
            .map(|&c| self.nodes[c].dur_ns.unwrap_or(0))
            .fold(0u64, u64::saturating_add);
        total.saturating_sub(in_children)
    }

    /// Per-name total/self aggregation over closed spans.
    pub fn name_timings(&self) -> BTreeMap<String, NameTiming> {
        let mut out: BTreeMap<String, NameTiming> = BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if !node.closed {
                continue;
            }
            let entry = out.entry(node.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns = entry.total_ns.saturating_add(node.dur_ns.unwrap_or(0));
            entry.self_ns = entry.self_ns.saturating_add(self.self_ns(idx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcc_obs::trace::{event_to_jsonl, Field, TraceEvent};

    #[allow(clippy::too_many_arguments)]
    fn line(
        kind: EventKind,
        name: &'static str,
        span: u64,
        parent: u64,
        seq: u64,
        thread: u64,
        dur_ns: Option<u128>,
        fields: &[Field],
    ) -> String {
        event_to_jsonl(&TraceEvent {
            kind,
            name,
            span,
            parent,
            seq,
            thread,
            duration_ns: dur_ns,
            sampled: false,
            fields,
        })
    }

    #[test]
    fn round_trips_writer_output() {
        let wire = line(
            EventKind::SpanEnd,
            "t.fmt",
            9,
            3,
            77,
            2,
            Some(1234),
            &[
                Field::u64("u", 42),
                Field::i64("i", -7),
                Field::f64("f", 0.25),
                Field::f64("nan", f64::NAN),
                Field::bool("b", true),
                Field::str("s", "say \"hi\"\n"),
            ],
        );
        let parsed = parse_line(&wire).unwrap();
        assert_eq!(parsed.kind, EventKind::SpanEnd);
        assert_eq!(parsed.name, "t.fmt");
        assert_eq!(
            (parsed.span, parsed.parent, parsed.seq, parsed.thread),
            (9, 3, 77, 2)
        );
        assert_eq!(parsed.dur_ns, Some(1234));
        assert_eq!(parsed.field("u"), Some(&Value::UInt(42)));
        assert_eq!(parsed.field("i"), Some(&Value::Int(-7)));
        assert_eq!(parsed.field("f"), Some(&Value::Float(0.25)));
        assert_eq!(parsed.field("nan"), Some(&Value::Null));
        assert_eq!(parsed.field("b"), Some(&Value::Bool(true)));
        assert_eq!(
            parsed.field("s").and_then(Value::as_str),
            Some("say \"hi\"\n")
        );
        assert_eq!(parsed.field("absent"), None);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        let parsed =
            parse_line(r#"{"ev":"point","name":"é😀","span":0,"parent":0,"seq":1,"thread":1}"#)
                .unwrap();
        assert_eq!(parsed.name, "é😀");
        let escaped = parse_line(
            r#"{"ev":"point","name":"\u00e9\ud83d\ude00","span":0,"parent":0,"seq":1,"thread":1}"#,
        )
        .unwrap();
        assert_eq!(escaped.name, "é😀");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"ev":"start"}"#,
            r#"{"ev":"warp","name":"x","span":1,"parent":0,"seq":0,"thread":1}"#,
            r#"{"ev":"start","name":"x","span":1,"parent":0,"seq":0,"thread":1"#,
            r#"{"ev":"start","name":"x","span":-1,"parent":0,"seq":0,"thread":1}"#,
            r#"{"ev":"start","name":"x","span":1,"parent":0,"seq":0,"thread":1} extra"#,
            r#"{"ev":"start","name":"x","span":1,"parent":0,"seq":0,"thread":1,"fields":{"a":[1]}}"#,
            r#"{"ev":"end","name":"x","span":1,"parent":0,"seq":0,"thread":1,"dur_ns":1.5}"#,
        ] {
            assert!(parse_line(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn parse_trace_skips_corrupt_lines_and_blank_lines() {
        let text = format!(
            "{}\n\n{}\ngarbage\n{}",
            line(EventKind::SpanStart, "a", 1, 0, 0, 1, None, &[]),
            "{\"ev\":\"start\",\"name\":\"trunc",
            line(EventKind::SpanEnd, "a", 1, 0, 1, 1, Some(10), &[]),
        );
        let trace = parse_trace(&text);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.skipped, 2);
        assert_eq!(parse_trace("").skipped, 0);
        assert!(parse_trace("").events.is_empty());
    }

    #[test]
    fn lines_the_strict_reader_rejects_are_skipped_not_misread() {
        // A high surrogate without its low half, a raw control
        // character and a signed `\u` escape are not JSON: each such
        // line is skipped, never read with a wrong name.
        let good = line(EventKind::Point, "ok", 0, 0, 0, 1, None, &[]);
        let text = [
            good.clone(),
            good.replace("\"ok\"", r#""\ud800\u0041""#),
            good.replace("\"ok\"", "\"o\u{1}k\""),
            good.replace("\"ok\"", r#""\u+041""#),
        ]
        .join("\n");
        let trace = parse_trace(&text);
        assert_eq!(trace.skipped, 3);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "ok");
    }

    #[test]
    fn tree_links_cross_thread_spans_by_parent_id() {
        // Batch span on thread 1; two workers on threads 2 and 3 use
        // span_under-style explicit parenting; one nested solve.
        let text = [
            line(EventKind::SpanStart, "batch", 1, 0, 0, 1, None, &[]),
            line(EventKind::SpanStart, "work", 2, 1, 1, 2, None, &[]),
            line(EventKind::SpanStart, "work", 3, 1, 2, 3, None, &[]),
            line(EventKind::SpanStart, "solve", 4, 2, 3, 2, None, &[]),
            line(EventKind::SpanEnd, "solve", 4, 2, 4, 2, Some(100), &[]),
            line(EventKind::SpanEnd, "work", 2, 1, 5, 2, Some(300), &[]),
            line(EventKind::SpanEnd, "work", 3, 1, 6, 3, Some(500), &[]),
            line(EventKind::SpanEnd, "batch", 1, 0, 7, 1, Some(1000), &[]),
        ]
        .join("\n");
        let trace = parse_trace(&text);
        assert_eq!(trace.skipped, 0);
        let tree = SpanTree::build(&trace.events);
        assert_eq!(tree.nodes().len(), 4);
        assert_eq!(tree.unclosed(), 0);
        assert_eq!(tree.roots().len(), 1);

        let batch = tree.node_for_span(1).unwrap();
        assert_eq!(tree.nodes()[batch].children.len(), 2);
        let w2 = tree.node_for_span(2).unwrap();
        assert_eq!(
            tree.nodes()[w2].children,
            vec![tree.node_for_span(4).unwrap()]
        );

        // Self times: batch 1000 − (300 + 500) = 200; work#2 300 − 100.
        assert_eq!(tree.self_ns(batch), 200);
        assert_eq!(tree.self_ns(w2), 200);

        let timings = tree.name_timings();
        assert_eq!(timings["work"].count, 2);
        assert_eq!(timings["work"].total_ns, 800);
        assert_eq!(timings["work"].self_ns, 700);
        assert_eq!(timings["batch"].self_ns, 200);
        assert_eq!(timings["solve"].self_ns, 100);
    }

    #[test]
    fn out_of_order_input_and_orphans_are_handled() {
        // End before start in file order (but seq orders them), plus an
        // orphan end whose start fell off the sink, plus an unclosed
        // span and a span with an unknown parent.
        let text = [
            line(EventKind::SpanEnd, "a", 1, 0, 3, 1, Some(50), &[]),
            line(EventKind::SpanStart, "a", 1, 0, 0, 1, None, &[]),
            line(EventKind::SpanEnd, "orphan", 7, 1, 4, 1, Some(5), &[]),
            line(EventKind::SpanStart, "unclosed", 8, 1, 5, 1, None, &[]),
            line(EventKind::SpanStart, "adrift", 9, 999, 6, 1, None, &[]),
            line(EventKind::SpanEnd, "adrift", 9, 999, 7, 1, Some(2), &[]),
        ]
        .join("\n");
        let trace = parse_trace(&text);
        let tree = SpanTree::build(&trace.events);
        assert_eq!(tree.unclosed(), 1);
        // `adrift` has an unknown parent → becomes a root.
        assert_eq!(tree.roots().len(), 2);
        let a = tree.node_for_span(1).unwrap();
        assert!(tree.nodes()[a].closed);
        assert_eq!(tree.nodes()[a].dur_ns, Some(50));
        let orphan = tree.node_for_span(7).unwrap();
        assert!(tree.nodes()[orphan].closed);
        // Orphan parents under `a` because span 1 exists.
        assert!(tree.nodes()[a].children.contains(&orphan));
        // Unclosed spans are excluded from name timings.
        assert!(!tree.name_timings().contains_key("unclosed"));
    }

    #[test]
    fn children_exceeding_parent_saturate_self_time() {
        let text = [
            line(EventKind::SpanStart, "p", 1, 0, 0, 1, None, &[]),
            line(EventKind::SpanStart, "c", 2, 1, 1, 1, None, &[]),
            line(EventKind::SpanEnd, "c", 2, 1, 2, 1, Some(150), &[]),
            line(EventKind::SpanEnd, "p", 1, 0, 3, 1, Some(100), &[]),
        ]
        .join("\n");
        let tree = SpanTree::build(&parse_trace(&text).events);
        assert_eq!(tree.self_ns(tree.node_for_span(1).unwrap()), 0);
    }
}
