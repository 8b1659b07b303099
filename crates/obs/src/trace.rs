//! Structured tracing: spans, events, and a pluggable [`EventSink`].
//!
//! The metrics layer ([`crate::counter_add`] and friends) answers "how
//! much work happened"; this module answers "in what order, nested how,
//! and with what intermediate values". It is the machinery behind
//! `repro --trace out.jsonl` and the `trace-report` diagnostics:
//! per-phase timing breakdowns, solver convergence trajectories, and
//! model-vs-simulation deltas all ride on these events.
//!
//! Three pieces:
//!
//! * **Spans** ([`span`], [`span_under`], [`Span`]) — nested, timed
//!   scopes (experiment → sweep → solve). A span emits a `start` event
//!   when opened and an `end` event (with its duration) when dropped;
//!   point events recorded while it is open carry its id as their
//!   parent, so a consumer can rebuild the tree.
//! * **Events** ([`event`], [`event_sampled`]) — single structured
//!   records with typed [`Field`]s. `event_sampled` marks
//!   high-frequency instrumentation (per-iteration solver residuals,
//!   per-access simulator arbitration) that sinks may downsample.
//! * **Sinks** ([`EventSink`], installed once via [`install_sink`]) —
//!   where events go. [`JsonlSink`] collects newline-delimited JSON
//!   into a lock-free slab for writing out at process exit.
//!
//! This crate only writes traces. The read side (parsing the lines back
//! into span trees) is `swcc_experiments::tree`.
//!
//! With no sink installed every entry point returns after **one relaxed
//! atomic load** — the same "observation is free when off" budget as
//! the metric dispatch — so instrumentation lives permanently inside
//! solver and simulator hot paths without moving benchmarks.
//!
//! ```
//! use swcc_obs::trace::{Field, JsonlSink};
//!
//! let sink = JsonlSink::with_capacity(16);
//! // (Normally installed process-wide with swcc_obs::trace::install_sink.)
//! # let _ = &sink;
//! let fields = [Field::u64("points", 64), Field::f64("service", 0.37)];
//! # let _ = fields;
//! ```

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::push_json_f64;

/// A typed value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values serialize as JSON `null`.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A static string (metric-style labels).
    Str(&'static str),
    /// An owned string (labels composed at runtime).
    Text(String),
}

/// One `key: value` pair on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name; stable, snake_case, unique within the event.
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

impl Field {
    /// An unsigned-integer field.
    pub fn u64(key: &'static str, value: u64) -> Field {
        Field {
            key,
            value: FieldValue::U64(value),
        }
    }

    /// A signed-integer field.
    pub fn i64(key: &'static str, value: i64) -> Field {
        Field {
            key,
            value: FieldValue::I64(value),
        }
    }

    /// A float field.
    pub fn f64(key: &'static str, value: f64) -> Field {
        Field {
            key,
            value: FieldValue::F64(value),
        }
    }

    /// A boolean field.
    pub fn bool(key: &'static str, value: bool) -> Field {
        Field {
            key,
            value: FieldValue::Bool(value),
        }
    }

    /// A static-string field.
    pub fn str(key: &'static str, value: &'static str) -> Field {
        Field {
            key,
            value: FieldValue::Str(value),
        }
    }

    /// An owned-string field.
    pub fn text(key: &'static str, value: String) -> Field {
        Field {
            key,
            value: FieldValue::Text(value),
        }
    }
}

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; `duration_ns` is set.
    SpanEnd,
    /// A point-in-time record inside (or outside) a span.
    Point,
}

impl EventKind {
    /// The wire name used in the JSONL `ev` field.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "start",
            EventKind::SpanEnd => "end",
            EventKind::Point => "point",
        }
    }
}

/// One structured record handed to the installed [`EventSink`].
///
/// Borrowed, not owned: sinks serialize or copy what they need and must
/// not retain the reference.
#[derive(Debug)]
pub struct TraceEvent<'a> {
    /// Record kind.
    pub kind: EventKind,
    /// Event or span name (`"patel.solve"`, `"runner.experiment"`, ...).
    pub name: &'static str,
    /// Id of the span this record belongs to (`0` = none). For
    /// `SpanStart`/`SpanEnd` this is the span's own id.
    pub span: u64,
    /// Id of the enclosing span (`0` = root).
    pub parent: u64,
    /// Process-wide sequence number; totally orders events across
    /// threads.
    pub seq: u64,
    /// Small per-thread ordinal (not an OS thread id).
    pub thread: u64,
    /// Wall-clock duration, set only on `SpanEnd`.
    pub duration_ns: Option<u128>,
    /// `true` for high-frequency events that sinks may downsample.
    pub sampled: bool,
    /// Structured payload.
    pub fields: &'a [Field],
}

/// A sink for trace events. Implementations must tolerate concurrent
/// calls from many threads.
pub trait EventSink: Sync {
    /// Records one event. Called on the instrumented code's thread, so
    /// implementations should stay cheap and must not block on I/O.
    fn record(&self, event: &TraceEvent<'_>);
}

/// Returned by [`install_sink`] when a sink is already installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkInstallError;

impl std::fmt::Display for SinkInstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a trace event sink is already installed")
    }
}

impl std::error::Error for SinkInstallError {}

static SINK: OnceLock<&'static dyn EventSink> = OnceLock::new();
static HAS_SINK: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static THREAD_ORD: Cell<u64> = const { Cell::new(0) };
}

/// Installs the process-wide event sink. Can succeed at most once.
///
/// # Errors
///
/// Returns [`SinkInstallError`] if a sink was already installed.
pub fn install_sink(sink: &'static dyn EventSink) -> Result<(), SinkInstallError> {
    SINK.set(sink).map_err(|_| SinkInstallError)?;
    HAS_SINK.store(true, Ordering::Release);
    Ok(())
}

/// `true` if a sink is installed and events will be recorded.
///
/// One relaxed atomic load: instrumentation sites that build fields or
/// spans hoist this check so the disabled path costs nothing else.
#[inline]
pub fn trace_enabled() -> bool {
    HAS_SINK.load(Ordering::Relaxed)
}

/// The installed sink, if any.
pub fn installed_sink() -> Option<&'static dyn EventSink> {
    SINK.get().copied()
}

fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|cell| {
        let mut ord = cell.get();
        if ord == 0 {
            ord = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
            cell.set(ord);
        }
        ord
    })
}

/// The id of the span currently open on this thread (`0` = none).
///
/// The experiment runner forwards this across its worker-thread
/// boundary via [`span_under`], so worker-side spans nest correctly
/// under the batch span opened on the spawning thread.
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

fn emit(
    kind: EventKind,
    name: &'static str,
    span: u64,
    parent: u64,
    duration_ns: Option<u128>,
    sampled: bool,
    fields: &[Field],
) {
    if let Some(sink) = installed_sink() {
        sink.record(&TraceEvent {
            kind,
            name,
            span,
            parent,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            thread: thread_ordinal(),
            duration_ns,
            sampled,
            fields,
        });
    }
}

/// Records a point event under the current span.
#[inline]
pub fn event(name: &'static str, fields: &[Field]) {
    if !trace_enabled() {
        return;
    }
    emit(
        EventKind::Point,
        name,
        current_span(),
        current_span(),
        None,
        false,
        fields,
    );
}

/// Records a high-frequency point event that sinks may downsample (see
/// [`JsonlSink::with_sampling`]).
#[inline]
pub fn event_sampled(name: &'static str, fields: &[Field]) {
    if !trace_enabled() {
        return;
    }
    emit(
        EventKind::Point,
        name,
        current_span(),
        current_span(),
        None,
        true,
        fields,
    );
}

/// An open trace span. Emits a `SpanEnd` event with its wall-clock
/// duration when dropped and restores the previous current span.
///
/// Inert (no allocation, no clock read, no sink calls) when no sink is
/// installed.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    id: u64,
    name: &'static str,
    parent: u64,
    /// The span that was current on this thread when this one opened;
    /// restored on drop. Distinct from `parent` for [`span_under`].
    previous: u64,
    start: Option<Instant>,
}

impl Span {
    /// This span's id (`0` if tracing is disabled), for explicit
    /// parenting across threads via [`span_under`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` if this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        CURRENT_SPAN.with(|cell| cell.set(self.previous));
        emit(
            EventKind::SpanEnd,
            self.name,
            self.id,
            self.parent,
            Some(start.elapsed().as_nanos()),
            false,
            &[],
        );
    }
}

fn open_span(name: &'static str, parent: u64, fields: &[Field]) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let previous = CURRENT_SPAN.with(|cell| cell.replace(id));
    emit(EventKind::SpanStart, name, id, parent, None, false, fields);
    Span {
        id,
        name,
        parent,
        previous,
        start: Some(Instant::now()),
    }
}

const INERT_SPAN: fn(&'static str) -> Span = |name| Span {
    id: 0,
    name,
    parent: 0,
    previous: 0,
    start: None,
};

/// Opens a span nested under the current span of this thread.
///
/// `fields` are recorded on the `start` event; the `end` event carries
/// the duration.
pub fn span(name: &'static str, fields: &[Field]) -> Span {
    if !trace_enabled() {
        return INERT_SPAN(name);
    }
    open_span(name, current_span(), fields)
}

/// Opens a span under an explicit parent span id.
///
/// This is the cross-thread form: a worker thread has no thread-local
/// link to the span opened on the thread that spawned it, so the
/// spawner passes `parent_span.id()` into the closure and the worker
/// opens its spans under it. A `parent` of `0` makes a root span.
pub fn span_under(name: &'static str, parent: u64, fields: &[Field]) -> Span {
    if !trace_enabled() {
        return INERT_SPAN(name);
    }
    open_span(name, parent, fields)
}

// --- JSONL sink --------------------------------------------------------

/// Appends a JSON-escaped copy of `s` to `out`.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes one event to a single JSONL line (no trailing newline).
///
/// Wire format, one object per line:
///
/// ```json
/// {"ev":"point","name":"patel.iteration","span":7,"parent":7,
///  "seq":91,"thread":2,"fields":{"iter":3,"residual":1.2e-9}}
/// ```
///
/// `dur_ns` is present only on `end` records. Field values keep their
/// JSON types; non-finite floats become `null`.
pub fn event_to_jsonl(event: &TraceEvent<'_>) -> String {
    let mut line = String::with_capacity(96 + event.fields.len() * 24);
    line.push_str("{\"ev\":\"");
    line.push_str(event.kind.wire_name());
    line.push_str("\",\"name\":");
    push_json_string(&mut line, event.name);
    let _ = write!(
        line,
        ",\"span\":{},\"parent\":{},\"seq\":{},\"thread\":{}",
        event.span, event.parent, event.seq, event.thread
    );
    if let Some(dur) = event.duration_ns {
        let _ = write!(line, ",\"dur_ns\":{dur}");
    }
    if !event.fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, field) in event.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_json_string(&mut line, field.key);
            line.push(':');
            match &field.value {
                FieldValue::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::F64(v) => push_json_f64(&mut line, *v),
                FieldValue::Bool(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::Str(v) => push_json_string(&mut line, v),
                FieldValue::Text(v) => push_json_string(&mut line, v),
            }
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// A lock-free, bounded, sampled collector of JSONL trace lines.
///
/// The record path is wait-free with respect to other recorders: each
/// event claims a slot with one `fetch_add` and writes its
/// pre-formatted line into that slot's [`OnceLock`]. There is no mutex
/// anywhere — concurrent writers never contend beyond the slot
/// counter, so tracing the parallel runner cannot serialize its
/// workers. Events past `capacity` are counted in [`JsonlSink::dropped`]
/// rather than blocking or reallocating.
///
/// Sampling applies only to events marked [`TraceEvent::sampled`]
/// (per-iteration residuals, per-access simulator arbitration): with
/// `with_sampling(sink, n)` every `n`-th such event is kept. Span
/// start/end and unsampled points are always kept, so the span tree
/// stays complete no matter the sampling rate.
#[derive(Debug)]
pub struct JsonlSink {
    slots: Box<[OnceLock<String>]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    sampled_seen: AtomicU64,
    sample_every: u64,
}

impl JsonlSink {
    /// A sink keeping every event, with room for `capacity` lines.
    pub fn with_capacity(capacity: usize) -> JsonlSink {
        JsonlSink::with_sampling(capacity, 1)
    }

    /// A sink keeping 1 in `sample_every` sampled-class events (and
    /// every span/unsampled event). A `sample_every` of 0 is treated
    /// as 1.
    pub fn with_sampling(capacity: usize, sample_every: u64) -> JsonlSink {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        JsonlSink {
            slots: slots.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            sampled_seen: AtomicU64::new(0),
            sample_every: sample_every.max(1),
        }
    }

    /// Lines recorded so far (excluding drops), in claim order.
    ///
    /// Slots claimed by a thread that has not finished writing yet are
    /// skipped; call this only after instrumented work has quiesced
    /// (e.g. after the runner's threads joined).
    pub fn lines(&self) -> Vec<&str> {
        let claimed = self.cursor.load(Ordering::Acquire).min(self.slots.len());
        self.slots[..claimed]
            .iter()
            .filter_map(|slot| slot.get().map(String::as_str))
            .collect()
    }

    /// Events recorded (slots claimed), capped at capacity.
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes all recorded lines to `path` as newline-delimited JSON.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for line in self.lines() {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &TraceEvent<'_>) {
        if event.sampled && self.sample_every > 1 {
            let n = self.sampled_seen.fetch_add(1, Ordering::Relaxed);
            if !n.is_multiple_of(self.sample_every) {
                return;
            }
        }
        let line = event_to_jsonl(event);
        let slot = self.cursor.fetch_add(1, Ordering::AcqRel);
        match self.slots.get(slot) {
            // A slot is claimed exactly once; set cannot fail.
            Some(cell) => {
                let _ = cell.set(line);
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    /// One owned copy of a recorded event: kind, name, span id, parent
    /// id, and the fields.
    type RecordedEvent = (EventKind, &'static str, u64, u64, Vec<Field>);

    /// Test sink capturing owned copies of everything it sees.
    #[derive(Debug, Default)]
    struct VecSink {
        events: Mutex<Vec<RecordedEvent>>,
    }

    impl EventSink for VecSink {
        fn record(&self, event: &TraceEvent<'_>) {
            self.events.lock().push((
                event.kind,
                event.name,
                event.span,
                event.parent,
                event.fields.to_vec(),
            ));
        }
    }

    /// The one global sink shared by every test in this process
    /// (install_sink is once-per-process); tests filter by name.
    fn shared_sink() -> &'static VecSink {
        static SHARED: OnceLock<&'static VecSink> = OnceLock::new();
        SHARED.get_or_init(|| {
            let sink: &'static VecSink = Box::leak(Box::new(VecSink::default()));
            install_sink(sink).expect("first install in this process");
            sink
        })
    }

    fn events_named(
        sink: &VecSink,
        name: &str,
    ) -> Vec<(EventKind, &'static str, u64, u64, Vec<Field>)> {
        sink.events
            .lock()
            .iter()
            .filter(|e| e.1 == name)
            .cloned()
            .collect()
    }

    #[test]
    fn spans_nest_and_events_attach_to_the_innermost() {
        let sink = shared_sink();
        let outer = span("t.outer", &[Field::u64("n", 1)]);
        let outer_id = outer.id();
        {
            let inner = span("t.inner", &[]);
            assert_eq!(current_span(), inner.id());
            event("t.inner_point", &[Field::f64("x", 0.5)]);
            let pts = events_named(sink, "t.inner_point");
            assert_eq!(pts.len(), 1);
            assert_eq!(pts[0].3, inner.id(), "point parents to innermost span");
            let starts = events_named(sink, "t.inner");
            assert_eq!(starts[0].3, outer_id, "inner span parents to outer");
        }
        assert_eq!(current_span(), outer_id, "drop restores the outer span");
        drop(outer);
        assert_eq!(current_span(), 0);
        let ends: Vec<_> = events_named(sink, "t.outer")
            .into_iter()
            .filter(|e| e.0 == EventKind::SpanEnd)
            .collect();
        assert_eq!(ends.len(), 1);
    }

    #[test]
    fn span_under_crosses_threads() {
        let sink = shared_sink();
        let batch = span("t.batch", &[]);
        let batch_id = batch.id();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let worker = span_under("t.worker", batch_id, &[Field::u64("worker", 0)]);
                event("t.worker_point", &[]);
                drop(worker);
            });
        });
        drop(batch);
        let starts: Vec<_> = events_named(sink, "t.worker")
            .into_iter()
            .filter(|e| e.0 == EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(starts[0].3, batch_id, "worker span adopts the batch parent");
        let pts = events_named(sink, "t.worker_point");
        assert_eq!(pts[0].3, starts[0].2, "worker event nests in worker span");
    }

    #[test]
    fn concurrent_writers_never_lose_or_tear_lines() {
        let sink = JsonlSink::with_capacity(4 * 500);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        sink.record(&TraceEvent {
                            kind: EventKind::Point,
                            name: "t.concurrent",
                            span: t,
                            parent: 0,
                            seq: i,
                            thread: t,
                            duration_ns: None,
                            sampled: false,
                            fields: &[Field::u64("i", i), Field::u64("t", t)],
                        });
                    }
                });
            }
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 2000);
        assert_eq!(sink.dropped(), 0);
        // Every line is intact, self-consistent JSON.
        let mut per_thread = [0u64; 4];
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"name\":\"t.concurrent\""), "{line}");
            let t = line
                .split("\"t\":")
                .nth(1)
                .and_then(|rest| rest.trim_end_matches('}').parse::<u64>().ok())
                .expect("t field parses");
            per_thread[t as usize] += 1;
        }
        assert_eq!(per_thread, [500; 4], "no thread's events were lost");
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let sink = JsonlSink::with_capacity(3);
        for i in 0..5u64 {
            sink.record(&TraceEvent {
                kind: EventKind::Point,
                name: "t.overflow",
                span: 0,
                parent: 0,
                seq: i,
                thread: 1,
                duration_ns: None,
                sampled: false,
                fields: &[],
            });
        }
        assert_eq!(sink.lines().len(), 3);
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn sampling_thins_only_sampled_events() {
        let sink = JsonlSink::with_sampling(100, 10);
        for i in 0..40u64 {
            sink.record(&TraceEvent {
                kind: EventKind::Point,
                name: "t.sampled",
                span: 0,
                parent: 0,
                seq: i,
                thread: 1,
                duration_ns: None,
                sampled: true,
                fields: &[],
            });
        }
        for i in 0..5u64 {
            sink.record(&TraceEvent {
                kind: EventKind::SpanStart,
                name: "t.span",
                span: i + 1,
                parent: 0,
                seq: 40 + i,
                thread: 1,
                duration_ns: None,
                sampled: false,
                fields: &[],
            });
        }
        let lines = sink.lines();
        let sampled = lines.iter().filter(|l| l.contains("t.sampled")).count();
        let spans = lines.iter().filter(|l| l.contains("t.span")).count();
        assert_eq!(sampled, 4, "1 in 10 of 40 sampled events");
        assert_eq!(spans, 5, "span records are never sampled away");
    }

    #[test]
    fn jsonl_escapes_and_types_fields() {
        let line = event_to_jsonl(&TraceEvent {
            kind: EventKind::SpanEnd,
            name: "t.fmt",
            span: 9,
            parent: 3,
            seq: 77,
            thread: 2,
            duration_ns: Some(1234),
            sampled: false,
            fields: &[
                Field::u64("u", 42),
                Field::i64("i", -7),
                Field::f64("f", 0.25),
                Field::f64("nan", f64::NAN),
                Field::bool("b", true),
                Field::str("s", "say \"hi\"\n"),
                Field::text("t", "owned".to_string()),
            ],
        });
        assert_eq!(
            line,
            "{\"ev\":\"end\",\"name\":\"t.fmt\",\"span\":9,\"parent\":3,\"seq\":77,\
             \"thread\":2,\"dur_ns\":1234,\"fields\":{\"u\":42,\"i\":-7,\"f\":0.25,\
             \"nan\":null,\"b\":true,\"s\":\"say \\\"hi\\\"\\n\",\"t\":\"owned\"}}"
        );
    }

    #[test]
    fn disabled_paths_are_inert_without_a_recording_span() {
        // The shared global sink may be installed by other tests, so
        // assert only the span-local invariants here.
        let span = Span {
            id: 0,
            name: "t.inert",
            parent: 0,
            previous: 0,
            start: None,
        };
        assert!(!span.is_recording());
        assert_eq!(span.id(), 0);
        drop(span); // must not emit or touch the thread-local stack
    }
}
