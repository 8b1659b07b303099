//! The benchmark's in-memory span recorder.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing is installed into the program, so its own
//! instrumentation stays on its disabled path. A disabled recorder
//! records nothing, so traced and untraced passes run the same code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or benchmark phase name.
    pub name: &'static str,
    /// Start, ns from origin.
    pub start_ns: u64,
    /// End, ns from origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// The op this span belongs to (`u32::MAX` outside ops).
    pub op: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (ignored by a disabled recorder).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

/// Total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans, ns.
    pub self_ns: u64,
}

/// Per-name totals of a recorder's spans.
#[derive(Debug, Default)]
pub struct SpanTotals(BTreeMap<&'static str, Totals>);

impl SpanTotals {
    /// Summed duration of the spans named `name`, ns.
    pub fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0, |t| t.total_ns) as f64
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |t| t.count) as usize
    }

    /// Every name's totals, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &Totals)> {
        self.0.iter()
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: NO_PARENT,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Per-name totals with self time (duration minus child spans).
    pub fn totals(&self) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
        }
        SpanTotals(out)
    }

    /// Writes the spans outside ops and those of the first `max_ops` ops
    /// as one JSON object per line (the totals cover every span).
    pub fn write_jsonl(&self, path: &std::path::Path, max_ops: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            if s.op != NO_PARENT && s.op >= max_ops {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == NO_PARENT {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
