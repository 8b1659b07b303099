//! # swcc-obs — dependency-free observability for the swcc workspace
//!
//! The model layer answers "how fast is the multiprocessor"; this crate
//! answers "how hard did the solvers work to find out". It provides the
//! counters behind `repro --metrics` and the machine-readable run
//! record (`repro --record`), with nothing but `std` underneath —
//! no external dependencies, no locks on the record path.
//!
//! Three pieces:
//!
//! * **Primitives** ([`Counter`], [`Gauge`], [`Histogram`]) — atomic
//!   metric cells any number of threads can update concurrently.
//! * **Registry** ([`MetricsRegistry`], built via [`RegistryBuilder`]) —
//!   a frozen, name-indexed set of metrics. Recording is a binary
//!   search over an immutable table plus one atomic update.
//! * **Dispatch** ([`counter_add`], [`gauge_set`], [`observe`]) — free
//!   functions instrumented code calls. They forward to the recorder
//!   installed via [`install`] (process totals) and to the calling
//!   thread's active [`capture`] span (per-experiment attribution).
//!   With neither active they cost two relaxed atomic loads — cheap
//!   enough to leave inside solver hot paths permanently.
//!
//! ```
//! use swcc_obs::{capture, counter_add, RegistryBuilder};
//!
//! // Per-span capture needs no global setup at all:
//! let (answer, metrics) = capture(|| {
//!     counter_add("demo.solves", 3);
//!     42
//! });
//! assert_eq!(answer, 42);
//! assert_eq!(metrics.counter("demo.solves"), Some(3));
//!
//! // Process-wide totals go through an installed registry:
//! let registry = RegistryBuilder::new().counter("demo.solves").build();
//! // swcc_obs::install(Box::leak(Box::new(registry))).unwrap();
//! # let _ = registry;
//! ```
//!
//! The metric *names* live with the code that owns them —
//! `swcc_core::metrics` for solver/sweep counters,
//! `swcc_experiments::runner` for runner spans — each exposing a
//! `register` function that adds its names to a [`RegistryBuilder`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod metric;
pub mod quantile;
mod recorder;
mod registry;
mod ryu;
pub mod sync;
pub mod trace;
pub mod window;

pub use metric::{Counter, Gauge, Histogram};
pub use recorder::{
    capture, counter_add, enabled, gauge_set, install, installed, observe, InstallError,
    NoopRecorder, Recorder,
};
pub use registry::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    RegistryBuilder, UNREGISTERED,
};
pub use trace::{
    event, event_sampled, install_sink, span, span_under, trace_enabled, EventKind, EventSink,
    Field, FieldValue, JsonlSink, Span, TraceEvent,
};
pub use window::{WindowRing, WindowStats, WindowedSnapshot, WINDOW_SECONDS};

/// Appends `v` as a JSON number: a finite value exactly as std's
/// `Display` writes it (shortest round-trip digits, never an exponent),
/// anything else as `null` (the vendored JSON serializer's convention,
/// since JSON has no NaN or infinity). Trace lines, telemetry windows
/// and `swcc-serve` responses all write their floats through this one
/// function.
///
/// The digits come from an in-tree Ryū. When the value lies exactly
/// halfway between the two shortest decimals that parse back to it, the
/// larger one is written, as std does, where reference Ryū would pick
/// the even one: 2⁻²⁵ is written `0.000000029802322387695313`. A test
/// compares the bytes with `write!(s, "{v}")` over random bit patterns
/// and the edge classes of the format.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        ryu::push_shortest(out, v);
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string literal: `"` and `\` get a backslash,
/// newline, carriage return and tab are written `\n`, `\r` and `\t`,
/// every other character below U+0020 `\u00XX`, and everything else as
/// is. Trace lines and `swcc-serve` responses write their strings
/// through this one function.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_every_control_character_and_parse_back() {
        let mut specials: Vec<char> = (0u8..0x20).map(char::from).collect();
        specials.extend(['"', '\\']);
        for c in specials {
            let text = format!("a{c}b");
            let mut out = String::new();
            push_json_str(&mut out, &text);
            assert!(
                out.chars().all(|c| c >= ' '),
                "{out:?} holds a raw control character"
            );
            let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert_eq!(parsed.as_str(), Some(text.as_str()), "{out}");
        }
        let mut out = String::new();
        push_json_str(&mut out, "tab\tline\nreturn\r nul\u{0} unit\u{1f} é");
        assert_eq!(out, r#""tab\tline\nreturn\r nul\u0000 unit\u001f é""#);
    }

    #[test]
    fn registry_and_capture_compose() {
        let registry = RegistryBuilder::new().counter("compose.count").build();
        // Not installed globally (install is once-per-process and other
        // tests race for it); drive the Recorder impl directly while a
        // capture is active to mimic dual-sink dispatch.
        let ((), span) = capture(|| {
            counter_add("compose.count", 2);
            Recorder::counter_add(&registry, "compose.count", 2);
        });
        assert_eq!(span.counter("compose.count"), Some(2));
        assert_eq!(registry.counter_value("compose.count"), Some(2));
    }
}
