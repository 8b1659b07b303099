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

/// Appends `v` as a JSON number: a finite value in std's shortest
/// round-trip `Display` form, anything else as `null` (the vendored
/// JSON serializer's convention, since JSON has no NaN or infinity).
/// Trace lines, telemetry windows and `swcc-serve` responses all write
/// their floats through this one function.
pub fn push_json_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
