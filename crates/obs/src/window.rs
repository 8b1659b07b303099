//! Rolling-window telemetry: a lock-free time-bucketed ring of
//! counters and latency samples, snapshotted into 1s / 10s / 60s
//! rates and interpolated quantiles.
//!
//! The cumulative [`crate::MetricsRegistry`] answers "how much has
//! happened since the process started"; this module answers "what is
//! happening *right now*". A [`WindowRing`] owns a fixed ring of
//! per-second buckets; every record call tags the bucket for its
//! second and bumps atomics in place — no locks, no allocation, and
//! writers never block each other. A [`snapshot`](WindowRing::snapshot)
//! folds the completed seconds of each window into totals, per-second
//! rates, and type-7 interpolated p50/p90/p99 ([`crate::quantile`],
//! the same estimator the load-test harness uses, so client-side and
//! server-side quantiles are directly comparable).
//!
//! Time is passed in explicitly as epoch seconds (`now_s`), never read
//! from a clock inside the module: callers in a service pass
//! `SystemTime::now()`, tests pass a synthetic counter and get fully
//! deterministic windows.
//!
//! ## Accuracy contract
//!
//! This is telemetry, not accounting. Two benign races are accepted by
//! design and bounded to one bucket boundary:
//!
//! * When a bucket rolls over to a new second, the winner of the tag
//!   CAS resets the counts; a concurrent writer that recorded between
//!   the claim and the reset may lose that one record.
//! * A straggler thread holding an older `now_s` than the bucket's tag
//!   drops its record rather than polluting the newer second.
//!
//! Latency samples per bucket are capped ([`WindowRing::new`]'s
//! `sample_capacity`); past the cap new samples overwrite the oldest
//! slots, and the snapshot reports both `observed` (everything offered)
//! and `sampled` (what the quantiles were computed over), so a
//! saturated window is visible rather than silent.
//!
//! ```
//! use swcc_obs::window::WindowRing;
//!
//! let ring = WindowRing::new(&["requests", "errors"], 128);
//! ring.add(100, 0, 3); // 3 requests during epoch second 100
//! ring.sample(100, 250.0); // one 250us latency sample
//! let snap = ring.snapshot(101); // second 100 is now complete
//! assert_eq!(snap.total(1, "requests"), Some(3));
//! assert_eq!(snap.windows[0].p50, Some(250.0));
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::push_json_f64;
use crate::quantile;
use crate::registry::MetricsSnapshot;

/// The rolling windows a snapshot reports, in seconds.
pub const WINDOW_SECONDS: &[u64] = &[1, 10, 60];

/// Ring slots; must exceed the longest window plus the in-progress
/// second so a 60s window never reads a bucket being overwritten.
const RING_SLOTS: usize = 64;

/// Bucket tag meaning "never used".
const UNUSED: u64 = u64::MAX;

struct Bucket {
    /// Epoch second this bucket currently holds ([`UNUSED`] initially).
    second: AtomicU64,
    /// One slot per registered counter name.
    counts: Vec<AtomicU64>,
    /// Latency samples as `f64` bits, a fixed-capacity overwrite ring.
    samples: Vec<AtomicU64>,
    /// Samples offered this second (may exceed the sample capacity).
    offered: AtomicU64,
}

impl std::fmt::Debug for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bucket")
            .field("second", &self.second.load(Ordering::Relaxed))
            .field("offered", &self.offered.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A lock-free ring of per-second telemetry buckets.
///
/// Counters are addressed by index into the name slice given to
/// [`WindowRing::new`]; the service layer defines its indices as
/// constants next to the name slice so records stay self-describing.
#[derive(Debug)]
pub struct WindowRing {
    names: Vec<&'static str>,
    buckets: Vec<Bucket>,
    sample_capacity: usize,
}

impl WindowRing {
    /// A ring with one slot per counter name and `sample_capacity`
    /// latency-sample slots per second (minimum 1).
    pub fn new(names: &[&'static str], sample_capacity: usize) -> WindowRing {
        let sample_capacity = sample_capacity.max(1);
        let buckets = (0..RING_SLOTS)
            .map(|_| Bucket {
                second: AtomicU64::new(UNUSED),
                counts: (0..names.len()).map(|_| AtomicU64::new(0)).collect(),
                samples: (0..sample_capacity).map(|_| AtomicU64::new(0)).collect(),
                offered: AtomicU64::new(0),
            })
            .collect();
        WindowRing {
            names: names.to_vec(),
            buckets,
            sample_capacity,
        }
    }

    /// The registered counter names, in index order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// The bucket for `now_s`, claiming (and resetting) it if this is
    /// the first record of that second. `None` when a newer second
    /// already owns the slot (stale writer) — the record is dropped.
    fn bucket(&self, now_s: u64) -> Option<&Bucket> {
        let bucket = self.buckets.get(now_s as usize % RING_SLOTS)?;
        let tag = bucket.second.load(Ordering::Acquire);
        if tag == now_s {
            return Some(bucket);
        }
        if tag != UNUSED && tag > now_s {
            return None;
        }
        match bucket
            .second
            .compare_exchange(tag, now_s, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // We rolled the bucket over: zero it for the new second.
                for c in &bucket.counts {
                    c.store(0, Ordering::Relaxed);
                }
                bucket.offered.store(0, Ordering::Relaxed);
                Some(bucket)
            }
            Err(actual) if actual == now_s => Some(bucket),
            Err(_) => None,
        }
    }

    /// Adds `by` to counter index `counter` in the bucket for `now_s`.
    /// Out-of-range indices and stale seconds are dropped silently.
    pub fn add(&self, now_s: u64, counter: usize, by: u64) {
        if let Some(bucket) = self.bucket(now_s) {
            if let Some(cell) = bucket.counts.get(counter) {
                cell.fetch_add(by, Ordering::Relaxed);
            }
        }
    }

    /// Records one latency sample (any unit; the service layer uses
    /// microseconds) into the bucket for `now_s`. Non-finite samples
    /// are stored but filtered out again at snapshot time.
    pub fn sample(&self, now_s: u64, value: f64) {
        if let Some(bucket) = self.bucket(now_s) {
            let slot = bucket.offered.fetch_add(1, Ordering::Relaxed) as usize;
            if let Some(cell) = bucket.samples.get(slot % self.sample_capacity) {
                cell.store(value.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Folds the completed seconds before `now_s` into one
    /// [`WindowStats`] per entry of [`WINDOW_SECONDS`]. The in-progress
    /// second (`now_s` itself) is excluded so rates are never computed
    /// over a partial second.
    pub fn snapshot(&self, now_s: u64) -> WindowedSnapshot {
        let windows = WINDOW_SECONDS
            .iter()
            .map(|&seconds| {
                let lo = now_s.saturating_sub(seconds);
                let mut totals = vec![0u64; self.names.len()];
                let mut observed = 0u64;
                let mut samples: Vec<f64> = Vec::new();
                for bucket in &self.buckets {
                    let tag = bucket.second.load(Ordering::Acquire);
                    if tag == UNUSED || tag < lo || tag >= now_s {
                        continue;
                    }
                    for (total, cell) in totals.iter_mut().zip(&bucket.counts) {
                        *total += cell.load(Ordering::Relaxed);
                    }
                    let offered = bucket.offered.load(Ordering::Relaxed);
                    observed += offered;
                    let kept = (offered as usize).min(self.sample_capacity);
                    samples.extend(
                        bucket
                            .samples
                            .iter()
                            .take(kept)
                            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
                            .filter(|v| v.is_finite()),
                    );
                }
                let sampled = samples.len() as u64;
                let (p50, p90, p99) = match quantile::quantiles(&samples, &[0.5, 0.9, 0.99]) {
                    Some(qs) => (
                        qs.first().copied().flatten(),
                        qs.get(1).copied().flatten(),
                        qs.get(2).copied().flatten(),
                    ),
                    None => (None, None, None),
                };
                WindowStats {
                    seconds,
                    totals,
                    observed,
                    sampled,
                    p50,
                    p90,
                    p99,
                }
            })
            .collect();
        WindowedSnapshot {
            at_s: now_s,
            names: self.names.clone(),
            windows,
        }
    }
}

/// One rolling window's folded statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window length in seconds.
    pub seconds: u64,
    /// Counter totals over the window, parallel to the ring's names.
    pub totals: Vec<u64>,
    /// Latency samples offered during the window (before capping).
    pub observed: u64,
    /// Finite latency samples the quantiles were computed over.
    pub sampled: u64,
    /// Interpolated median latency, `None` when no sample landed.
    pub p50: Option<f64>,
    /// Interpolated 90th-percentile latency.
    pub p90: Option<f64>,
    /// Interpolated 99th-percentile latency.
    pub p99: Option<f64>,
}

impl WindowStats {
    /// Per-second rate of counter index `i` over this window.
    pub fn rate(&self, i: usize) -> f64 {
        match self.totals.get(i) {
            Some(&total) if self.seconds > 0 => total as f64 / self.seconds as f64,
            _ => 0.0,
        }
    }
}

/// A point-in-time copy of every rolling window, detached from the
/// ring's atomics, with JSON and Prometheus-text renderings.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSnapshot {
    /// The `now_s` the snapshot was taken at (epoch seconds).
    pub at_s: u64,
    /// Counter names, in index order (shared by every window).
    pub names: Vec<&'static str>,
    /// One entry per [`WINDOW_SECONDS`] entry, same order.
    pub windows: Vec<WindowStats>,
}

impl WindowedSnapshot {
    /// Looks up one window by its length in seconds.
    pub fn window(&self, seconds: u64) -> Option<&WindowStats> {
        self.windows.iter().find(|w| w.seconds == seconds)
    }

    /// Total of counter `name` over the `seconds` window.
    pub fn total(&self, seconds: u64, name: &str) -> Option<u64> {
        let i = self.names.iter().position(|n| *n == name)?;
        self.window(seconds)?.totals.get(i).copied()
    }

    /// Renders the snapshot as one JSON object:
    ///
    /// ```json
    /// {"at_s":100,"windows":[{"seconds":1,
    ///   "counters":{"requests":3},"rates":{"requests":3.0},
    ///   "latency":{"observed":1,"sampled":1,
    ///              "p50":250.0,"p90":250.0,"p99":250.0}}]}
    /// ```
    ///
    /// Absent quantiles render as `null`. Float formatting is Rust's
    /// shortest round-trip `Display`, matching the serve protocol.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"at_s\":{},\"windows\":[", self.at_s);
        for (wi, w) in self.windows.iter().enumerate() {
            if wi > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"seconds\":{},\"counters\":{{", w.seconds);
            for (i, name) in self.names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", w.totals.get(i).copied().unwrap_or(0));
            }
            out.push_str("},\"rates\":{");
            for (i, name) in self.names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":");
                push_json_f64(&mut out, w.rate(i));
            }
            let _ = write!(
                out,
                "}},\"latency\":{{\"observed\":{},\"sampled\":{},",
                w.observed, w.sampled
            );
            for (key, q) in [("p50", w.p50), ("p90", w.p90), ("p99", w.p99)] {
                let _ = write!(out, "\"{key}\":");
                match q {
                    Some(v) => push_json_f64(&mut out, v),
                    None => out.push_str("null"),
                }
                if key != "p99" {
                    out.push(',');
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format,
    /// with every sample name prefixed by `prefix` (e.g.
    /// `"swcc_serve_window"`):
    ///
    /// ```text
    /// swcc_serve_window_total{counter="requests",window="1s"} 3
    /// swcc_serve_window_rate{counter="requests",window="1s"} 3
    /// swcc_serve_window_latency_observed{window="1s"} 1
    /// swcc_serve_window_latency_sampled{window="1s"} 1
    /// swcc_serve_window_latency_us{window="1s",quantile="0.5"} 250
    /// ```
    ///
    /// Quantile lines are omitted (not zeroed) for windows with no
    /// samples, mirroring the JSON `null`s.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "# TYPE {prefix}_total gauge");
        let _ = writeln!(out, "# TYPE {prefix}_rate gauge");
        let _ = writeln!(out, "# TYPE {prefix}_latency_us gauge");
        for w in &self.windows {
            let label = format!("{}s", w.seconds);
            for (i, name) in self.names.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{prefix}_total{{counter=\"{name}\",window=\"{label}\"}} {}",
                    w.totals.get(i).copied().unwrap_or(0)
                );
                let _ = writeln!(
                    out,
                    "{prefix}_rate{{counter=\"{name}\",window=\"{label}\"}} {}",
                    w.rate(i)
                );
            }
            let _ = writeln!(
                out,
                "{prefix}_latency_observed{{window=\"{label}\"}} {}",
                w.observed
            );
            let _ = writeln!(
                out,
                "{prefix}_latency_sampled{{window=\"{label}\"}} {}",
                w.sampled
            );
            for (q, value) in [("0.5", w.p50), ("0.9", w.p90), ("0.99", w.p99)] {
                if let Some(v) = value {
                    let _ = writeln!(
                        out,
                        "{prefix}_latency_us{{window=\"{label}\",quantile=\"{q}\"}} {v}"
                    );
                }
            }
        }
        out
    }
}

/// Maps a dotted metric name to a Prometheus-safe sample name:
/// every character outside `[A-Za-z0-9_]` becomes `_`.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a cumulative [`MetricsSnapshot`] in the Prometheus text
/// exposition format. Counter samples get the conventional `_total`
/// suffix; histograms expose cumulative `_bucket{le=…}` series plus
/// `_sum` and `_count`. Dotted registry names are sanitized
/// (`serve.requests` → `{prefix}serve_requests_total`).
pub fn registry_to_prometheus(snapshot: &MetricsSnapshot, prefix: &str) -> String {
    let mut out = String::with_capacity(1024);
    for c in &snapshot.counters {
        let name = prometheus_name(&c.name);
        let _ = writeln!(out, "# TYPE {prefix}{name}_total counter");
        let _ = writeln!(out, "{prefix}{name}_total {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = prometheus_name(&g.name);
        let _ = writeln!(out, "# TYPE {prefix}{name} gauge");
        let _ = writeln!(out, "{prefix}{name} {}", g.value);
    }
    for h in &snapshot.histograms {
        let name = prometheus_name(&h.name);
        let _ = writeln!(out, "# TYPE {prefix}{name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.buckets) {
            cumulative += count;
            let _ = writeln!(out, "{prefix}{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{prefix}{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{prefix}{name}_sum {}", h.sum);
        let _ = writeln!(out, "{prefix}{name}_count {}", h.count);
    }
    out
}

/// Renders a cumulative [`MetricsSnapshot`] as one JSON object with
/// `counters`, `gauges`, and `histograms` sections keyed by metric
/// name — the machine-readable twin of [`registry_to_prometheus`].
pub fn registry_to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    for (i, c) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name, c.value);
    }
    out.push_str("},\"gauges\":{");
    for (i, g) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", g.name);
        push_json_f64(&mut out, g.value);
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"count\":{},\"sum\":", h.name, h.count);
        push_json_f64(&mut out, h.sum);
        out.push_str(",\"bounds\":[");
        for (j, b) in h.bounds.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_f64(&mut out, *b);
        }
        out.push_str("],\"buckets\":[");
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// A Prometheus `*_info`-style build provenance sample:
/// `{prefix}build_info{commit="…",rustc="…",profile="…"} 1`.
pub fn build_info_prometheus(prefix: &str, commit: &str, rustc: &str, profile: &str) -> String {
    format!(
        "# TYPE {prefix}build_info gauge\n{prefix}build_info{{commit=\"{}\",rustc=\"{}\",profile=\"{}\"}} 1\n",
        escape_label(commit),
        escape_label(rustc),
        escape_label(profile),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryBuilder;
    use crate::Recorder as _;

    const NAMES: &[&str] = &["requests", "errors"];

    #[test]
    fn totals_and_rates_fold_complete_seconds_only() {
        let ring = WindowRing::new(NAMES, 16);
        for s in 100..110u64 {
            ring.add(s, 0, 5);
        }
        ring.add(110, 0, 999); // in-progress second: excluded
        let snap = ring.snapshot(110);
        assert_eq!(snap.total(1, "requests"), Some(5));
        assert_eq!(snap.window(1).unwrap().rate(0), 5.0);
        assert_eq!(snap.total(10, "requests"), Some(50));
        assert_eq!(snap.window(10).unwrap().rate(0), 5.0);
        assert_eq!(snap.total(60, "requests"), Some(50));
        assert_eq!(snap.total(60, "errors"), Some(0));
    }

    #[test]
    fn quantiles_reuse_the_shared_estimator() {
        let ring = WindowRing::new(NAMES, 64);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        for &x in &xs {
            ring.sample(200, x);
        }
        let snap = ring.snapshot(201);
        let w = snap.window(1).unwrap();
        assert_eq!(w.observed, 11);
        assert_eq!(w.sampled, 11);
        assert_eq!(w.p50, quantile::p50(&xs));
        assert_eq!(w.p90, quantile::p90(&xs));
        assert_eq!(w.p99, quantile::p99(&xs));
    }

    #[test]
    fn sample_overflow_reports_observed_above_sampled() {
        let ring = WindowRing::new(NAMES, 4);
        for i in 0..10 {
            ring.sample(300, i as f64);
        }
        let snap = ring.snapshot(301);
        let w = snap.window(1).unwrap();
        assert_eq!(w.observed, 10);
        assert_eq!(w.sampled, 4, "capped at the ring capacity");
    }

    #[test]
    fn buckets_roll_over_and_old_seconds_evaporate() {
        let ring = WindowRing::new(NAMES, 8);
        ring.add(100, 0, 7);
        // Same ring slot 64 seconds later: the old count must not leak.
        ring.add(100 + RING_SLOTS as u64, 0, 1);
        let snap = ring.snapshot(101 + RING_SLOTS as u64);
        assert_eq!(snap.total(1, "requests"), Some(1));
        assert_eq!(snap.total(60, "requests"), Some(1));
    }

    #[test]
    fn stale_writers_are_dropped_not_misfiled() {
        let ring = WindowRing::new(NAMES, 8);
        ring.add(500, 0, 1);
        ring.add(500 - RING_SLOTS as u64, 0, 99); // straggler, same slot
        let snap = ring.snapshot(501);
        assert_eq!(snap.total(1, "requests"), Some(1));
    }

    #[test]
    fn non_finite_samples_do_not_poison_quantiles() {
        let ring = WindowRing::new(NAMES, 8);
        ring.sample(100, f64::NAN);
        ring.sample(100, 4.0);
        ring.sample(100, f64::INFINITY);
        let snap = ring.snapshot(101);
        let w = snap.window(1).unwrap();
        assert_eq!(w.observed, 3);
        assert_eq!(w.sampled, 1);
        assert_eq!(w.p99, Some(4.0));
    }

    #[test]
    fn json_and_prometheus_renderings_agree_with_the_snapshot() {
        let ring = WindowRing::new(NAMES, 16);
        ring.add(100, 0, 12);
        ring.add(100, 1, 2);
        for v in [10.0, 20.0, 30.0, 40.0] {
            ring.sample(100, v);
        }
        let snap = ring.snapshot(101);
        let json = snap.to_json();
        let prom = snap.to_prometheus("w");
        // Both renderings must carry exactly the numbers in the
        // snapshot struct, formatted identically (shortest round-trip
        // Display), so parsing either recovers the same values.
        for w in &snap.windows {
            let label = format!("{}s", w.seconds);
            for (i, name) in snap.names.iter().enumerate() {
                let total = w.totals[i];
                assert!(
                    json.contains(&format!("\"{name}\":{total}")),
                    "json missing {name}={total} for {label}"
                );
                assert!(
                    prom.contains(&format!(
                        "w_total{{counter=\"{name}\",window=\"{label}\"}} {total}"
                    )),
                    "prometheus missing {name}={total} for {label}"
                );
                let rate = w.rate(i);
                assert!(prom.contains(&format!(
                    "w_rate{{counter=\"{name}\",window=\"{label}\"}} {rate}"
                )));
            }
            if let Some(p99) = w.p99 {
                assert!(json.contains(&format!("\"p99\":{p99}")));
                assert!(prom.contains(&format!(
                    "w_latency_us{{window=\"{label}\",quantile=\"0.99\"}} {p99}"
                )));
            }
        }
        // Empty windows render null quantiles in JSON and omit the
        // Prometheus sample line entirely.
        let empty = WindowRing::new(NAMES, 4).snapshot(1);
        assert!(empty.to_json().contains("\"p50\":null"));
        assert!(!empty.to_prometheus("w").contains("latency_us{"));
    }

    #[test]
    fn registry_exposition_round_trips_counts_and_cumulative_buckets() {
        let registry = RegistryBuilder::new()
            .counter("serve.requests")
            .gauge("serve.workers")
            .histogram("serve.request_us", &[10.0, 100.0])
            .build();
        registry.counter_add("serve.requests", 42);
        registry.gauge_set("serve.workers", 4.0);
        registry.observe("serve.request_us", 5.0);
        registry.observe("serve.request_us", 50.0);
        registry.observe("serve.request_us", 500.0);
        let snap = registry.snapshot();
        let prom = registry_to_prometheus(&snap, "swcc_");
        assert!(prom.contains("swcc_serve_requests_total 42"));
        assert!(prom.contains("swcc_serve_workers 4"));
        assert!(prom.contains("swcc_serve_request_us_bucket{le=\"10\"} 1"));
        assert!(
            prom.contains("swcc_serve_request_us_bucket{le=\"100\"} 2"),
            "buckets must be cumulative: {prom}"
        );
        assert!(prom.contains("swcc_serve_request_us_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("swcc_serve_request_us_count 3"));
        let json = registry_to_json(&snap);
        assert!(json.contains("\"serve.requests\":42"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"buckets\":[1,1,1]"));
    }

    #[test]
    fn build_info_labels_are_escaped() {
        let line = build_info_prometheus("s_", "abc123", "rustc 1.0 (\"x\")", "release");
        assert!(line.contains("commit=\"abc123\""));
        assert!(line.contains("\\\"x\\\""));
        assert!(line.ends_with("1\n"));
    }
}
