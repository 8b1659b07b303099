//! Live service telemetry: rolling windows, the structured access log,
//! and the slow-request capture ring behind `{"cmd":"telemetry"}`.
//!
//! Every request the server handles is folded into a
//! [`swcc_obs::window::WindowRing`] (per-second counters + latency
//! samples, snapshotted into 1s/10s/60s rates and p50/p90/p99), appended
//! as one JSONL line to the optional access log, and — when it exceeds
//! the slow threshold — captured with its full phase-span breakdown into
//! a bounded ring retrievable via `{"cmd":"telemetry","slow":true}`.
//!
//! The hub also holds the server's metrics registry: every `serve.*`
//! count is recorded into it once, where it happens, and `stats`,
//! `telemetry` and `/metrics` all read it (see [`Telemetry::metrics`]).
//!
//! The `telemetry` response renders the windowed snapshot, the
//! cumulative metrics registry, uptime, and build provenance as JSON;
//! with `"format":"prometheus"` the same snapshot is additionally
//! rendered in the Prometheus text exposition format — both renderings
//! come from one snapshot, so they are consistent by construction (and
//! test-asserted). The optional HTTP-ish exposition listener
//! (`--telemetry-addr`) serves the same three views to scrapers.
//!
//! This module is on the request path: like [`crate::server`] and
//! [`crate::protocol`] it is lint-enforced panic-free.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use swcc_obs::sync::Mutex;
use swcc_obs::window::{self, WindowRing, WindowedSnapshot};
use swcc_obs::{
    push_json_f64, push_json_str, MetricsRegistry, MetricsSnapshot, Recorder as _, RegistryBuilder,
};

use crate::metrics;
use crate::server::ServeConfig;

/// Schema identifier carried by `telemetry` responses.
pub const TELEMETRY_SCHEMA: &str = "swcc-telemetry/v1";

/// Window counter index: request lines handled.
pub const W_REQUESTS: usize = 0;
/// Window counter index: query points answered.
pub const W_QUERIES: usize = 1;
/// Window counter index: error responses.
pub const W_ERRORS: usize = 2;
/// Window counter index: cache hits.
pub const W_HITS: usize = 3;
/// Window counter index: cache misses.
pub const W_MISSES: usize = 4;
/// Window counter index: coalesced admissions.
pub const W_COALESCED: usize = 5;

/// Names of the windowed counters, in index order. These are window
/// labels, not registry metric names — the cumulative twins live in
/// [`crate::metrics`].
pub const WINDOW_COUNTERS: &[&str] = &[
    "requests",
    "queries",
    "errors",
    "hits",
    "misses",
    "coalesced",
];

/// Latency samples kept per second (beyond this, quantiles are computed
/// over the most recent samples and `observed > sampled` in snapshots).
const SAMPLES_PER_SECOND: usize = 1024;

/// Git commit the serving binary was built from (`"unknown"` outside a
/// git checkout).
pub fn build_commit() -> &'static str {
    env!("SWCC_GIT_COMMIT")
}

/// `rustc --version` of the building toolchain.
pub fn build_rustc() -> &'static str {
    env!("SWCC_RUSTC")
}

/// Cargo build profile (`"debug"` / `"release"`).
pub fn build_profile() -> &'static str {
    env!("SWCC_PROFILE")
}

/// Current wall-clock time as whole epoch seconds (window bucket key).
pub fn epoch_seconds() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Current wall-clock time as fractional epoch seconds (log timestamps).
fn epoch_seconds_f64() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// One timed phase inside a request, recorded for the slow-request
/// capture (offsets are microseconds from the start of the request).
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase name (`"plan"`, `"admit"`, `"solve.bus"`, …).
    pub name: &'static str,
    /// Start offset from the beginning of the request, microseconds.
    pub start_us: f64,
    /// Phase duration, microseconds.
    pub dur_us: f64,
    /// Solver lanes submitted during the phase (solve phases only).
    pub lanes: u64,
}

/// Per-request accounting accumulated while a batch executes, consumed
/// by [`Telemetry::record`] for the windows, the registry, the access
/// log, and slow captures.
#[derive(Debug, Default)]
pub struct RequestTrace {
    /// Queries in the batch.
    pub queries: u64,
    /// Expanded query points.
    pub points: u64,
    /// Points answered from the cache.
    pub hits: u64,
    /// Points that claimed and solved a cold slot.
    pub misses: u64,
    /// Points coalesced onto another solve.
    pub coalesced: u64,
    /// Microseconds spent waiting on other requests' in-flight solves.
    pub flight_wait_us: f64,
    /// Distinct schemes named by the batch, in first-seen order.
    pub schemes: Vec<String>,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseSpan>,
}

impl RequestTrace {
    /// Notes a scheme (deduplicated, order-preserving).
    pub fn note_scheme(&mut self, scheme: &str) {
        if !self.schemes.iter().any(|s| s == scheme) {
            self.schemes.push(scheme.to_string());
        }
    }

    /// Appends one timed phase.
    pub fn phase(
        &mut self,
        name: &'static str,
        started: Instant,
        request_start: Instant,
        lanes: u64,
    ) {
        let now = Instant::now();
        self.phases.push(PhaseSpan {
            name,
            start_us: started.duration_since(request_start).as_secs_f64() * 1e6,
            dur_us: now.duration_since(started).as_secs_f64() * 1e6,
            lanes,
        });
    }
}

/// The registry a server records into: the one its config passes, or
/// its own.
#[derive(Debug)]
enum Registry {
    Passed(&'static MetricsRegistry),
    Own(MetricsRegistry),
}

/// The serve-side telemetry hub owned by
/// [`crate::server::ServeState`]: windows, metrics registry, request-id
/// generator, slow ring, access log.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    seq: AtomicU64,
    windows: WindowRing,
    registry: Registry,
    slow_threshold_us: f64,
    slow_capacity: usize,
    slow: Mutex<VecDeque<String>>,
    access: Option<Mutex<BufWriter<File>>>,
}

impl Telemetry {
    /// Builds the hub from the config's `registry`, `access_log`,
    /// `slow_threshold_us` and `slow_capacity`. Without a registry the
    /// hub builds its own of [`crate::metrics`]' names. The access log
    /// is opened append-or-create; an open failure disables the log
    /// (reported on stderr) rather than failing the server. A
    /// non-positive `slow_threshold_us` disables slow capture.
    pub fn new(config: &ServeConfig) -> Telemetry {
        let access = config.access_log.as_deref().and_then(|path| {
            match OpenOptions::new().create(true).append(true).open(path) {
                Ok(file) => Some(Mutex::new(BufWriter::new(file))),
                Err(e) => {
                    eprintln!("swcc-serve: access log {path} disabled: {e}");
                    None
                }
            }
        });
        Telemetry {
            started: Instant::now(),
            seq: AtomicU64::new(0),
            windows: WindowRing::new(WINDOW_COUNTERS, SAMPLES_PER_SECOND),
            registry: match config.registry {
                Some(registry) => Registry::Passed(registry),
                None => Registry::Own(metrics::register(RegistryBuilder::new()).build()),
            },
            slow_threshold_us: config.slow_threshold_us,
            slow_capacity: config.slow_capacity.max(1),
            slow: Mutex::new(VecDeque::new()),
            access,
        }
    }

    /// The registry every `serve.*` metric of this server is recorded
    /// into, and that `stats`, `telemetry` and `/metrics` read.
    pub fn metrics(&self) -> &MetricsRegistry {
        match &self.registry {
            Registry::Passed(registry) => registry,
            Registry::Own(registry) => registry,
        }
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A fresh server-generated request id (`"r1"`, `"r2"`, …), used
    /// when the client did not supply one.
    pub fn next_request_id(&self) -> String {
        format!("r{}", self.seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The live window ring (the loadgen timeline reads its snapshot
    /// through the `telemetry` command).
    pub fn windows(&self) -> &WindowRing {
        &self.windows
    }

    /// Folds one finished request into the windows and the registry,
    /// the access log, and (when over the threshold) the slow-capture
    /// ring. Its points, error and cache split are counted here, in
    /// both; the request line itself is counted in the registry when it
    /// arrives (`serve.requests`), so a `stats` reply counts itself.
    pub fn record(
        &self,
        now_s: u64,
        request_id: &str,
        cmd: &'static str,
        ok: bool,
        duration_us: f64,
        trace: &RequestTrace,
    ) {
        let registry = self.metrics();
        self.windows.add(now_s, W_REQUESTS, 1);
        for (window, name, n) in [
            (W_QUERIES, metrics::SERVE_QUERIES, trace.points),
            (W_ERRORS, metrics::SERVE_ERRORS, u64::from(!ok)),
            (W_HITS, metrics::SERVE_CACHE_HITS, trace.hits),
            (W_MISSES, metrics::SERVE_CACHE_MISSES, trace.misses),
            (W_COALESCED, metrics::SERVE_CACHE_COALESCED, trace.coalesced),
        ] {
            if n > 0 {
                self.windows.add(now_s, window, n);
                registry.counter_add(name, n);
            }
        }
        if trace.points > 0 {
            registry.observe(metrics::SERVE_BATCH_WIDTH, trace.points as f64);
        }
        self.windows.sample(now_s, duration_us);
        registry.observe(metrics::SERVE_REQUEST_US, duration_us);

        if let Some(access) = &self.access {
            let line = access_line(request_id, cmd, ok, duration_us, trace);
            let mut writer = access.lock();
            let written = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            registry.counter_add(
                match written {
                    Ok(()) => metrics::SERVE_ACCESS_LOG_LINES,
                    Err(_) => metrics::SERVE_ACCESS_LOG_ERRORS,
                },
                1,
            );
        }

        if self.slow_threshold_us > 0.0 && duration_us > self.slow_threshold_us {
            let capture = slow_capture(
                request_id,
                cmd,
                ok,
                duration_us,
                self.slow_threshold_us,
                trace,
            );
            let mut ring = self.slow.lock();
            while ring.len() >= self.slow_capacity {
                ring.pop_front();
            }
            ring.push_back(capture);
            registry.counter_add(metrics::SERVE_SLOW_CAPTURED, 1);
        }
    }

    /// The currently retained slow captures, oldest first.
    pub fn slow_captures(&self) -> Vec<String> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Takes one consistent snapshot of everything the `telemetry`
    /// command reports.
    pub fn capture(&self, now_s: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            uptime_s: self.uptime_s(),
            windows: self.windows.snapshot(now_s),
            cumulative: self.metrics().snapshot(),
        }
    }
}

/// One consistent view of the live telemetry: the rolling windows, the
/// cumulative registry, and uptime. Both renderings below read exactly
/// these fields, so the JSON and Prometheus views of one snapshot can
/// never disagree.
#[derive(Debug)]
pub struct TelemetrySnapshot {
    /// Seconds since server start at snapshot time.
    pub uptime_s: f64,
    /// The rolling windows.
    pub windows: WindowedSnapshot,
    /// The server's registry ([`Telemetry::metrics`]).
    pub cumulative: MetricsSnapshot,
}

impl TelemetrySnapshot {
    /// Renders the protocol response line. With `include_exposition`
    /// the same snapshot's Prometheus text rides along in an
    /// `"exposition"` string field.
    pub fn to_response(&self, include_exposition: bool) -> String {
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"ok\":true,\"schema\":\"{TELEMETRY_SCHEMA}\",\"uptime_s\":"
        );
        push_json_f64(&mut out, self.uptime_s);
        out.push_str(",\"build\":{\"commit\":");
        push_json_str(&mut out, build_commit());
        out.push_str(",\"rustc\":");
        push_json_str(&mut out, build_rustc());
        out.push_str(",\"profile\":");
        push_json_str(&mut out, build_profile());
        out.push_str("},\"windows\":");
        out.push_str(&self.windows.to_json());
        out.push_str(",\"cumulative\":");
        out.push_str(&window::registry_to_json(&self.cumulative));
        if include_exposition {
            out.push_str(",\"exposition\":");
            push_json_str(&mut out, &self.to_prometheus());
        }
        out.push('}');
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (the raw body the `--telemetry-addr` listener serves under
    /// `/metrics`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE swcc_serve_uptime_seconds gauge");
        let _ = writeln!(out, "swcc_serve_uptime_seconds {}", self.uptime_s);
        out.push_str(&window::build_info_prometheus(
            "swcc_serve_",
            build_commit(),
            build_rustc(),
            build_profile(),
        ));
        out.push_str(&self.windows.to_prometheus("swcc_serve_window"));
        out.push_str(&window::registry_to_prometheus(&self.cumulative, "swcc_"));
        out
    }
}

/// Renders one access-log JSONL line.
fn access_line(
    request_id: &str,
    cmd: &'static str,
    ok: bool,
    duration_us: f64,
    trace: &RequestTrace,
) -> String {
    let mut out = String::with_capacity(192);
    out.push_str("{\"ts_s\":");
    push_json_f64(&mut out, epoch_seconds_f64());
    out.push_str(",\"request\":");
    push_json_str(&mut out, request_id);
    let _ = write!(out, ",\"cmd\":\"{cmd}\",\"ok\":{ok},\"schemes\":[");
    for (i, scheme) in trace.schemes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, scheme);
    }
    let _ = write!(
        out,
        "],\"queries\":{},\"points\":{},\"hits\":{},\"misses\":{},\
         \"coalesced\":{},\"flight_wait_us\":",
        trace.queries, trace.points, trace.hits, trace.misses, trace.coalesced,
    );
    push_json_f64(&mut out, finite(trace.flight_wait_us));
    out.push_str(",\"duration_us\":");
    push_json_f64(&mut out, finite(duration_us));
    out.push('}');
    out
}

/// Renders one slow-request capture: the request identity plus its full
/// phase-span tree (the request span at offset zero, phases nested
/// under it by construction).
fn slow_capture(
    request_id: &str,
    cmd: &'static str,
    ok: bool,
    duration_us: f64,
    threshold_us: f64,
    trace: &RequestTrace,
) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"request\":");
    push_json_str(&mut out, request_id);
    let _ = write!(out, ",\"cmd\":\"{cmd}\",\"ok\":{ok},\"captured_at_s\":");
    push_json_f64(&mut out, epoch_seconds_f64());
    out.push_str(",\"duration_us\":");
    push_json_f64(&mut out, finite(duration_us));
    out.push_str(",\"threshold_us\":");
    push_json_f64(&mut out, finite(threshold_us));
    let _ = write!(
        out,
        ",\"queries\":{},\"points\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},\
         \"flight_wait_us\":",
        trace.queries, trace.points, trace.hits, trace.misses, trace.coalesced,
    );
    push_json_f64(&mut out, finite(trace.flight_wait_us));
    out.push_str(",\"spans\":[{\"name\":\"serve.request\",\"start_us\":0,\"dur_us\":");
    push_json_f64(&mut out, finite(duration_us));
    out.push('}');
    for phase in &trace.phases {
        let _ = write!(out, ",{{\"name\":\"{}\",\"start_us\":", phase.name);
        push_json_f64(&mut out, finite(phase.start_us));
        out.push_str(",\"dur_us\":");
        push_json_f64(&mut out, finite(phase.dur_us));
        let _ = write!(out, ",\"lanes\":{}}}", phase.lanes);
    }
    out.push_str("]}");
    out
}

/// Clamps non-finite telemetry floats to zero for rendering (they can
/// only arise from clock anomalies, never from served results).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(slow_threshold_us: f64, slow_capacity: usize) -> Telemetry {
        Telemetry::new(&ServeConfig {
            slow_threshold_us,
            slow_capacity,
            ..ServeConfig::default()
        })
    }

    fn trace() -> RequestTrace {
        let mut t = RequestTrace {
            queries: 2,
            points: 64,
            hits: 60,
            misses: 4,
            coalesced: 0,
            flight_wait_us: 12.5,
            ..RequestTrace::default()
        };
        t.note_scheme("dragon");
        t.note_scheme("base");
        t.note_scheme("dragon");
        t
    }

    #[test]
    fn request_ids_are_unique_and_sequential() {
        let t = hub(0.0, 4);
        assert_eq!(t.next_request_id(), "r1");
        assert_eq!(t.next_request_id(), "r2");
    }

    #[test]
    fn record_folds_into_the_windows() {
        let t = hub(0.0, 4);
        let now = epoch_seconds();
        t.record(now, "r1", "batch", true, 800.0, &trace());
        t.record(now, "r2", "batch", false, 200.0, &RequestTrace::default());
        let snap = t.windows().snapshot(now + 1);
        assert_eq!(snap.total(10, "requests"), Some(2));
        assert_eq!(snap.total(10, "queries"), Some(64));
        assert_eq!(snap.total(10, "errors"), Some(1));
        assert_eq!(snap.total(10, "hits"), Some(60));
        assert_eq!(snap.window(10).map(|w| w.observed), Some(2));
        // The registry gets the same counts from the same call.
        let registry = t.metrics();
        for (name, want) in [
            (metrics::SERVE_QUERIES, 64),
            (metrics::SERVE_ERRORS, 1),
            (metrics::SERVE_CACHE_HITS, 60),
            (metrics::SERVE_CACHE_MISSES, 4),
            (metrics::SERVE_CACHE_COALESCED, 0),
        ] {
            assert_eq!(registry.counter_value(name), Some(want), "{name}");
        }
        let widths = registry
            .histogram(metrics::SERVE_BATCH_WIDTH)
            .map(|h| h.count());
        assert_eq!(widths, Some(1), "one batch had points");
        let durations = registry
            .histogram(metrics::SERVE_REQUEST_US)
            .map(|h| h.count());
        assert_eq!(durations, Some(2));
    }

    #[test]
    fn slow_ring_is_bounded_and_keeps_the_newest() {
        let t = hub(100.0, 2);
        let now = epoch_seconds();
        for i in 0..5u64 {
            t.record(
                now,
                &format!("r{i}"),
                "batch",
                true,
                500.0 + i as f64,
                &trace(),
            );
        }
        t.record(now, "fast", "batch", true, 50.0, &trace());
        let captures = t.slow_captures();
        assert_eq!(captures.len(), 2);
        assert!(captures[0].contains("\"request\":\"r3\""));
        assert!(captures[1].contains("\"request\":\"r4\""));
        assert!(captures[1].contains("\"name\":\"serve.request\""));
        let captured = t.metrics().counter_value(metrics::SERVE_SLOW_CAPTURED);
        assert_eq!(captured, Some(5), "evicted captures were counted too");
    }

    #[test]
    fn schemes_deduplicate_in_first_seen_order() {
        let t = trace();
        assert_eq!(t.schemes, vec!["dragon".to_string(), "base".to_string()]);
    }

    #[test]
    fn json_and_prometheus_come_from_one_snapshot() {
        let t = hub(0.0, 4);
        let now = epoch_seconds();
        t.record(now, "r1", "batch", true, 123.0, &trace());
        let snap = t.capture(now + 1);
        let json = snap.to_response(true);
        let prom = snap.to_prometheus();
        // The uptime is sampled once and must appear identically
        // formatted in both renderings.
        let uptime = format!("{}", snap.uptime_s);
        assert!(json.contains(&format!("\"uptime_s\":{uptime}")));
        assert!(prom.contains(&format!("swcc_serve_uptime_seconds {uptime}")));
        // Window totals agree.
        assert!(json.contains("\"queries\":64"));
        assert!(prom.contains("swcc_serve_window_total{counter=\"queries\",window=\"10s\"} 64"));
        // The in-band exposition field is the same text.
        assert!(json.contains("\\\"queries\\\",window=\\\"10s\\\"} 64"));
        assert!(json.contains(&format!("\"commit\":\"{}\"", build_commit())));
    }

    #[test]
    fn access_line_is_one_json_object_with_the_contract_fields() {
        let line = access_line("r9", "batch", true, 42.5, &trace());
        for needle in [
            "\"request\":\"r9\"",
            "\"cmd\":\"batch\"",
            "\"ok\":true",
            "\"schemes\":[\"dragon\",\"base\"]",
            "\"points\":64",
            "\"hits\":60",
            "\"misses\":4",
            "\"coalesced\":0",
            "\"flight_wait_us\":12.5",
            "\"duration_us\":42.5",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
