//! Observability end-to-end tests for `swcc-serve`: request-scoped
//! span parenting under the worker pool, JSON ↔ Prometheus telemetry
//! consistency, the access log and slow-request capture, and the
//! bit-equality guarantee that full observation never changes a served
//! float.
//!
//! This is its own integration binary (separate process from
//! `serve_e2e`) because it installs the once-per-process trace sink and
//! metrics registry.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use serde::Value;
use swcc_core::bus::analyze_bus;
use swcc_core::scheme::Scheme;
use swcc_core::system::BusSystemModel;
use swcc_core::workload::{Level, WorkloadParams};
use swcc_experiments::tree::{parse_trace, SpanTree};
use swcc_obs::{JsonlSink, MetricsRegistry};
use swcc_serve::{spawn, RunningServer, ServeConfig};

/// The shared once-per-process observability installation: a JSONL
/// trace sink plus a registry covering core + serve metric names.
fn observability() -> (&'static JsonlSink, &'static MetricsRegistry) {
    static SINK: OnceLock<&'static JsonlSink> = OnceLock::new();
    static REGISTRY: OnceLock<&'static MetricsRegistry> = OnceLock::new();
    let sink = *SINK.get_or_init(|| {
        let sink: &'static JsonlSink = Box::leak(Box::new(JsonlSink::with_capacity(65_536)));
        swcc_obs::install_sink(sink).expect("first sink install in this process");
        sink
    });
    let registry = *REGISTRY.get_or_init(|| {
        let registry = swcc_serve::metrics::register(swcc_core::metrics::register(
            swcc_obs::RegistryBuilder::new(),
        ))
        .build();
        let registry: &'static MetricsRegistry = Box::leak(Box::new(registry));
        swcc_obs::install(registry).expect("first registry install in this process");
        registry
    });
    (sink, registry)
}

fn start(config: ServeConfig) -> RunningServer {
    spawn(config).expect("bind a loopback listener")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    response: String,
}

impl Client {
    fn connect(server: &RunningServer) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
            response: String::new(),
        }
    }

    fn send(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        self.response.clear();
        let n = self.reader.read_line(&mut self.response).expect("read");
        assert!(n > 0, "server closed the connection");
        serde_json::from_str(self.response.trim()).expect("response parses as JSON")
    }
}

fn ok(value: &Value) -> bool {
    value.get_field("ok").and_then(Value::as_bool) == Some(true)
}

/// Sleeps just past the next wall-clock second boundary. The window
/// ring folds *completed* seconds only (the in-progress second would
/// under-report rates), so a test that wants its traffic visible in a
/// snapshot must let the second it landed in finish first.
fn wait_for_next_second() {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    let to_boundary = Duration::from_nanos(u64::from(1_000_000_000 - now.subsec_nanos()));
    std::thread::sleep(to_boundary + Duration::from_millis(20));
}

fn temp_path(name: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("swcc-serve-trace-{}-{name}", std::process::id()));
    path.to_string_lossy().into_owned()
}

/// Satellite: cross-thread span parenting under the worker pool. Two
/// connections race the same cold sweep; the flight owner's worker
/// thread runs the solve, the other connection waits on (or hits) the
/// published points. The `serve.solve` spans must parent under the
/// *owner's* `serve.request` span only — never under the waiter's.
#[test]
fn solve_spans_parent_under_the_owning_request_span() {
    let (sink, _) = observability();
    let server = start(ServeConfig {
        workers: 4,
        read_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    });

    // A cold dragon sweep is wide enough that the waiter arrives while
    // the owner's solve is still in flight on the owner's thread.
    let sweep = |rid: &str| {
        format!(
            "{{\"request\":\"{rid}\",\"queries\":[{{\"scheme\":\"dragon\",\
             \"machine\":{{\"interconnect\":\"bus\",\"processors\":24}},\
             \"sweep\":{{\"param\":\"shd\",\"from\":0.01,\"to\":0.3,\
             \"points\":768}}}}]}}"
        )
    };
    let owner_line = sweep("req-owner");
    let waiter_line = sweep("req-waiter");

    let owner_server = Client::connect(&server);
    let waiter_server = Client::connect(&server);
    let owner = std::thread::spawn(move || {
        let mut client = owner_server;
        let response = client.send(&owner_line);
        assert!(ok(&response), "{}", client.response);
        response
    });
    let waiter = std::thread::spawn(move || {
        let mut client = waiter_server;
        // Arrive while the owner's batch solve is (very likely) still
        // running; correctness below does not depend on winning the race.
        std::thread::sleep(Duration::from_millis(10));
        let response = client.send(&waiter_line);
        assert!(ok(&response), "{}", client.response);
        response
    });
    let owner_response = owner.join().expect("owner thread");
    let waiter_response = waiter.join().expect("waiter thread");

    // The waiter never solved anything itself: every one of its points
    // was a hit or coalesced onto the owner's flight.
    let waiter_misses = waiter_response
        .get_field("cache")
        .and_then(|c| c.get_field("misses"))
        .and_then(Value::as_u64)
        .expect("waiter cache counters");
    assert_eq!(waiter_misses, 0, "waiter must not claim any point");
    let owner_misses = owner_response
        .get_field("cache")
        .and_then(|c| c.get_field("misses"))
        .and_then(Value::as_u64)
        .expect("owner cache counters");
    assert!(owner_misses > 0, "owner claimed the cold points");

    let text = sink.lines().join("\n");
    let parsed = parse_trace(&text);
    assert_eq!(parsed.skipped, 0, "trace lines all parse");
    let tree = SpanTree::build(&parsed.events);

    let request_node = |rid: &str| {
        tree.nodes()
            .iter()
            .position(|n| {
                n.name == "serve.request" && n.field("request").and_then(Value::as_str) == Some(rid)
            })
            .unwrap_or_else(|| panic!("no serve.request span for {rid}"))
    };
    let owner_idx = request_node("req-owner");
    let waiter_idx = request_node("req-waiter");
    let nodes = tree.nodes();

    let solve_children = |idx: usize| {
        nodes[idx]
            .children
            .iter()
            .filter(|c| nodes[**c].name == "serve.solve")
            .count()
    };
    assert!(
        solve_children(owner_idx) >= 1,
        "owner's request span owns the solve span(s)"
    );
    assert_eq!(
        solve_children(waiter_idx),
        0,
        "waiter's request span must not own any solve span"
    );
    // The solve ran on the owner's worker thread, under the owner's
    // request span — same thread, proper parent linkage.
    for child in &nodes[owner_idx].children {
        let child = &nodes[*child];
        if child.name == "serve.solve" {
            assert_eq!(child.parent, nodes[owner_idx].id);
            assert_eq!(child.thread, nodes[owner_idx].thread);
        }
    }

    server.shutdown();
    server.join();
}

/// Acceptance: the telemetry endpoint's JSON and Prometheus renderings
/// come from one snapshot and agree with each other.
#[test]
fn telemetry_json_and_prometheus_renderings_are_consistent() {
    let (_, registry) = observability();
    let server = start(ServeConfig {
        workers: 1,
        registry: Some(registry),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    for _ in 0..3 {
        let response = client.send(
            r#"{"queries":[{"scheme":"software-flush","machine":{"interconnect":"bus","processors":12}}]}"#,
        );
        assert!(ok(&response));
    }
    wait_for_next_second();
    let telemetry = client.send(r#"{"cmd":"telemetry","format":"prometheus"}"#);
    assert!(ok(&telemetry), "{}", client.response);
    let exposition = telemetry
        .get_field("exposition")
        .and_then(Value::as_str)
        .expect("prometheus format carries the exposition text");

    // Scrapes a `name{...labels...} value` line out of the exposition.
    let prom_value = |name: &str, labels: &str| -> String {
        let needle = format!("{name}{labels} ");
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .unwrap_or_else(|| panic!("no exposition line {needle}: {exposition}"))
            .to_string()
    };

    // Uptime: sampled once, identical text in both renderings.
    let uptime = telemetry
        .get_field("uptime_s")
        .and_then(Value::as_f64)
        .expect("uptime_s");
    assert_eq!(
        prom_value("swcc_serve_uptime_seconds", ""),
        format!("{uptime}")
    );

    // Windowed counters: every total in the JSON 60s window appears as
    // the same number in the exposition.
    let windows = telemetry
        .get_field("windows")
        .and_then(|w| w.get_field("windows"))
        .and_then(Value::as_array)
        .expect("windows array");
    let sixty = windows
        .iter()
        .find(|w| w.get_field("seconds").and_then(Value::as_u64) == Some(60))
        .expect("60s window");
    let counters = sixty
        .get_field("counters")
        .and_then(Value::as_object)
        .expect("counters object");
    assert!(
        counters
            .iter()
            .any(|(name, v)| name == "requests" && v.as_u64().unwrap_or(0) >= 3),
        "the batch traffic landed in the 60s window"
    );
    for (name, total) in counters {
        let got = prom_value(
            "swcc_serve_window_total",
            &format!("{{counter=\"{name}\",window=\"60s\"}}"),
        );
        assert_eq!(got, format!("{}", total.as_u64().expect("total")), "{name}");
    }

    // Cumulative registry: JSON counter values match the `_total` lines.
    let cumulative = telemetry
        .get_field("cumulative")
        .expect("cumulative present");
    assert!(!cumulative.is_null(), "registry was configured");
    let cum_counters = cumulative
        .get_field("counters")
        .and_then(Value::as_object)
        .expect("cumulative counters");
    for (name, value) in cum_counters {
        if name != "serve.requests" && name != "serve.queries" {
            continue;
        }
        let sanitized: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let got = prom_value(&format!("swcc_{sanitized}_total"), "");
        assert_eq!(got, format!("{}", value.as_u64().expect("count")), "{name}");
    }

    // Build provenance rides in both renderings.
    let commit = telemetry
        .get_field("build")
        .and_then(|b| b.get_field("commit"))
        .and_then(Value::as_str)
        .expect("build.commit");
    assert!(
        exposition.contains(&format!("commit=\"{commit}\"")),
        "build info line carries the same commit"
    );

    drop(client);
    server.shutdown();
    server.join();
}

/// Acceptance: full observation (sink + registry + access log + a slow
/// threshold that captures everything) changes no served float.
#[test]
fn full_observation_changes_no_served_bits() {
    let (_, registry) = observability();
    let access_log = temp_path("bits-access.jsonl");
    let server = start(ServeConfig {
        workers: 1,
        registry: Some(registry),
        access_log: Some(access_log.clone()),
        slow_threshold_us: 0.001,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    let workload = WorkloadParams::at_level(Level::Middle);
    let system = BusSystemModel::new();
    for scheme in Scheme::ALL {
        let line = format!(
            "{{\"queries\":[{{\"scheme\":\"{scheme}\",\"machine\":{{\
             \"interconnect\":\"bus\",\"processors\":16}}}}]}}"
        );
        let response = client.send(&line);
        assert!(ok(&response), "{}", client.response);
        let point = response
            .get_field("results")
            .and_then(|r| r.get_index(0))
            .and_then(|q| q.get_field("points"))
            .and_then(|p| p.get_index(0))
            .expect("results[0].points[0]");
        let direct = analyze_bus(scheme, &workload, &system, 16).expect("direct call");
        for (name, want) in [
            ("power", direct.power()),
            ("utilization", direct.utilization()),
            ("cpi", direct.cycles_per_instruction()),
            ("waiting", direct.waiting()),
            ("bus_utilization", direct.bus_utilization()),
        ] {
            let got = point
                .get_field(name)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(got.to_bits(), want.to_bits(), "{scheme} {name}");
        }
    }
    drop(client);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(&access_log);
}

/// Requests over the threshold land in the slow ring, retrievable via
/// `telemetry --slow` with their request id and phase spans.
#[test]
fn slow_requests_are_captured_and_retrievable() {
    let (_, registry) = observability();
    let server = start(ServeConfig {
        workers: 1,
        registry: Some(registry),
        slow_threshold_us: 0.001, // everything is "slow"
        slow_capacity: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    let response = client.send(
        r#"{"request":"slow-probe","queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":32},"sweep":{"param":"shd","from":0.02,"to":0.2,"points":64}}]}"#,
    );
    assert!(ok(&response));
    let slow = client.send(r#"{"cmd":"telemetry","slow":true}"#);
    assert!(ok(&slow), "{}", client.response);
    let captures = slow
        .get_field("slow")
        .and_then(Value::as_array)
        .expect("slow array");
    let probe = captures
        .iter()
        .find(|c| c.get_field("request").and_then(Value::as_str) == Some("slow-probe"))
        .expect("the probe request was captured");
    assert!(probe
        .get_field("duration_us")
        .and_then(Value::as_f64)
        .is_some());
    let spans = probe
        .get_field("spans")
        .and_then(Value::as_array)
        .expect("capture has spans");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get_field("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names.first(), Some(&"serve.request"));
    assert!(names.contains(&"plan"), "{names:?}");
    assert!(names.contains(&"solve.bus"), "{names:?}");
    assert!(names.contains(&"render"), "{names:?}");
    drop(client);
    server.shutdown();
    server.join();
}

/// Every access-log line is one JSON object with the contract fields.
#[test]
fn access_log_lines_carry_the_contract_fields() {
    let (_, registry) = observability();
    let access_log = temp_path("contract-access.jsonl");
    let server = start(ServeConfig {
        workers: 1,
        registry: Some(registry),
        access_log: Some(access_log.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&server);
    let response = client.send(
        r#"{"request":"log-me","queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":8}},{"scheme":"dragon","machine":{"interconnect":"bus","processors":8}}]}"#,
    );
    assert!(ok(&response));
    drop(client);
    server.shutdown();
    server.join();

    let text = std::fs::read_to_string(&access_log).expect("access log exists");
    let line = text
        .lines()
        .find(|l| l.contains("\"request\":\"log-me\""))
        .expect("the batch line was logged");
    let parsed: Value = serde_json::from_str(line).expect("access line parses");
    assert_eq!(
        parsed.get_field("cmd").and_then(Value::as_str),
        Some("batch")
    );
    assert_eq!(parsed.get_field("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(parsed.get_field("queries").and_then(Value::as_u64), Some(2));
    assert_eq!(parsed.get_field("points").and_then(Value::as_u64), Some(2));
    for field in [
        "ts_s",
        "hits",
        "misses",
        "coalesced",
        "flight_wait_us",
        "duration_us",
    ] {
        assert!(
            parsed.get_field(field).and_then(Value::as_f64).is_some(),
            "missing {field}: {line}"
        );
    }
    let schemes: Vec<&str> = parsed
        .get_field("schemes")
        .and_then(Value::as_array)
        .expect("schemes array")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(schemes, vec!["base", "dragon"]);
    let _ = std::fs::remove_file(&access_log);
}

/// The exposition listener answers scrapers over plain HTTP.
#[test]
fn exposition_listener_serves_metrics_telemetry_and_slow() {
    let (_, registry) = observability();
    let server = start(ServeConfig {
        workers: 1,
        registry: Some(registry),
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = server.telemetry_addr().expect("telemetry listener bound");
    let mut client = Client::connect(&server);
    let response = client
        .send(r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#);
    assert!(ok(&response));

    let scrape = |path: &str| -> (String, String) {
        let stream = TcpStream::connect(addr).expect("connect scraper");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        write!(writer, "GET {path} HTTP/1.0\r\n\r\n").expect("write request");
        writer.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        let mut body = String::new();
        let mut line = String::new();
        // Skip headers, then read the body.
        loop {
            line.clear();
            if reader.read_line(&mut line).expect("header") == 0 || line.trim().is_empty() {
                break;
            }
        }
        loop {
            line.clear();
            if reader.read_line(&mut line).expect("body") == 0 {
                break;
            }
            body.push_str(&line);
        }
        (status, body)
    };

    let (status, metrics) = scrape("/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(metrics.contains("swcc_serve_uptime_seconds "), "{metrics}");
    assert!(metrics.contains("swcc_serve_window_total{"), "{metrics}");
    assert!(metrics.contains("swcc_serve_build_info{"), "{metrics}");

    let (status, telemetry) = scrape("/telemetry");
    assert!(status.contains("200"), "{status}");
    let parsed: Value = serde_json::from_str(telemetry.trim()).expect("JSON body");
    assert!(ok(&parsed));

    let (status, slow) = scrape("/slow");
    assert!(status.contains("200"), "{status}");
    let parsed: Value = serde_json::from_str(slow.trim()).expect("JSON body");
    assert!(parsed.get_field("slow").and_then(Value::as_array).is_some());

    let (status, _) = scrape("/nope");
    assert!(status.contains("404"), "{status}");

    drop(client);
    server.shutdown();
    server.join();
}
