//! End-to-end tests for `swcc-serve`: a real listener, real sockets,
//! and bit-exact comparison of served results against direct library
//! calls.
//!
//! The golden equivalence claim is the serve crate's core contract:
//! a response float, parsed back from its JSON text, must equal the
//! direct library result **bitwise** — cold (cache miss), warm (cache
//! hit), and coalesced (attached to another request's in-flight solve)
//! paths alike. Bus results are compared against
//! [`swcc_core::bus::analyze_bus`]; network results against both
//! [`swcc_core::network::analyze_network`] and the batch solver path
//! ([`swcc_core::batch::BatchPatelSolver`]) the server solves with —
//! one guarded-Newton kernel backs both, so they are one answer.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use serde::Value;
use swcc_core::batch::{BatchPatelSolver, Stages};
use swcc_core::bus::analyze_bus;
use swcc_core::demand::scheme_demand;
use swcc_core::network::{analyze_network, NetworkPerformance};
use swcc_core::scheme::Scheme;
use swcc_core::sensitivity::sensitivity_table_at;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::{Level, ParamId, WorkloadParams};
use swcc_obs::MetricsRegistry;
use swcc_serve::metrics::SERVE_OVERSIZED_LINES;
use swcc_serve::protocol::{MAX_BUS_PROCESSORS, MAX_LINE_BYTES};
use swcc_serve::{spawn, RunningServer, ServeConfig};

fn start(workers: usize) -> RunningServer {
    spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        read_timeout: Duration::from_secs(5),
        solve_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("bind a loopback listener")
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

fn first_point(value: &Value) -> &Value {
    value
        .get_field("results")
        .and_then(|r| r.get_index(0))
        .and_then(|q| q.get_field("points"))
        .and_then(|p| p.get_index(0))
        .expect("response has results[0].points[0]")
}

fn f(value: &Value, name: &str) -> f64 {
    value
        .get_field(name)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {name}"))
}

fn cached(value: &Value) -> &str {
    value
        .get_field("cached")
        .and_then(Value::as_str)
        .expect("point has a cached tag")
}

#[test]
fn ping_reports_the_protocol_version() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let pong = client.send(r#"{"cmd":"ping"}"#);
    assert!(ok(&pong));
    assert_eq!(
        pong.get_field("version").and_then(Value::as_str),
        Some(swcc_serve::PROTOCOL_VERSION)
    );
    server.shutdown();
    server.join();
}

#[test]
fn golden_bus_results_are_bit_identical_cold_and_cached() {
    let server = start(2);
    let mut client = Client::connect(&server);
    let workload = WorkloadParams::at_level(Level::Middle);
    let system = BusSystemModel::new();
    for scheme in Scheme::ALL {
        for processors in [1u32, 16, 64] {
            let line = format!(
                "{{\"queries\":[{{\"scheme\":\"{scheme}\",\"machine\":{{\
                 \"interconnect\":\"bus\",\"processors\":{processors}}}}}]}}"
            );
            let direct = analyze_bus(scheme, &workload, &system, processors).unwrap();
            let cold = client.send(&line);
            assert!(ok(&cold), "{}", client.response);
            let cold_point = first_point(&cold);
            // The first request for this queue must actually solve it…
            assert_eq!(cached(cold_point), "miss", "{scheme} x{processors}");
            let warm = client.send(&line);
            let warm_point = first_point(&warm);
            // …and the second must come from the cache.
            assert_eq!(cached(warm_point), "hit", "{scheme} x{processors}");
            for point in [cold_point, warm_point] {
                for (name, want) in [
                    ("power", direct.power()),
                    ("utilization", direct.utilization()),
                    ("cpi", direct.cycles_per_instruction()),
                    ("waiting", direct.waiting()),
                    ("bus_utilization", direct.bus_utilization()),
                ] {
                    assert_eq!(
                        f(point, name).to_bits(),
                        want.to_bits(),
                        "{scheme} x{processors} {name}"
                    );
                }
            }
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn golden_bus_sweep_matches_pointwise_library_calls() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let system = BusSystemModel::new();
    let base = WorkloadParams::at_level(Level::Middle);
    let points = 9;
    let line = format!(
        "{{\"compact\":true,\"queries\":[{{\"kind\":\"penalty\",\"scheme\":\"software-flush\",\
         \"machine\":{{\"interconnect\":\"bus\",\"processors\":32}},\
         \"sweep\":{{\"param\":\"apl\",\"from\":1.0,\"to\":25.0,\"points\":{points}}}}}]}}"
    );
    let response = client.send(&line);
    assert!(ok(&response), "{}", client.response);
    let values = response
        .get_field("results")
        .and_then(|r| r.get_index(0))
        .and_then(|q| q.get_field("values"))
        .and_then(Value::as_array)
        .expect("compact response has values");
    assert_eq!(values.len(), points);
    for (i, served) in values.iter().enumerate() {
        let apl = 1.0 + (25.0 - 1.0) * i as f64 / (points - 1) as f64;
        let w = base.with_param(ParamId::Apl, apl).unwrap();
        let direct = analyze_bus(Scheme::SoftwareFlush, &w, &system, 32).unwrap();
        assert_eq!(
            served.as_f64().unwrap().to_bits(),
            direct.waiting().to_bits(),
            "sweep point {i} (apl = {apl})"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn golden_network_results_match_the_batch_solver_path() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let workload = WorkloadParams::at_level(Level::Middle);
    for scheme in [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush] {
        for stages in [2u32, 6, 10] {
            let line = format!(
                "{{\"queries\":[{{\"scheme\":\"{scheme}\",\"machine\":{{\
                 \"interconnect\":\"network\",\"stages\":{stages}}}}}]}}"
            );
            let demand =
                scheme_demand(scheme, &workload, &NetworkSystemModel::new(stages)).unwrap();
            let solved = BatchPatelSolver::new()
                .solve_grid(
                    &[demand.transaction_rate()],
                    &[demand.transaction_size()],
                    &Stages::Uniform(stages),
                    None,
                )
                .unwrap();
            let direct = NetworkPerformance::from_operating_point(
                scheme,
                stages,
                demand,
                solved.points()[0],
            );
            let pointwise = analyze_network(scheme, &workload, stages).unwrap();
            let response = client.send(&line);
            assert!(ok(&response), "{}", client.response);
            let point = first_point(&response);
            for (name, want, scalar) in [
                ("power", direct.power(), pointwise.power()),
                ("utilization", direct.utilization(), pointwise.utilization()),
                (
                    "think_fraction",
                    direct.operating_point().think_fraction(),
                    pointwise.operating_point().think_fraction(),
                ),
            ] {
                let served = f(point, name).to_bits();
                assert_eq!(served, want.to_bits(), "{scheme} {stages} stages {name}");
                assert_eq!(
                    served,
                    scalar.to_bits(),
                    "{scheme} {stages} stages {name} vs analyze_network"
                );
            }
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn sensitivity_ranking_matches_the_library() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let line = r#"{"queries":[{"kind":"sensitivity","scheme":"software-flush","machine":{"interconnect":"bus","processors":16}}]}"#;
    let response = client.send(line);
    assert!(ok(&response), "{}", client.response);
    let ranking = response
        .get_field("results")
        .and_then(|r| r.get_index(0))
        .and_then(|q| q.get_field("ranking"))
        .and_then(Value::as_array)
        .expect("sensitivity response has a ranking");
    let table = sensitivity_table_at(16, &WorkloadParams::at_level(Level::Middle)).unwrap();
    let direct = table.ranking(Scheme::SoftwareFlush);
    assert_eq!(ranking.len(), direct.len());
    for (served, (param, percent)) in ranking.iter().zip(&direct) {
        assert_eq!(
            served.get_field("param").and_then(Value::as_str),
            Some(param.name())
        );
        assert_eq!(f(served, "percent").to_bits(), percent.to_bits(), "{param}");
    }
    // The paper's headline result survives the wire: apl dominates.
    assert_eq!(direct[0].0, ParamId::Apl);
    server.shutdown();
    server.join();
}

#[test]
fn racing_identical_cold_queries_solve_exactly_once() {
    let server = start(8);
    let line = r#"{"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":48},"workload":{"shd":0.123}}]}"#;
    let mut handles = Vec::new();
    for _ in 0..8 {
        let mut client = Client::connect(&server);
        let line = line.to_string();
        handles.push(std::thread::spawn(move || {
            let response = client.send(&line);
            assert!(ok(&response), "{}", client.response);
            let point = first_point(&response);
            (f(point, "power").to_bits(), cached(point).to_string())
        }));
    }
    let results: Vec<(u64, String)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Every racer serves the same bits…
    let bits = results[0].0;
    assert!(results.iter().all(|(b, _)| *b == bits));
    // …exactly one of them solved it (the rest hit or coalesced).
    let misses = results.iter().filter(|(_, tag)| tag == "miss").count();
    assert_eq!(misses, 1, "tags: {results:?}");
    let state = server.state();
    assert!(
        state.stats_response().contains("\"solve_lanes\":1"),
        "{}",
        state.stats_response()
    );
    server.shutdown();
    server.join();
}

#[test]
fn errors_name_the_offending_query_and_keep_the_connection_alive() {
    let server = start(1);
    let mut client = Client::connect(&server);

    let bad_scheme = client.send(
        r#"{"id":41,"queries":[{"scheme":"mesi","machine":{"interconnect":"bus","processors":4}}]}"#,
    );
    assert!(!ok(&bad_scheme));
    let message = bad_scheme
        .get_field("error")
        .and_then(Value::as_str)
        .unwrap();
    assert!(message.contains("query 0"), "{message}");
    assert_eq!(bad_scheme.get_field("id").and_then(Value::as_u64), Some(41));

    let bad_json = client.send("this is not json");
    assert!(!ok(&bad_json));

    let dragon_net = client.send(
        r#"{"queries":[{"scheme":"dragon","machine":{"interconnect":"network","stages":4}}]}"#,
    );
    assert!(!ok(&dragon_net));

    let bus = |kind: &str, processors: u32| {
        format!(
            r#"{{"queries":[{{"kind":"{kind}","scheme":"dragon","machine":{{"interconnect":"bus","processors":{processors}}}}}]}}"#
        )
    };
    for kind in ["power", "sensitivity"] {
        let too_many_cpus = client.send(&bus(kind, MAX_BUS_PROCESSORS + 1));
        let message = too_many_cpus
            .get_field("error")
            .and_then(Value::as_str)
            .unwrap();
        assert!(message.contains("between 1 and 1024"), "{message}");
    }

    // The connection survives all these errors.
    let largest_bus = client.send(&bus("power", MAX_BUS_PROCESSORS));
    assert!(ok(&largest_bus), "{}", client.response);
    let pong = client.send(r#"{"cmd":"ping"}"#);
    assert!(ok(&pong));
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_command_stops_the_server() {
    // More workers than a fixed wake-up budget, and a telemetry
    // listener: every thread blocked in accept must leave.
    for (workers, telemetry) in [(2, false), (24, false), (2, true)] {
        let server = spawn(ServeConfig {
            workers,
            telemetry_addr: telemetry.then(|| "127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        })
        .expect("bind loopback listeners");
        let mut client = Client::connect(&server);
        let response = client.send(r#"{"cmd":"shutdown"}"#);
        assert!(ok(&response));
        assert!(server.state().shutting_down());
        // join() returning proves the whole pool drained; joining on a
        // helper thread turns a thread left in accept into a failure
        // instead of a hang.
        let (joined, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            let _ = joined.send(());
        });
        assert!(
            done.recv_timeout(Duration::from_secs(10)).is_ok(),
            "{workers} workers, telemetry {telemetry}: still running 10 s after shutdown"
        );
    }
}

#[test]
fn stats_carry_uptime_and_build_provenance() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let stats = client.send(r#"{"cmd":"stats"}"#);
    assert!(ok(&stats));
    let inner = stats.get_field("stats").expect("stats object");
    let uptime = inner
        .get_field("uptime_s")
        .and_then(Value::as_f64)
        .expect("stats has uptime_s");
    assert!(uptime >= 0.0);
    let build = inner.get_field("build").expect("stats has build");
    for field in ["commit", "rustc", "profile"] {
        let v = build
            .get_field(field)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("build has string {field}"));
        assert!(!v.is_empty(), "{field} must be non-empty");
    }
    server.shutdown();
    server.join();
}

#[test]
fn telemetry_command_reports_windows_uptime_and_build() {
    let server = start(1);
    let mut client = Client::connect(&server);
    // Generate some traffic first so the windows have something in them.
    let batch = client
        .send(r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#);
    assert!(ok(&batch));
    let telemetry = client.send(r#"{"cmd":"telemetry"}"#);
    assert!(ok(&telemetry), "{}", client.response);
    assert_eq!(
        telemetry.get_field("schema").and_then(Value::as_str),
        Some(swcc_serve::TELEMETRY_SCHEMA)
    );
    assert!(telemetry
        .get_field("uptime_s")
        .and_then(Value::as_f64)
        .is_some());
    assert!(telemetry.get_field("build").is_some());
    let windows = telemetry
        .get_field("windows")
        .and_then(|w| w.get_field("windows"))
        .and_then(Value::as_array)
        .expect("telemetry has windows.windows[]");
    assert_eq!(windows.len(), 3, "1s / 10s / 60s");
    // No registry was installed into this config → cumulative is null.
    let cumulative = telemetry.get_field("cumulative").expect("field present");
    assert!(cumulative.is_null(), "{cumulative:?}");
    // The slow view always answers, even when empty.
    let slow = client.send(r#"{"cmd":"telemetry","slow":true}"#);
    assert!(ok(&slow));
    assert!(slow.get_field("slow").and_then(Value::as_array).is_some());
    server.shutdown();
    server.join();
}

#[test]
fn batch_responses_echo_the_client_request_id() {
    let server = start(1);
    let mut client = Client::connect(&server);
    let response = client.send(
        r#"{"request":"trace-me-7","queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#,
    );
    assert!(ok(&response));
    assert_eq!(
        response.get_field("request").and_then(Value::as_str),
        Some("trace-me-7")
    );
    server.shutdown();
    server.join();
}

#[test]
fn request_accounting_shows_up_in_stats() {
    let server = start(1);
    let mut client = Client::connect(&server);
    // Dragon's demand varies point-to-point under a shd sweep, so all
    // 16 points are distinct cache keys.
    let line = r#"{"compact":true,"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":8},"sweep":{"param":"shd","from":0.01,"to":0.2,"points":16}}]}"#;
    let first = client.send(line);
    assert!(ok(&first));
    let second = client.send(line);
    assert!(ok(&second));
    let second_cache = second.get_field("cache").unwrap();
    assert_eq!(
        second_cache.get_field("hits").and_then(Value::as_u64),
        Some(16),
        "warm request is all hits"
    );
    let stats = client.send(r#"{"cmd":"stats"}"#);
    let inner = stats.get_field("stats").unwrap();
    assert_eq!(inner.get_field("queries").and_then(Value::as_u64), Some(32));
    assert_eq!(inner.get_field("solves").and_then(Value::as_u64), Some(1));
    let cache = inner.get_field("cache").unwrap();
    assert_eq!(cache.get_field("entries").and_then(Value::as_u64), Some(16));
    server.shutdown();
    server.join();
}

/// The cache counters from `{"cmd":"stats"}`:
/// `(hits, misses, coalesced, probes, entries)`.
fn cache_stats(client: &mut Client) -> [u64; 5] {
    let stats = client.send(r#"{"cmd":"stats"}"#);
    let cache = stats
        .get_field("stats")
        .and_then(|s| s.get_field("cache"))
        .expect("stats response has a cache section");
    ["hits", "misses", "coalesced", "probes", "entries"].map(|name| {
        cache
            .get_field(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing cache counter {name}"))
    })
}

#[test]
fn cold_sweep_admission_cost_does_not_grow_with_the_cache() {
    // Counts, not timings: a sorted-shard cache probed ~log2(entries)
    // keys per lookup, so the same cold sweep cost more probes in a
    // full cache than in an empty one. Two cold 2,048-point sweeps, the
    // second into a cache holding about 40k entries, must cost the
    // same per lookup.
    const POINTS: u32 = 2048;
    let server = start(1);
    let mut client = Client::connect(&server);
    let system = BusSystemModel::new();
    let base = WorkloadParams::at_level(Level::Middle);
    let query = |from: f64, to: f64| {
        format!(
            "{{\"kind\":\"power\",\"scheme\":\"dragon\",\
             \"machine\":{{\"interconnect\":\"bus\",\"processors\":16}},\
             \"sweep\":{{\"param\":\"shd\",\"from\":{from},\"to\":{to},\"points\":{POINTS}}}}}"
        )
    };
    let cold_sweep = |client: &mut Client, from: f64, to: f64| -> f64 {
        let [hits0, misses0, coalesced0, probes0, _] = cache_stats(client);
        let response = client.send(&format!(
            "{{\"compact\":true,\"queries\":[{}]}}",
            query(from, to)
        ));
        assert!(ok(&response), "{}", client.response);
        let values = response
            .get_field("results")
            .and_then(|r| r.get_index(0))
            .and_then(|q| q.get_field("values"))
            .and_then(Value::as_array)
            .expect("compact response has values");
        assert_eq!(values.len(), POINTS as usize);
        for (i, served) in (0..POINTS).zip(values) {
            let shd = from + (to - from) * f64::from(i) / f64::from(POINTS - 1);
            let w = base.with_param(ParamId::Shd, shd).unwrap();
            let direct = analyze_bus(Scheme::Dragon, &w, &system, 16).unwrap();
            assert_eq!(
                served.as_f64().unwrap().to_bits(),
                direct.power().to_bits(),
                "sweep point {i} (shd = {shd})"
            );
        }
        let [hits, misses, coalesced, probes, _] = cache_stats(client);
        assert_eq!((hits, misses), (hits0, misses0 + u64::from(POINTS)), "cold");
        let lookups = (hits + misses + coalesced) - (hits0 + misses0 + coalesced0);
        (probes - probes0) as f64 / lookups as f64
    };

    let empty = cold_sweep(&mut client, 0.01, 0.02);
    let fill: Vec<String> = (0..19)
        .map(|k| {
            let from = 0.1 + 0.01 * f64::from(k);
            query(from, from + 0.009)
        })
        .collect();
    let response = client.send(&format!(
        "{{\"compact\":true,\"queries\":[{}]}}",
        fill.join(",")
    ));
    assert!(ok(&response), "{}", client.response);
    let entries = cache_stats(&mut client)[4];
    assert!(entries >= 40_000, "cache holds {entries} entries");
    let full = cold_sweep(&mut client, 0.03, 0.04);
    assert!(
        (full - empty).abs() <= 0.10 * empty,
        "probes per lookup: {empty:.3} into an empty cache, {full:.3} into {entries} entries"
    );
    drop(client);
    server.shutdown();
    server.join();
}

/// The registry this test binary installs once, so connection-level
/// counters can be read back. Only the over-long line test reads it.
fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<&'static MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry = swcc_serve::metrics::register(swcc_obs::RegistryBuilder::new()).build();
        let registry: &'static MetricsRegistry = Box::leak(Box::new(registry));
        swcc_obs::install(registry).expect("first registry install in this process");
        registry
    })
}

#[test]
fn an_over_long_request_line_is_rejected_counted_and_closed() {
    let registry = registry();
    let server = spawn(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .expect("bind loopback listeners");

    // One byte over the cap and no newline: the server stops reading
    // there, answers an error naming the limit, and closes.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("write");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read the rejection");
    let rejection: Value = serde_json::from_str(response.trim()).expect("JSON error response");
    assert!(!ok(&rejection), "{response}");
    let error = rejection.get_field("error").and_then(Value::as_str);
    assert!(
        error.is_some_and(|e| e.contains(&MAX_LINE_BYTES.to_string())),
        "{response}"
    );
    response.clear();
    assert_eq!(reader.read_line(&mut response).expect("read"), 0, "closed");
    assert_eq!(registry.counter_value(SERVE_OVERSIZED_LINES), Some(1));

    // The single worker is free again, and a line of exactly the cap is
    // served.
    let mut client = Client::connect(&server);
    let ping = r#"{"cmd":"ping"}"#;
    let padded = format!("{ping}{}", " ".repeat(MAX_LINE_BYTES - ping.len()));
    assert!(ok(&client.send(&padded)), "{}", client.response);

    // The exposition listener caps its request line too.
    let telemetry = server.telemetry_addr().expect("telemetry listener");
    let mut scrape = TcpStream::connect(telemetry).expect("connect");
    let path = "x".repeat(8192);
    scrape
        .write_all(format!("GET /{path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("write");
    let mut reply = String::new();
    let _ = scrape.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.0 414 "), "{reply}");
    assert_eq!(registry.counter_value(SERVE_OVERSIZED_LINES), Some(2));

    drop(client);
    server.shutdown();
    server.join();
}
