//! Closed-loop load harness for `swcc-serve`.
//!
//! ```text
//! swcc-loadgen --addr HOST:PORT [--connections N] [--duration-ms MS]
//!              [--warmup-ms MS] [--sweep-points K] [--processors P]
//!              [--full] [--min-qps Q] [--min-hit-rate R]
//!              [--timeline] [--max-p99-us US] [--slo-windows K]
//!              [--telemetry-out PATH] [--verify] [--out PATH]
//!              [--shutdown]
//! ```
//!
//! Each connection replays one compact batch request — all four
//! schemes swept over `shd` at `K` points each — as fast as the server
//! answers, after one untimed warmup round that populates the cache.
//! The report (stdout, and `--out` as JSON, schema `swcc-loadgen/v2`)
//! gives served-query throughput, request latency quantiles
//! ([`swcc_obs::quantile`]), and the server's cache counter deltas.
//!
//! Requests inside the first `--warmup-ms` (default 250) of the timed
//! run are excluded from the gated quantiles, so short CI runs don't
//! gate on one-time cold-solve latency. (All samples still appear in
//! throughput and the server counters.)
//!
//! `--timeline` opens one extra connection that scrapes
//! `{"cmd":"telemetry"}` once per second, emitting a per-second
//! qps / hit-rate / latency-quantile timeline into the report. The
//! steady-state p99 is the median of the post-warmup per-second p99s;
//! the report also records how it agrees with the client-side measured
//! p99. `--telemetry-out` saves the last raw telemetry response.
//!
//! Gates (process exits nonzero on violation):
//!
//! * every request must succeed (`"ok":true`);
//! * `--min-qps` — served queries/second floor;
//! * `--min-hit-rate` — cache hits ÷ admissions floor over the timed
//!   window (the warmup makes the steady state all-hits);
//! * the server's hit counter must move at all (the cache is actually
//!   in the serving path);
//! * `--max-p99-us` — burn-style latency SLO: with `--timeline`, fail
//!   if more than `--slo-windows` (default 2) post-warmup per-second
//!   windows have p99 over the ceiling; without a timeline, fail if
//!   the post-warmup client p99 is over it.
//!
//! `--verify` additionally sends one full-mode request of 14 queries
//! and bit-compares every served float against the equivalent direct
//! library call in this process (network floats against both a batch
//! lane and `analyze_network`) — proving the wire format preserves
//! results exactly. The request names every scheme at `--processors`
//! and at a second count (twice as many, or half as many above 512),
//! and every network scheme at 6 and at 8 stages. Bus demand does not
//! depend on the processor count, so the two bus machines share keys
//! inside the one request, and a server that served one machine's point
//! for another would fail; the two networks are solved in one request
//! too. Keep `--connections` at or below the server's worker count: the
//! server is one-thread-per-connection.
//!
//! `--shutdown` sends `{"cmd":"shutdown"}` once the run ends, whether
//! it passed or failed.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;
use swcc_core::batch::BatchPatelSolver;
use swcc_core::bus::analyze_bus;
use swcc_core::demand::scheme_demand;
use swcc_core::network::{analyze_network, NetworkPerformance};
use swcc_core::scheme::Scheme;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::{Level, WorkloadParams};
use swcc_serve::protocol::{Machine, MAX_BUS_PROCESSORS};

struct Args {
    addr: String,
    connections: usize,
    duration: Duration,
    warmup: Duration,
    sweep_points: u32,
    processors: u32,
    compact: bool,
    min_qps: f64,
    min_hit_rate: f64,
    timeline: bool,
    max_p99_us: f64,
    slo_windows: u64,
    telemetry_out: Option<String>,
    verify: bool,
    out: Option<String>,
    shutdown: bool,
}

fn usage() -> &'static str {
    "usage: swcc-loadgen --addr HOST:PORT [--connections N] [--duration-ms MS] \
     [--warmup-ms MS (default 250; excluded from gated quantiles)] \
     [--sweep-points K] [--processors P] [--full] [--min-qps Q] \
     [--min-hit-rate R] [--timeline] [--max-p99-us US] \
     [--slo-windows K (default 2)] [--telemetry-out PATH] [--verify] \
     [--out PATH] [--shutdown]"
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: String::new(),
        connections: 4,
        duration: Duration::from_millis(2000),
        warmup: Duration::from_millis(250),
        sweep_points: 2048,
        processors: 16,
        compact: true,
        min_qps: 0.0,
        min_hit_rate: 0.0,
        timeline: false,
        max_p99_us: 0.0,
        slo_windows: 2,
        telemetry_out: None,
        verify: false,
        out: None,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr")?,
            "--connections" => {
                parsed.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
                if parsed.connections == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
            }
            "--duration-ms" => {
                let ms: u64 = value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?;
                parsed.duration = Duration::from_millis(ms.max(1));
            }
            "--warmup-ms" => {
                let ms: u64 = value("--warmup-ms")?
                    .parse()
                    .map_err(|e| format!("--warmup-ms: {e}"))?;
                parsed.warmup = Duration::from_millis(ms);
            }
            "--sweep-points" => {
                parsed.sweep_points = value("--sweep-points")?
                    .parse()
                    .map_err(|e| format!("--sweep-points: {e}"))?;
                if parsed.sweep_points == 0 {
                    return Err("--sweep-points must be at least 1".to_string());
                }
            }
            "--processors" => {
                parsed.processors = value("--processors")?
                    .parse()
                    .map_err(|e| format!("--processors: {e}"))?;
            }
            "--full" => parsed.compact = false,
            "--min-qps" => {
                parsed.min_qps = value("--min-qps")?
                    .parse()
                    .map_err(|e| format!("--min-qps: {e}"))?;
            }
            "--min-hit-rate" => {
                parsed.min_hit_rate = value("--min-hit-rate")?
                    .parse()
                    .map_err(|e| format!("--min-hit-rate: {e}"))?;
            }
            "--timeline" => parsed.timeline = true,
            "--max-p99-us" => {
                parsed.max_p99_us = value("--max-p99-us")?
                    .parse()
                    .map_err(|e| format!("--max-p99-us: {e}"))?;
                if !parsed.max_p99_us.is_finite() || parsed.max_p99_us < 0.0 {
                    return Err("--max-p99-us must be a finite non-negative number".to_string());
                }
            }
            "--slo-windows" => {
                parsed.slo_windows = value("--slo-windows")?
                    .parse()
                    .map_err(|e| format!("--slo-windows: {e}"))?;
            }
            "--telemetry-out" => parsed.telemetry_out = Some(value("--telemetry-out")?),
            "--verify" => parsed.verify = true,
            "--out" => parsed.out = Some(value("--out")?),
            "--shutdown" => parsed.shutdown = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if parsed.addr.is_empty() {
        return Err(format!("--addr is required\n{}", usage()));
    }
    Ok(parsed)
}

/// One request line: every scheme swept over `shd`, bus machine.
fn build_request(args: &Args) -> String {
    use std::fmt::Write as _;
    let mut line = format!("{{\"compact\":{},\"queries\":[", args.compact);
    for (i, scheme) in ["base", "no-cache", "software-flush", "dragon"]
        .iter()
        .enumerate()
    {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"scheme\":\"{scheme}\",\"machine\":{{\"interconnect\":\"bus\",\
             \"processors\":{}}},\"sweep\":{{\"param\":\"shd\",\"from\":0.02,\
             \"to\":0.2,\"points\":{}}}}}",
            args.processors, args.sweep_points
        );
    }
    line.push_str("]}");
    line
}

struct WorkerReport {
    requests: u64,
    queries: u64,
    errors: u64,
    /// `(offset_ms from the timed-run start, latency_us)` per request.
    latencies_us: Vec<(f64, f64)>,
}

fn connect(addr: &str) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((reader, BufWriter::new(stream)))
}

fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    line: &str,
    response: &mut String,
) -> Result<(), String> {
    writer
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    writer.write_all(b"\n").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    response.clear();
    let n = reader.read_line(response).map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("server closed the connection".to_string());
    }
    Ok(())
}

fn worker(
    addr: String,
    line: String,
    queries_per_request: u64,
    run_started: Instant,
    deadline: Instant,
) -> WorkerReport {
    let mut report = WorkerReport {
        requests: 0,
        queries: 0,
        errors: 0,
        latencies_us: Vec::new(),
    };
    let (mut reader, mut writer) = match connect(&addr) {
        Ok(pair) => pair,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };
    let mut response = String::new();
    // Warmup round: populates the cache, untimed.
    if round_trip(&mut reader, &mut writer, &line, &mut response).is_err()
        || !response.starts_with("{\"ok\":true")
    {
        report.errors += 1;
        return report;
    }
    while Instant::now() < deadline {
        let started = Instant::now();
        if round_trip(&mut reader, &mut writer, &line, &mut response).is_err() {
            report.errors += 1;
            break;
        }
        report.latencies_us.push((
            started.duration_since(run_started).as_secs_f64() * 1e3,
            started.elapsed().as_secs_f64() * 1e6,
        ));
        report.requests += 1;
        if response.starts_with("{\"ok\":true") {
            report.queries += queries_per_request;
        } else {
            report.errors += 1;
        }
    }
    report
}

/// One per-second telemetry scrape, reduced to the 1s window.
struct TimelinePoint {
    offset_ms: f64,
    qps: f64,
    hit_rate: Option<f64>,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
}

struct TimelineReport {
    points: Vec<TimelinePoint>,
    scrape_errors: u64,
    last_raw: Option<String>,
}

/// Reduces one `telemetry` response to the 1-second window's numbers.
fn reduce_scrape(raw: &str, offset_ms: f64) -> Option<TimelinePoint> {
    let parsed: Value = serde_json::from_str(raw.trim()).ok()?;
    let windows = parsed
        .get_field("windows")
        .and_then(|w| w.get_field("windows"))
        .and_then(Value::as_array)?;
    let one_s = windows
        .iter()
        .find(|w| w.get_field("seconds").and_then(Value::as_u64) == Some(1))?;
    let counters = one_s.get_field("counters")?;
    let counter = |name: &str| {
        counters
            .get_field(name)
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let admissions = counter("hits") + counter("misses") + counter("coalesced");
    let hit_rate = if admissions > 0 {
        Some(counter("hits") as f64 / admissions as f64)
    } else {
        None
    };
    let qps = one_s
        .get_field("rates")
        .and_then(|r| r.get_field("queries"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let latency = one_s.get_field("latency");
    let q = |name: &str| {
        latency
            .and_then(|l| l.get_field(name))
            .and_then(Value::as_f64)
    };
    Some(TimelinePoint {
        offset_ms,
        qps,
        hit_rate,
        p50: q("p50"),
        p90: q("p90"),
        p99: q("p99"),
    })
}

/// The timeline thread: scrape `{"cmd":"telemetry"}` once per second on
/// its own connection until the deadline.
fn timeline_worker(addr: String, run_started: Instant, deadline: Instant) -> TimelineReport {
    let mut report = TimelineReport {
        points: Vec::new(),
        scrape_errors: 0,
        last_raw: None,
    };
    let Ok((mut reader, mut writer)) = connect(&addr) else {
        report.scrape_errors += 1;
        return report;
    };
    let mut response = String::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        thread::sleep((deadline - now).min(Duration::from_secs(1)));
        let offset_ms = run_started.elapsed().as_secs_f64() * 1e3;
        if round_trip(
            &mut reader,
            &mut writer,
            r#"{"cmd":"telemetry"}"#,
            &mut response,
        )
        .is_err()
        {
            report.scrape_errors += 1;
            break;
        }
        match reduce_scrape(&response, offset_ms) {
            Some(point) => report.points.push(point),
            None => report.scrape_errors += 1,
        }
        report.last_raw = Some(response.trim().to_string());
    }
    report
}

fn server_stat(stats: &Value, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        node = match node.get_field(key) {
            Some(v) => v,
            None => return 0,
        };
    }
    node.as_u64().unwrap_or(0)
}

fn fetch_stats(addr: &str) -> Result<Value, String> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut response = String::new();
    round_trip(
        &mut reader,
        &mut writer,
        r#"{"cmd":"stats"}"#,
        &mut response,
    )?;
    serde_json::from_str(response.trim()).map_err(|e| format!("stats response: {e}"))
}

fn field_f64(value: &Value, name: &str) -> Result<f64, String> {
    value
        .get_field(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("response missing numeric \"{name}\""))
}

/// Network stage counts `--verify` checks, in order.
const VERIFY_STAGES: [u32; 2] = [6, 8];

/// The bus machine `--verify` checks after `processors`: twice as many,
/// or half as many when twice would pass the protocol's limit.
fn second_processor_count(processors: u32) -> u32 {
    if processors <= MAX_BUS_PROCESSORS / 2 {
        processors * 2
    } else {
        processors / 2
    }
}

/// Bit-compares full-mode served results against direct library calls:
/// one request naming two bus machines and two networks.
fn verify(addr: &str, processors: u32) -> Result<u64, String> {
    let workload = WorkloadParams::at_level(Level::Middle);
    let machines = [processors, second_processor_count(processors)]
        .map(|processors| Machine::Bus { processors })
        .into_iter()
        .chain(VERIFY_STAGES.map(|stages| Machine::Network { stages }));
    let queries: Vec<(Scheme, Machine)> = machines
        .flat_map(|machine| Scheme::ALL.into_iter().map(move |scheme| (scheme, machine)))
        .filter(|(scheme, machine)| {
            matches!(machine, Machine::Bus { .. }) || !scheme.requires_bus()
        })
        .collect();
    let line = queries
        .iter()
        .map(|(scheme, machine)| {
            let (interconnect, size, n) = match *machine {
                Machine::Bus { processors } => ("bus", "processors", processors),
                Machine::Network { stages } => ("network", "stages", stages),
            };
            format!(
                "{{\"scheme\":\"{scheme}\",\"machine\":{{\"interconnect\":\"{interconnect}\",\"{size}\":{n}}}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let line = format!("{{\"queries\":[{line}]}}");
    let (mut reader, mut writer) = connect(addr)?;
    let mut response = String::new();
    round_trip(&mut reader, &mut writer, &line, &mut response)?;
    let parsed: Value =
        serde_json::from_str(response.trim()).map_err(|e| format!("verify parse: {e}"))?;
    let mut checked = 0u64;
    for (qi, (scheme, machine)) in queries.into_iter().enumerate() {
        let point = parsed
            .get_field("results")
            .and_then(|r| r.get_index(qi))
            .and_then(|q| q.get_field("points"))
            .and_then(|p| p.get_index(0))
            .ok_or_else(|| format!("verify: malformed response for {scheme}: {response}"))?;
        // (field, direct call, its value) for every float checked.
        let want = match machine {
            Machine::Bus { processors } => {
                let direct = analyze_bus(scheme, &workload, &BusSystemModel::new(), processors)
                    .map_err(|e| e.to_string())?;
                vec![
                    ("power", "analyze_bus", direct.power()),
                    ("utilization", "analyze_bus", direct.utilization()),
                    ("cpi", "analyze_bus", direct.cycles_per_instruction()),
                    ("waiting", "analyze_bus", direct.waiting()),
                    ("bus_utilization", "analyze_bus", direct.bus_utilization()),
                ]
            }
            Machine::Network { stages } => {
                let demand = scheme_demand(scheme, &workload, &NetworkSystemModel::new(stages))
                    .map_err(|e| e.to_string())?;
                let solved = BatchPatelSolver::new()
                    .solve(
                        &[demand.transaction_rate()],
                        &[demand.transaction_size()],
                        stages,
                    )
                    .map_err(|e| e.to_string())?;
                let batch = NetworkPerformance::from_operating_point(
                    scheme,
                    stages,
                    demand,
                    solved.points()[0],
                );
                let pointwise =
                    analyze_network(scheme, &workload, stages).map_err(|e| e.to_string())?;
                vec![
                    ("power", "batch", batch.power()),
                    ("power", "analyze_network", pointwise.power()),
                    ("utilization", "batch", batch.utilization()),
                    ("utilization", "analyze_network", pointwise.utilization()),
                ]
            }
        };
        for (name, path, want) in want {
            let got = field_f64(point, name)?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "verify: {scheme} on {machine:?} {name} mismatch: \
                     served {got:?} vs {path} {want:?}"
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

fn quantile_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn opt_json(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let line = build_request(args);
    let queries_per_request = 4 * u64::from(args.sweep_points);
    let warmup_ms = args.warmup.as_secs_f64() * 1e3;

    let before = fetch_stats(&args.addr)?;
    let started = Instant::now();
    let deadline = started + args.duration;
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for _ in 0..args.connections {
        let tx = tx.clone();
        let addr = args.addr.clone();
        let line = line.clone();
        handles.push(thread::spawn(move || {
            let report = worker(addr, line, queries_per_request, started, deadline);
            let _ = tx.send(report);
        }));
    }
    drop(tx);
    let timeline_handle = args.timeline.then(|| {
        let addr = args.addr.clone();
        thread::spawn(move || timeline_worker(addr, started, deadline))
    });
    let mut requests = 0u64;
    let mut queries = 0u64;
    let mut errors = 0u64;
    let mut samples: Vec<(f64, f64)> = Vec::new();
    for report in rx {
        requests += report.requests;
        queries += report.queries;
        errors += report.errors;
        samples.extend(report.latencies_us);
    }
    for handle in handles {
        let _ = handle.join();
    }
    let timeline = timeline_handle.map(|h| {
        h.join().unwrap_or(TimelineReport {
            points: Vec::new(),
            scrape_errors: 1,
            last_raw: None,
        })
    });
    let elapsed = started.elapsed().as_secs_f64();
    let after = fetch_stats(&args.addr)?;

    let verified_points = if args.verify {
        verify(&args.addr, args.processors)?
    } else {
        0
    };

    let qps = if elapsed > 0.0 {
        queries as f64 / elapsed
    } else {
        0.0
    };
    // Gated quantiles exclude the warmup ramp; if nothing survives the
    // cut (a run shorter than the warmup), fall back to all samples.
    let warm: Vec<f64> = {
        let post: Vec<f64> = samples
            .iter()
            .filter(|(offset_ms, _)| *offset_ms >= warmup_ms)
            .map(|(_, lat)| *lat)
            .collect();
        if post.is_empty() {
            samples.iter().map(|(_, lat)| *lat).collect()
        } else {
            post
        }
    };
    let quantile_points = swcc_obs::quantile::quantiles(&warm, &[0.5, 0.9, 0.99, 1.0]);
    let (p50, p90, p99, max) = match quantile_points {
        Some(qs) => (
            qs[0].unwrap_or(f64::NAN),
            qs[1].unwrap_or(f64::NAN),
            qs[2].unwrap_or(f64::NAN),
            qs[3].unwrap_or(f64::NAN),
        ),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };

    let hits = server_stat(&after, &["stats", "cache", "hits"])
        .saturating_sub(server_stat(&before, &["stats", "cache", "hits"]));
    let misses = server_stat(&after, &["stats", "cache", "misses"])
        .saturating_sub(server_stat(&before, &["stats", "cache", "misses"]));
    let coalesced = server_stat(&after, &["stats", "cache", "coalesced"])
        .saturating_sub(server_stat(&before, &["stats", "cache", "coalesced"]));
    let solves = server_stat(&after, &["stats", "solves"])
        .saturating_sub(server_stat(&before, &["stats", "solves"]));
    let server_errors = server_stat(&after, &["stats", "errors"])
        .saturating_sub(server_stat(&before, &["stats", "errors"]));
    let admissions = hits + misses + coalesced;
    let hit_rate = if admissions > 0 {
        hits as f64 / admissions as f64
    } else {
        0.0
    };

    // Steady state from the timeline: the median of the post-warmup
    // per-second p99s, compared against the client-side p99.
    let steady_p99s: Vec<f64> = timeline
        .as_ref()
        .map(|t| {
            t.points
                .iter()
                .filter(|p| p.offset_ms >= warmup_ms)
                .filter_map(|p| p.p99)
                .collect()
        })
        .unwrap_or_default();
    let steady_p99 = swcc_obs::quantile::median(&steady_p99s);
    let agreement_ratio = match steady_p99 {
        Some(server) if p99.is_finite() && p99 > 0.0 => Some(server / p99),
        _ => None,
    };

    println!(
        "swcc-loadgen: {queries} queries in {elapsed:.3}s over {} connection(s) \
         => {qps:.0} queries/s ({requests} requests, {errors} errors)",
        args.connections
    );
    println!(
        "  latency_us (post-warmup {warmup_ms:.0}ms): p50={p50:.0} p90={p90:.0} \
         p99={p99:.0} max={max:.0}; server cache over window: {hits} hits / \
         {misses} misses / {coalesced} coalesced (hit rate {hit_rate:.4}), \
         {solves} solver calls, {server_errors} server errors"
    );
    if let Some(t) = &timeline {
        println!(
            "  timeline: {} scrape(s), {} error(s); steady-state p99 {} \
             (server/client ratio {})",
            t.points.len(),
            t.scrape_errors,
            steady_p99.map_or("n/a".to_string(), |v| format!("{v:.0}us")),
            agreement_ratio.map_or("n/a".to_string(), |v| format!("{v:.3}")),
        );
    }
    if args.verify {
        println!("  verify: {verified_points} served floats bit-identical to direct library calls");
    }

    let mut gate_failures: Vec<String> = Vec::new();
    if errors > 0 {
        gate_failures.push(format!("{errors} request error(s)"));
    }
    if args.min_qps > 0.0 && qps < args.min_qps {
        gate_failures.push(format!(
            "throughput {qps:.0} queries/s below floor {:.0}",
            args.min_qps
        ));
    }
    if hits == 0 {
        gate_failures.push("server cache hit counter did not move".to_string());
    }
    if args.min_hit_rate > 0.0 && hit_rate < args.min_hit_rate {
        gate_failures.push(format!(
            "hit rate {hit_rate:.4} below floor {:.4}",
            args.min_hit_rate
        ));
    }
    // Burn-style SLO: tolerate up to --slo-windows breaching windows
    // before failing (one slow second in a long run is noise; a
    // sustained burn is not).
    let mut slo_breaches = 0u64;
    if args.max_p99_us > 0.0 {
        match &timeline {
            Some(t) => {
                slo_breaches = t
                    .points
                    .iter()
                    .filter(|p| p.offset_ms >= warmup_ms)
                    .filter_map(|p| p.p99)
                    .filter(|p99| *p99 > args.max_p99_us)
                    .count() as u64;
                if slo_breaches > args.slo_windows {
                    gate_failures.push(format!(
                        "p99 SLO burn: {slo_breaches} window(s) over {:.0}us \
                         (allowed {})",
                        args.max_p99_us, args.slo_windows
                    ));
                }
            }
            None => {
                if p99.is_finite() && p99 > args.max_p99_us {
                    slo_breaches = 1;
                    gate_failures.push(format!(
                        "p99 {p99:.0}us over SLO ceiling {:.0}us",
                        args.max_p99_us
                    ));
                }
            }
        }
    }

    if let Some(path) = &args.telemetry_out {
        let raw = timeline
            .as_ref()
            .and_then(|t| t.last_raw.clone())
            .map_or_else(
                || Err("no telemetry snapshot captured (is --timeline on?)".to_string()),
                Ok,
            )?;
        std::fs::write(path, raw + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("  telemetry snapshot written to {path}");
    }

    if let Some(path) = &args.out {
        use std::fmt::Write as _;
        let mut report = String::from("{\"schema\":\"swcc-loadgen/v2\"");
        let _ = write!(
            report,
            ",\"addr\":\"{}\",\"connections\":{},\"duration_ms\":{},\
             \"warmup_ms\":{warmup_ms},\"sweep_points\":{},\"compact\":{},\
             \"requests\":{requests},\"queries\":{queries},\"errors\":{errors},\
             \"elapsed_s\":{elapsed},\"queries_per_second\":{qps}",
            args.addr,
            args.connections,
            args.duration.as_millis(),
            args.sweep_points,
            args.compact,
        );
        let _ = write!(
            report,
            ",\"latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            quantile_json(p50),
            quantile_json(p90),
            quantile_json(p99),
            quantile_json(max),
        );
        let _ = write!(
            report,
            ",\"server\":{{\"hits\":{hits},\"misses\":{misses},\
             \"coalesced\":{coalesced},\"solves\":{solves},\
             \"errors\":{server_errors},\"hit_rate\":{}}}",
            quantile_json(hit_rate),
        );
        match &timeline {
            None => report.push_str(",\"timeline\":null"),
            Some(t) => {
                report.push_str(",\"timeline\":[");
                for (i, p) in t.points.iter().enumerate() {
                    if i > 0 {
                        report.push(',');
                    }
                    let _ = write!(
                        report,
                        "{{\"offset_ms\":{},\"qps\":{},\"hit_rate\":{},\
                         \"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}",
                        quantile_json(p.offset_ms),
                        quantile_json(p.qps),
                        opt_json(p.hit_rate),
                        opt_json(p.p50),
                        opt_json(p.p90),
                        opt_json(p.p99),
                    );
                }
                let _ = write!(report, "],\"scrape_errors\":{}", t.scrape_errors);
            }
        }
        let _ = write!(
            report,
            ",\"steady_state\":{{\"windows\":{},\"p99_us\":{}}}",
            steady_p99s.len(),
            opt_json(steady_p99),
        );
        let _ = write!(
            report,
            ",\"agreement\":{{\"client_p99_us\":{},\"server_steady_p99_us\":{},\
             \"ratio\":{}}}",
            quantile_json(p99),
            opt_json(steady_p99),
            opt_json(agreement_ratio),
        );
        let _ = write!(
            report,
            ",\"slo\":{{\"max_p99_us\":{},\"allowed_windows\":{},\
             \"breaches\":{slo_breaches}}}",
            quantile_json(args.max_p99_us),
            args.slo_windows,
        );
        let _ = write!(
            report,
            ",\"verified_points\":{verified_points},\"gates\":{{\"min_qps\":{},\
             \"min_hit_rate\":{},\"passed\":{}}}}}",
            quantile_json(args.min_qps),
            quantile_json(args.min_hit_rate),
            gate_failures.is_empty(),
        );
        std::fs::write(path, report).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  report written to {path}");
    }

    if !gate_failures.is_empty() {
        return Err(format!("gate failure: {}", gate_failures.join("; ")));
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let outcome = run(&args);
        // Whatever the run's outcome: a failed verify or gate must not
        // leave the server running.
        if args.shutdown {
            if let Ok((mut reader, mut writer)) = connect(&args.addr) {
                let mut response = String::new();
                let _ = round_trip(
                    &mut reader,
                    &mut writer,
                    r#"{"cmd":"shutdown"}"#,
                    &mut response,
                );
            }
        }
        outcome
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("swcc-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
