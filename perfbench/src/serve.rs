//! `serve-hot` and `serve-cold`: the query service called in-process by
//! one closed-loop caller (the next request is sent when the previous
//! response is back).
//!
//! Both use one request generator, modelled on `swcc-loadgen`'s
//! request: a compact batch that sweeps `shd` for every scheme, at
//! seeded workload values. In `serve-hot` a fixed hot set is warmed
//! during set-up and replayed with Zipf popularity, so every point is a
//! cache hit. In `serve-cold` every point is new and the cache grows
//! through the run.
//!
//! The untraced pass calls `handle_request`. The traced pass makes the
//! same public calls `handle_request` makes for a batch line —
//! `parse_request`, `run_batch_traced`, `Telemetry::record` — each in
//! its own span.

use std::time::Instant;

use serde::Value;
use swcc_core::batch::{BatchPatelSolver, Stages};
use swcc_core::bus::analyze_bus;
use swcc_core::demand::scheme_demand;
use swcc_core::network::NetworkPerformance;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::{ParamId, WorkloadParams, TABLE7_RANGES};
use swcc_serve::telemetry::epoch_seconds;
use swcc_serve::{
    handle_request, parse_request, run_batch_traced, Machine, Query, Request, RequestTrace,
    ServeConfig, ServeState,
};

use crate::report::{Pass, Report};
use crate::rng::{Digest, Rng, Zipf};
use crate::spans::Recorder;
use crate::{alloc, RunConfig};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every point cached: the read path.
    Hot,
    /// Every point new, cache growing: the write path.
    Cold,
}

/// `swcc-loadgen`'s machines: its default 16-processor bus, and the
/// 6-stage network of its `--verify` queries.
const BUS_PROCESSORS: u32 = 16;
const NETWORK_STAGES: u32 = 6;
const BUS_SCHEMES: [&str; 4] = ["base", "no-cache", "software-flush", "dragon"];
/// Dragon's write broadcast has no network cost model.
const NETWORK_SCHEMES: [&str; 3] = ["base", "no-cache", "software-flush"];
/// Every this many requests one is on the network.
const NETWORK_EVERY: usize = 4;
/// Points per sweep: `swcc-loadgen` runs 2,048 in CI; a quarter of that
/// gives serve-cold rounds enough requests for a p90 with ten samples
/// beyond it.
const SWEEP_POINTS: u32 = 512;
/// Parameters Base's demand depends on. Base ignores `shd`, so its
/// sweep collapses to one point; overriding one of these keeps that
/// point new in every request.
const BASE_PARAMS: [ParamId; 4] = [ParamId::Ls, ParamId::Msdat, ParamId::Mains, ParamId::Md];
/// Workload parameters each request overrides besides `shd`.
const OVERRIDES: usize = 3;
/// Requests in the hot set (about 10^5 distinct points).
const HOT_SET: usize = 72;
const ZIPF_EXPONENT: f64 = 1.0;
const HOT_OPS_PER_10S: usize = 6_000;
/// Rounds per ten seconds of run (`serve-cold`: each round replays the
/// same lines into a fresh, empty service).
const ROUNDS_PER_10S: usize = 5;
/// Requests per `serve-cold` round (the cache grows to about 250,000
/// entries).
const COLD_ROUND_REQUESTS: usize = 180;
/// Requests in the discarded warm-up pass that precedes every
/// `serve-cold` round.
const COLD_WARMUP_REQUESTS: usize = 60;
/// Every this many responses one is folded into the pass digest.
const DIGEST_EVERY: usize = 16;
/// Requests whose served floats are bit-compared with direct calls.
const VERIFY_REQUESTS: usize = 16;
/// `serve-cold` must hit the cache on fewer than this share of points.
const COLD_HIT_CEILING: f64 = 0.01;

/// One generated request line.
struct Line {
    text: String,
    points: u64,
}

/// Request `index` of a stream, its values drawn from `rng`. The shape
/// depends only on `index`, so per-request work does not depend on the
/// seed or on which requests popularity favours.
fn generate(rng: &mut Rng, index: usize) -> Line {
    use std::fmt::Write as _;
    let (schemes, machine): (&[&str], String) = if index % NETWORK_EVERY == NETWORK_EVERY - 1 {
        (
            &NETWORK_SCHEMES,
            format!("{{\"interconnect\":\"network\",\"stages\":{NETWORK_STAGES}}}"),
        )
    } else {
        (
            &BUS_SCHEMES,
            format!("{{\"interconnect\":\"bus\",\"processors\":{BUS_PROCESSORS}}}"),
        )
    };
    let mut chosen = vec![ParamId::Shd, rng.pick(&BASE_PARAMS)];
    while chosen.len() < OVERRIDES + 1 {
        let id = rng.pick(&ParamId::ALL);
        if !chosen.contains(&id) {
            chosen.push(id);
        }
    }
    let mut workload = String::new();
    for (i, &id) in chosen[1..].iter().enumerate() {
        let r = TABLE7_RANGES.range(id);
        let v = rng.range(r.low.min(r.high), r.low.max(r.high));
        if i > 0 {
            workload.push(',');
        }
        let _ = write!(workload, "\"{}\":{v}", id.name());
    }
    let r = TABLE7_RANGES.range(ParamId::Shd);
    let (lo, hi) = (r.low.min(r.high), r.low.max(r.high));
    let mid = (lo + hi) / 2.0;
    let (from, to) = (rng.range(lo, mid), rng.range(mid, hi));
    let mut text = String::from("{\"compact\":true,\"queries\":[");
    for (q, scheme) in schemes.iter().enumerate() {
        if q > 0 {
            text.push(',');
        }
        let _ = write!(
            text,
            "{{\"scheme\":\"{scheme}\",\"machine\":{machine},\"workload\":{{{workload}}},\
             \"sweep\":{{\"param\":\"shd\",\"from\":{from},\"to\":{to},\"points\":{SWEEP_POINTS}}}}}"
        );
    }
    text.push_str("]}");
    Line {
        text,
        points: u64::from(SWEEP_POINTS) * schemes.len() as u64,
    }
}

fn generate_many(seed: u64, stream: u64, n: usize) -> Vec<Line> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|i| generate(&mut rng, i)).collect()
}

fn fresh_state() -> ServeState {
    ServeState::new(&ServeConfig::default())
}

/// The part of a response that must repeat exactly: everything but the
/// request id and the server-measured elapsed time.
fn stable_part(response: &str) -> &str {
    let start = response.find("\"results\"").unwrap_or(0);
    let end = response.rfind(",\"elapsed_us\"").unwrap_or(response.len());
    &response[start..end.max(start)]
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// Sends every line to `state` once; returns the error responses.
fn send_all(state: &ServeState, lines: &[Line]) -> usize {
    lines
        .iter()
        .filter(|line| !is_ok(&handle_request(state, &line.text).0))
        .count()
}

/// The service's own counters, from its `stats` response.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    errors: u64,
    solve_lanes: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    probes: u64,
    entries: u64,
}

impl Stats {
    fn read(state: &ServeState) -> Stats {
        let v: Value = serde_json::from_str(&state.stats_response()).expect("stats is JSON");
        let get = |path: &[&str]| {
            path.iter()
                .try_fold(&v, |v, k| v.get_field(k))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("stats response lacks {path:?}"))
        };
        Stats {
            errors: get(&["stats", "errors"]),
            solve_lanes: get(&["stats", "solve_lanes"]),
            hits: get(&["stats", "cache", "hits"]),
            misses: get(&["stats", "cache", "misses"]),
            coalesced: get(&["stats", "cache", "coalesced"]),
            probes: get(&["stats", "cache", "probes"]),
            entries: get(&["stats", "cache", "entries"]),
        }
    }

    fn since(self, before: Stats) -> Stats {
        Stats {
            errors: self.errors - before.errors,
            solve_lanes: self.solve_lanes - before.solve_lanes,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            coalesced: self.coalesced - before.coalesced,
            probes: self.probes - before.probes,
            entries: self.entries,
        }
    }

    fn plus(self, other: Stats) -> Stats {
        Stats {
            errors: self.errors + other.errors,
            solve_lanes: self.solve_lanes + other.solve_lanes,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            coalesced: self.coalesced + other.coalesced,
            probes: self.probes + other.probes,
            entries: self.entries.max(other.entries),
        }
    }

    fn lookups(self) -> u64 {
        self.hits + self.misses + self.coalesced
    }
}

/// Per-request phase timings a traced pass collects.
#[derive(Debug, Default)]
struct Phases {
    /// `(phase name, total µs, requests it ran in)`.
    totals: Vec<(&'static str, f64, usize)>,
    /// Admit µs of each request, in run order.
    admit_us: Vec<f64>,
    /// Index into `admit_us` where each round starts.
    round_starts: Vec<usize>,
    response_bytes: u64,
}

impl Phases {
    fn add(&mut self, trace: &RequestTrace, response_bytes: usize) {
        let mut admit = 0.0;
        for phase in &trace.phases {
            if phase.name == "admit" {
                admit += phase.dur_us;
            }
            match self.totals.iter_mut().find(|t| t.0 == phase.name) {
                Some(t) => {
                    t.1 += phase.dur_us;
                    t.2 += 1;
                }
                None => self.totals.push((phase.name, phase.dur_us, 1)),
            }
        }
        self.admit_us.push(admit);
        self.response_bytes += response_bytes as u64;
    }
}

/// What one pass of requests did.
struct Outcome {
    pass: Pass,
    /// The service's counters summed over rounds.
    stats: Stats,
    /// Digest of each round's sampled responses.
    round_digests: Vec<u64>,
}

/// Runs the timed requests in `n_rounds` rounds, calling `before_round`
/// first in each. In `serve-hot` the rounds are consecutive slices of
/// `order` against `state`; in `serve-cold` each round replays all of
/// `order` into a fresh service, which is left in `state` afterwards.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    mode: Mode,
    state: &mut ServeState,
    lines: &[Line],
    order: &[usize],
    n_rounds: usize,
    rec: &mut Recorder,
    phases: &mut Phases,
    before_round: &mut dyn FnMut(&mut ServeState),
) -> Outcome {
    let rounds: Vec<&[usize]> = match mode {
        Mode::Hot => order.chunks(order.len() / n_rounds).collect(),
        Mode::Cold => vec![order; n_rounds],
    };
    let mut out = Outcome {
        pass: Pass::default(),
        stats: Stats::default(),
        round_digests: Vec::new(),
    };
    let mut digest = Digest::default();
    for round in rounds {
        if mode == Mode::Cold {
            *state = fresh_state();
        }
        before_round(state);
        let before = Stats::read(state);
        phases.round_starts.push(phases.admit_us.len());
        let mut round_digest = Digest::default();
        for (i, &index) in round.iter().enumerate() {
            let line = &lines[index];
            rec.set_op(out.pass.op_ns.len() as u32);
            let started = Instant::now();
            let response = if rec.enabled() {
                traced_request(state, &line.text, rec, phases)
            } else {
                handle_request(state, &line.text).0
            };
            out.pass.op_ns.push(started.elapsed().as_nanos() as u64);
            out.pass.items += line.points;
            if !is_ok(&response) {
                out.pass.failed += 1;
            }
            if i % DIGEST_EVERY == 0 {
                round_digest.bytes(stable_part(&response).as_bytes());
            }
        }
        out.pass.end_round();
        out.stats = out.stats.plus(Stats::read(state).since(before));
        out.round_digests.push(round_digest.value());
        digest.u64(round_digest.value());
    }
    out.pass.digest = digest.value();
    out
}

/// `handle_request`'s batch path, one span per public call.
fn traced_request(
    state: &ServeState,
    line: &str,
    rec: &mut Recorder,
    phases: &mut Phases,
) -> String {
    let started = Instant::now();
    let span = rec.open("op");
    let parsed = rec.time("serve.parse", || parse_request(line));
    let response = match parsed {
        Ok(Request::Batch(batch)) => {
            let rid = batch
                .request
                .clone()
                .unwrap_or_else(|| state.telemetry().next_request_id());
            let mut trace = RequestTrace::default();
            let result = rec.time("serve.batch", || {
                run_batch_traced(state, &batch, &rid, &mut trace)
            });
            let ok = result.is_ok();
            let response = result.unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":{e:?}}}"));
            let duration_us = started.elapsed().as_secs_f64() * 1e6;
            rec.time("serve.record", || {
                state
                    .telemetry()
                    .record(epoch_seconds(), &rid, "batch", ok, duration_us, &trace)
            });
            phases.add(&trace, response.len());
            response
        }
        Ok(_) => "{\"ok\":false,\"error\":\"not a batch\"}".to_string(),
        Err(e) => format!("{{\"ok\":false,\"error\":{e:?}}}"),
    };
    rec.close(span);
    response
}

/// The power a compact response carries for one point, computed by
/// direct library calls.
fn direct_power(query: &Query, w: &WorkloadParams) -> swcc_core::Result<f64> {
    match query.machine {
        Machine::Bus { processors } => {
            Ok(analyze_bus(query.scheme, w, &BusSystemModel::new(), processors)?.power())
        }
        Machine::Network { stages } => {
            let demand = scheme_demand(query.scheme, w, &NetworkSystemModel::new(stages))?;
            let solved = BatchPatelSolver::new().solve_grid(
                &[demand.transaction_rate()],
                &[demand.transaction_size()],
                &Stages::Uniform(stages),
                None,
            )?;
            let p = NetworkPerformance::from_operating_point(
                query.scheme,
                stages,
                demand,
                solved.points()[0],
            );
            Ok(p.power())
        }
    }
}

/// Bit-compares served floats of a seeded sample of requests against
/// direct `analyze_bus` / `BatchPatelSolver` calls, the
/// `swcc-loadgen --verify` rule. Returns `(floats compared, problems)`.
fn verify(state: &ServeState, lines: &[Line], rng: &mut Rng) -> (u64, Vec<String>) {
    let mut compared = 0u64;
    let mut problems = Vec::new();
    for _ in 0..VERIFY_REQUESTS {
        let line = &lines[rng.below(lines.len())].text;
        let (response, _) = handle_request(state, line);
        let served: Value = serde_json::from_str(&response).unwrap_or(Value::Null);
        let Ok(Request::Batch(batch)) = parse_request(line) else {
            problems.push("a generated line does not parse as a batch".to_string());
            continue;
        };
        for (qi, query) in batch.queries.iter().enumerate() {
            let values = served
                .get_field("results")
                .and_then(|r| r.get_index(qi))
                .and_then(|r| r.get_field("values"));
            for _ in 0..4 {
                let j = rng.below(query.workloads.len());
                let want = match direct_power(query, &query.workloads[j]) {
                    Ok(want) => want,
                    Err(e) => {
                        problems.push(format!("query {qi} point {j}: direct call failed: {e}"));
                        continue;
                    }
                };
                let got = values
                    .and_then(|v| v.get_index(j))
                    .and_then(Value::as_f64)
                    .map(f64::to_bits);
                compared += 1;
                if got != Some(want.to_bits()) {
                    problems.push(format!(
                        "query {qi} point {j}: served {got:?} vs direct {:?}",
                        want.to_bits()
                    ));
                }
            }
        }
    }
    (compared, problems)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, mode: Mode, report: &mut Report) {
    let n_rounds = cfg.rounds(ROUNDS_PER_10S);
    let (lines, order, warmup) = match mode {
        Mode::Hot => {
            let lines = generate_many(cfg.seed, 10, HOT_SET);
            let zipf = Zipf::new(lines.len(), ZIPF_EXPONENT);
            let mut rng = Rng::new(cfg.seed, 11);
            let order: Vec<usize> = (0..n_rounds * (HOT_OPS_PER_10S / ROUNDS_PER_10S))
                .map(|_| zipf.sample(&mut rng))
                .collect();
            (lines, order, Vec::new())
        }
        Mode::Cold => {
            let lines = generate_many(cfg.seed, 21, COLD_ROUND_REQUESTS);
            let order = (0..lines.len()).collect();
            (
                lines,
                order,
                generate_many(cfg.seed, 20, COLD_WARMUP_REQUESTS),
            )
        }
    };
    let mut state = fresh_state();
    let mut warm_errors = 0;
    alloc::reset_peak();
    // Set-up runs before every round of the untraced pass, so `setup_s`
    // samples the same stretch of the run as the timings do.
    let untraced = run_pass(
        mode,
        &mut state,
        &lines,
        &order,
        n_rounds,
        &mut Recorder::new(false),
        &mut Phases::default(),
        &mut |state| match mode {
            // Warm a fresh service with the hot set.
            Mode::Hot => {
                *state = fresh_state();
                *state = report.time_setup(|| {
                    let warmed = fresh_state();
                    warm_errors += send_all(&warmed, &lines);
                    warmed
                });
            }
            // A discarded warm-up pass into a throwaway service.
            Mode::Cold => report.time_setup(|| {
                warm_errors += send_all(&fresh_state(), &warmup);
            }),
        },
    );
    report.peak_heap_bytes = alloc::peak_bytes();
    report.check(
        "set-up answers every request",
        warm_errors == 0,
        format!("{warm_errors} error responses"),
    );
    report.count_ops(&untraced.pass);
    check_pass(report, mode, &untraced);
    let (compared, problems) = verify(&state, &lines, &mut Rng::new(cfg.seed, 30));
    report.check(
        "sampled served floats bit-identical to direct library calls",
        problems.is_empty() && compared > 0,
        if problems.is_empty() {
            format!("{compared} floats")
        } else {
            problems
                .iter()
                .take(3)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        },
    );
    report.info("cache.entries", untraced.stats.entries as f64, "count", 1);

    if cfg.trace {
        let mut rec = Recorder::new(true);
        let mut phases = Phases::default();
        let traced = run_pass(
            mode,
            &mut state,
            &lines,
            &order,
            n_rounds,
            &mut rec,
            &mut phases,
            &mut |_| {},
        );
        report.count_ops(&traced.pass);
        check_pass(report, mode, &traced);
        report.check(
            "served results identical in the traced and untraced passes",
            traced.pass.digest == untraced.pass.digest,
            format!(
                "{:016x} vs {:016x}",
                traced.pass.digest, untraced.pass.digest
            ),
        );
        layers(report, &rec, &phases, &traced);
        report.layer(
            "trace.overhead_pct",
            (untraced.pass.items_per_s() / traced.pass.items_per_s() - 1.0) * 100.0,
            traced.pass.op_ns.len(),
        );
        let name = match mode {
            Mode::Hot => "serve-hot",
            Mode::Cold => "serve-cold",
        };
        crate::report::write_spans(&rec, name, cfg.seed);
    }
    report.pass = untraced.pass;
}

fn check_pass(report: &mut Report, mode: Mode, o: &Outcome) {
    let (pass, stats) = (&o.pass, o.stats);
    report.check(
        "zero error responses",
        pass.failed == 0 && stats.errors == 0,
        format!("{} failed of {} requests", pass.failed, pass.op_ns.len()),
    );
    match mode {
        Mode::Hot => report.check(
            "zero cache misses in the timed phase",
            stats.misses == 0 && stats.coalesced == 0 && stats.hits > 0,
            format!(
                "{} hits, {} misses, {} coalesced",
                stats.hits, stats.misses, stats.coalesced
            ),
        ),
        Mode::Cold => {
            let hit_ratio = stats.hits as f64 / stats.lookups() as f64;
            report.check(
                "near-zero cache hits",
                hit_ratio < COLD_HIT_CEILING,
                format!("hit ratio {hit_ratio:.6}, ceiling {COLD_HIT_CEILING}"),
            );
            report.check(
                "every round serves identical results",
                o.round_digests.iter().all(|d| *d == o.round_digests[0]),
                format!("{} rounds", o.round_digests.len()),
            );
        }
    }
}

fn layers(report: &mut Report, rec: &Recorder, phases: &Phases, o: &Outcome) {
    let (pass, delta) = (&o.pass, o.stats);
    let totals = rec.totals();
    let requests = pass.op_ns.len();
    let per_request_us = |name: &str| totals.ns(name) / 1e3 / requests as f64;
    report.layer(
        "serve.parse_us",
        per_request_us("serve.parse"),
        totals.calls("serve.parse"),
    );
    report.layer(
        "serve.batch_us",
        per_request_us("serve.batch"),
        totals.calls("serve.batch"),
    );
    report.layer(
        "serve.record_us",
        per_request_us("serve.record"),
        totals.calls("serve.record"),
    );
    for (phase, metric) in [
        ("plan", "serve.phase.plan_us"),
        ("admit", "serve.phase.admit_us"),
        ("solve.bus", "serve.phase.solve.bus_us"),
        ("solve.network", "serve.phase.solve.network_us"),
        ("resolve", "serve.phase.resolve_us"),
        ("render", "serve.phase.render_us"),
    ] {
        let (us, ran) = phases
            .totals
            .iter()
            .find(|t| t.0 == phase)
            .map_or((0.0, 0), |t| (t.1, t.2));
        report.layer(metric, us / requests as f64, ran);
    }
    // Admit cost early and late in each round, as the cache grows.
    let (mut first, mut last) = (Vec::new(), Vec::new());
    let mut ends = phases.round_starts[1..].to_vec();
    ends.push(phases.admit_us.len());
    for (&start, &end) in phases.round_starts.iter().zip(&ends) {
        let round = &phases.admit_us[start..end];
        let fifth = (round.len() / 5).max(1);
        first.extend_from_slice(&round[..fifth]);
        last.extend_from_slice(&round[round.len() - fifth..]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.layer(
        "serve.phase.admit_us.first_fifth",
        mean(&first),
        first.len(),
    );
    report.layer("serve.phase.admit_us.last_fifth", mean(&last), last.len());
    report.layer(
        "cache.hit_ratio",
        delta.hits as f64 / delta.lookups() as f64,
        delta.lookups() as usize,
    );
    report.layer(
        "cache.probes_per_lookup",
        delta.probes as f64 / delta.lookups() as f64,
        delta.lookups() as usize,
    );
    report.layer("cache.entries", delta.entries as f64, 1);
    report.layer(
        "serve.solve_lanes_per_request",
        delta.solve_lanes as f64 / requests as f64,
        requests,
    );
    report.layer(
        "serve.response_bytes_per_point",
        phases.response_bytes as f64 / pass.items as f64,
        requests,
    );
    report.composition(&totals);
}
