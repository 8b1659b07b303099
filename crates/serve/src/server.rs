//! The query engine and TCP service.
//!
//! Request handling splits into a pure engine ([`handle_request`] /
//! [`run_batch`], driven directly by the in-process tests) and thin
//! socket plumbing ([`spawn`] / [`RunningServer`], a pre-forked pool of
//! blocking accept loops).
//!
//! ## Admission and bit-identity
//!
//! Every query point reduces to a queueing-solver input before it
//! touches the server's solved-point caches (the private `cache`
//! module, one cache per machine family):
//!
//! * **Bus** — `analyze_bus` depends on the workload only through the
//!   demand `(c, b)`, and the contention solve only through
//!   `(service, think) = (b, c − b)`. The cache key is those bits plus
//!   the processor count, and the cached value is the solver outputs
//!   `(waiting, bus_utilization)`. Reassembling through
//!   [`BusPerformance::from_queue_solution`] reproduces the direct
//!   call's getters bitwise, because [`machine_repairman_grid`] lanes
//!   are bit-identical to scalar [`machine_repairman`] solves.
//! * **Network** — likewise keyed on
//!   `(transaction_size, transaction_rate)` bits plus the stage count,
//!   caching the solved [`OperatingPoint`]. Misses are solved by
//!   [`BatchPatelSolver::solve_grid`], whose cold lanes run the same
//!   guarded-Newton kernel as `patel::solve`, so served network results
//!   match `analyze_network` bitwise.
//!
//! Neither key names the scheme: the solved value depends on the
//! scheme only through the demand bits, so two schemes (or two
//! workloads) that induce the same queue share one cache entry.
//!
//! Admission is single-flight: the first request to miss a key claims
//! it and solves; concurrent requests for the same key attach to the
//! in-flight solve and block only on its completion. All of one
//! request's misses are drained into one solver call per machine family
//! (one MVA grid per distinct processor count, one Patel batch for
//! every network lane), so a cold 4096-point sweep costs one lockstep
//! solve, not 4096.
//!
//! ## Failure containment
//!
//! A panic while solving a batch is caught at the request boundary and
//! reported as an error response naming the originating request id —
//! the connection and the process keep serving. Claimed-but-unsolved
//! cache slots are released by a RAII guard (`ClaimSet`) during
//! unwinding, waking any coalesced waiters, who then re-claim and solve
//! for themselves (the retry arm of `resolve_lanes`, whose claims the
//! same guard holds).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver, Stages};
use swcc_core::bus::BusPerformance;
use swcc_core::demand::{scheme_demand, Demand};
use swcc_core::network::{NetworkPerformance, OperatingPoint};
use swcc_core::queue::machine_repairman;
use swcc_core::sensitivity::sensitivity_table_at;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::ParamId;

use swcc_obs::{push_json_f64, MetricsRegistry};

use crate::cache::{Admission, Flight, PointHashState, PointKey, SolvedPointCache};
use crate::metrics;
use crate::protocol::{
    error_response, parse_request, push_json_str, Batch, Machine, Query, QueryKind, Request,
    TelemetryFormat, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::telemetry::{self, RequestTrace, Telemetry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads in the accept pool.
    pub workers: usize,
    /// Per-connection read timeout; an idle connection is closed after
    /// this long without a request line.
    pub read_timeout: Duration,
    /// How long a coalesced query waits on another request's in-flight
    /// solve before re-claiming the point for itself.
    pub solve_timeout: Duration,
    /// The process metrics registry, for the `telemetry` command's
    /// cumulative section (`None` renders `"cumulative":null`). This is
    /// the same registry the binary passes to [`swcc_obs::install`] —
    /// the trait-object install API deliberately hides the concrete
    /// snapshot type, so the server needs its own reference.
    pub registry: Option<&'static MetricsRegistry>,
    /// Optional bind address for the plain-text exposition listener
    /// (`GET /metrics`, `/telemetry`, `/slow`).
    pub telemetry_addr: Option<String>,
    /// Optional structured JSONL access-log path (append-or-create).
    pub access_log: Option<String>,
    /// Requests slower than this many microseconds are captured into
    /// the slow-request ring (`0` disables capture).
    pub slow_threshold_us: f64,
    /// Most slow-request captures retained (oldest evicted first).
    pub slow_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(30),
            solve_timeout: Duration::from_secs(10),
            registry: None,
            telemetry_addr: None,
            access_log: None,
            slow_threshold_us: 100_000.0,
            slow_capacity: 32,
        }
    }
}

/// The solved bus contention point cached per `(service, think,
/// processors)`: exactly the two [`machine_repairman`] outputs
/// [`BusPerformance`] is assembled from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusPoint {
    /// Mean bus waiting time per transaction, `w`.
    pub waiting: f64,
    /// Bus (server) utilization.
    pub bus_utilization: f64,
}

/// Shared state behind all connections: the two solved-point caches
/// and the traffic counters backing `{"cmd":"stats"}`.
#[derive(Debug)]
pub struct ServeState {
    bus_points: SolvedPointCache<BusPoint>,
    net_points: SolvedPointCache<OperatingPoint>,
    solve_timeout: Duration,
    shutdown: AtomicBool,
    requests: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    solves: AtomicU64,
    solve_lanes: AtomicU64,
    telemetry: Telemetry,
    registry: Option<&'static MetricsRegistry>,
}

impl ServeState {
    /// Fresh state with empty caches.
    pub fn new(config: &ServeConfig) -> Self {
        ServeState {
            bus_points: SolvedPointCache::new(),
            net_points: SolvedPointCache::new(),
            solve_timeout: config.solve_timeout,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            solve_lanes: AtomicU64::new(0),
            telemetry: Telemetry::new(
                config.access_log.as_deref(),
                config.slow_threshold_us,
                config.slow_capacity,
            ),
            registry: config.registry,
        }
    }

    /// The live telemetry hub (windows, slow captures, access log).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Renders the `telemetry` snapshot response (JSON, with the
    /// Prometheus exposition of the same snapshot inlined when asked).
    pub fn telemetry_response(&self, format: TelemetryFormat) -> String {
        self.telemetry
            .capture(telemetry::epoch_seconds(), self.registry)
            .to_response(format == TelemetryFormat::Prometheus)
    }

    /// Renders the `telemetry --slow` response: the retained captures,
    /// oldest first.
    pub fn slow_response(&self) -> String {
        let mut out = String::from("{\"ok\":true,\"slow\":[");
        for (i, capture) in self.telemetry.slow_captures().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(capture);
        }
        out.push_str("]}");
        out
    }

    /// True once a shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Renders the stats response line.
    pub fn stats_response(&self) -> String {
        use std::fmt::Write as _;
        let bus = self.bus_points.stats();
        let net = self.net_points.stats();
        let mut out = String::from("{\"ok\":true,\"stats\":{");
        let _ = write!(
            out,
            "\"requests\":{},\"queries\":{},\"errors\":{},\"connections\":{},\
             \"solves\":{},\"solve_lanes\":{},",
            self.requests.load(Ordering::Relaxed),
            self.queries.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.connections.load(Ordering::Relaxed),
            self.solves.load(Ordering::Relaxed),
            self.solve_lanes.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            "\"uptime_s\":{},\"build\":{{\"commit\":",
            self.telemetry.uptime_s()
        );
        push_json_str(&mut out, telemetry::build_commit());
        out.push_str(",\"rustc\":");
        push_json_str(&mut out, telemetry::build_rustc());
        out.push_str(",\"profile\":");
        push_json_str(&mut out, telemetry::build_profile());
        out.push_str("},");
        let _ = write!(
            out,
            "\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"inserts\":{},\
             \"probes\":{},\"entries\":{}}}}}}}",
            bus.hits + net.hits,
            bus.misses + net.misses,
            bus.coalesced + net.coalesced,
            bus.inserts + net.inserts,
            bus.probes + net.probes,
            self.bus_points.len() + self.net_points.len(),
        );
        out
    }
}

/// How a query point was answered, reported per point in full responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    Hit,
    Miss,
    Coalesced,
}

impl Provenance {
    fn name(self) -> &'static str {
        match self {
            Provenance::Hit => "hit",
            Provenance::Miss => "miss",
            Provenance::Coalesced => "coalesced",
        }
    }
}

enum LaneState<V> {
    /// Claimed by this request; value lands in the [`ClaimSet`] after
    /// the batch solve.
    Ours(Provenance),
    /// Answered.
    Value(V, Provenance),
    /// Attached to another request's in-flight solve.
    Wait(Arc<Flight<V>>),
}

struct Lane<V> {
    key: PointKey,
    demand: Demand,
    state: LaneState<V>,
}

#[derive(Default)]
struct Acct {
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// RAII over this request's claimed cache slots: a claim is pending
/// (`None`) until `publish_many` records its value; anything still
/// pending on drop (solver error, panic) is aborted so coalesced waiters
/// wake and re-claim.
struct ClaimSet<'a, V: Copy> {
    cache: &'a SolvedPointCache<V>,
    claims: HashMap<PointKey, Option<V>, PointHashState>,
}

impl<'a, V: Copy> ClaimSet<'a, V> {
    fn new(cache: &'a SolvedPointCache<V>, lanes: usize) -> Self {
        ClaimSet {
            cache,
            claims: HashMap::with_capacity_and_hasher(lanes, PointHashState::new()),
        }
    }

    fn claim(&mut self, key: PointKey) {
        self.claims.insert(key, None);
    }

    /// Admits one key outside the batch, for the retry arm of
    /// [`resolve_lanes`]; a claim it wins is owned by this set.
    fn begin(&mut self, key: PointKey) -> Admission<V> {
        let admission = self.cache.begin(key);
        if let Admission::Claimed = admission {
            self.claim(key);
        }
        admission
    }

    fn owns(&self, key: &PointKey) -> bool {
        self.claims.contains_key(key)
    }

    fn pending_keys(&self) -> Vec<PointKey> {
        self.claims
            .iter()
            .filter(|(_, value)| value.is_none())
            .map(|(key, _)| *key)
            .collect()
    }

    fn publish_many(&mut self, keys: &[PointKey], values: &[V]) {
        self.cache.publish_many(keys, values);
        for (key, value) in keys.iter().zip(values) {
            self.claims.insert(*key, Some(*value));
        }
    }

    fn solved(&self, key: &PointKey) -> Option<V> {
        self.claims.get(key).copied().flatten()
    }
}

impl<V: Copy> Drop for ClaimSet<'_, V> {
    fn drop(&mut self) {
        let pending = self.pending_keys();
        if !pending.is_empty() {
            self.cache.abort_many(&pending);
        }
    }
}

/// Admits every lane with one shard-grouped `begin_many`.
fn admit<V: Copy>(lanes: &mut [Lane<V>], claims: &mut ClaimSet<'_, V>, acct: &mut Acct) {
    let keys: Vec<PointKey> = lanes.iter().map(|lane| lane.key).collect();
    let admissions = claims.cache.begin_many(&keys);
    for (lane, admission) in lanes.iter_mut().zip(admissions) {
        lane.state = match admission {
            Admission::Hit(v) => {
                acct.hits += 1;
                LaneState::Value(v, Provenance::Hit)
            }
            Admission::Claimed => {
                acct.misses += 1;
                claims.claim(lane.key);
                LaneState::Ours(Provenance::Miss)
            }
            Admission::Shared(flight) => {
                acct.coalesced += 1;
                if claims.owns(&lane.key) {
                    // A duplicate point within this request coalesces
                    // onto our own claim; its value is in the ClaimSet
                    // after the batch solve, no waiting needed.
                    LaneState::Ours(Provenance::Coalesced)
                } else {
                    LaneState::Wait(flight)
                }
            }
        };
    }
}

/// Settles every lane to a value: claimed lanes read the batch-solve
/// result, coalesced lanes wait on the owning request's flight — with
/// one re-claim retry if that request aborted or the wait timed out. A
/// retry's claim joins `claims`, so an error or a panic in `solve_one`
/// releases it like the batch's own.
fn resolve_lanes<V: Copy>(
    lanes: &mut [Lane<V>],
    claims: &mut ClaimSet<'_, V>,
    timeout: Duration,
    wait_us: &mut f64,
    solve_one: &mut dyn FnMut(&PointKey) -> Result<V, String>,
) -> Result<(), String> {
    for lane in lanes.iter_mut() {
        let next = match &lane.state {
            LaneState::Value(..) => continue,
            LaneState::Ours(provenance) => {
                let v = claims
                    .solved(&lane.key)
                    .ok_or("internal: claimed point missing after batch solve")?;
                LaneState::Value(v, *provenance)
            }
            LaneState::Wait(flight) => {
                let started = Instant::now();
                let got = flight.wait_for(timeout);
                let waited_us = started.elapsed().as_secs_f64() * 1e6;
                *wait_us += waited_us;
                if swcc_obs::enabled() {
                    swcc_obs::observe(metrics::SERVE_FLIGHT_WAIT_US, waited_us);
                }
                match got {
                    Some(v) => LaneState::Value(v, Provenance::Coalesced),
                    // The owning request aborted (solver error or
                    // panic) or is stuck past the timeout: take the
                    // point over ourselves.
                    None => match claims.begin(lane.key) {
                        Admission::Hit(v) => LaneState::Value(v, Provenance::Coalesced),
                        Admission::Claimed => {
                            let v = solve_one(&lane.key)?;
                            claims.publish_many(&[lane.key], &[v]);
                            LaneState::Value(v, Provenance::Miss)
                        }
                        Admission::Shared(flight) => match flight.wait_for(timeout) {
                            Some(v) => LaneState::Value(v, Provenance::Coalesced),
                            None => {
                                return Err("timed out waiting for an in-flight solve".to_string())
                            }
                        },
                    },
                }
            }
        };
        lane.state = next;
    }
    Ok(())
}

fn lane_value<V: Copy>(lane: &Lane<V>) -> Result<(V, Provenance), String> {
    match &lane.state {
        LaneState::Value(v, p) => Ok((*v, *p)),
        // resolve_lanes settles every lane; answering an internal
        // error beats panicking mid-response if that ever regresses.
        _ => Err("internal: lane left unsettled after resolve".to_string()),
    }
}

fn bus_key(demand: &Demand, processors: u32) -> PointKey {
    PointKey {
        service: demand.interconnect().to_bits(),
        think: demand.think_time().to_bits(),
        machine: processors,
    }
}

fn net_key(demand: &Demand, stages: u32) -> PointKey {
    PointKey {
        service: demand.transaction_size().to_bits(),
        think: demand.transaction_rate().to_bits(),
        machine: stages,
    }
}

fn solve_bus_one(key: &PointKey) -> Result<BusPoint, String> {
    let mva = machine_repairman(
        key.machine,
        f64::from_bits(key.service),
        f64::from_bits(key.think),
    )
    .map_err(|e| e.to_string())?;
    Ok(BusPoint {
        waiting: mva.waiting(),
        bus_utilization: mva.server_utilization(),
    })
}

fn solve_net_one(key: &PointKey) -> Result<OperatingPoint, String> {
    let batch = BatchPatelSolver::new()
        .solve_grid(
            &[f64::from_bits(key.think)],
            &[f64::from_bits(key.service)],
            &Stages::Uniform(key.machine),
            None,
        )
        .map_err(|e| e.to_string())?;
    batch
        .points()
        .first()
        .copied()
        .ok_or_else(|| "internal: one-lane network solve returned no points".to_string())
}

enum QueryPlan {
    Bus { start: usize, len: usize },
    Net { start: usize, len: usize },
    Sensitivity { ranking: Vec<(ParamId, f64)> },
}

fn record_solve(state: &ServeState, lanes: usize) {
    state.solves.fetch_add(1, Ordering::Relaxed);
    state.solve_lanes.fetch_add(lanes as u64, Ordering::Relaxed);
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_SOLVES, 1);
        swcc_obs::counter_add(metrics::SERVE_SOLVE_LANES, lanes as u64);
    }
}

/// Executes one parsed batch and renders its response line.
///
/// # Errors
///
/// Returns a message (already naming the offending query where one is
/// identifiable) to be wrapped by [`error_response`].
pub fn run_batch(state: &ServeState, batch: &Batch) -> Result<String, String> {
    run_batch_traced(state, batch, "", &mut RequestTrace::default())
}

/// [`run_batch`] with request-scoped attribution: the request id lands
/// on the `serve.request` span and in the response; phase timings,
/// cache split, and flight waits accumulate into `trace` for the
/// access log and the slow-request capture.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_batch_traced(
    state: &ServeState,
    batch: &Batch,
    request_id: &str,
    trace: &mut RequestTrace,
) -> Result<String, String> {
    let started = Instant::now();
    let bus_system = BusSystemModel::new();

    // --- Plan: expand every query point to a cache key + demand. -----
    let phase_started = Instant::now();
    let mut plans: Vec<QueryPlan> = Vec::with_capacity(batch.queries.len());
    let mut bus_lanes: Vec<Lane<BusPoint>> = Vec::new();
    let mut net_lanes: Vec<Lane<OperatingPoint>> = Vec::new();
    let mut points = 0u64;
    for (i, query) in batch.queries.iter().enumerate() {
        // Log the protocol's wire spelling ("software-flush"), not the
        // human Display name ("Software-Flush").
        trace.note_scheme(&query.scheme.to_string().to_ascii_lowercase());
        match query.machine {
            Machine::Bus { processors } => {
                if query.kind == QueryKind::Sensitivity {
                    let workload = query
                        .workloads
                        .first()
                        .ok_or_else(|| format!("query {i}: no workload to rank"))?;
                    let table = sensitivity_table_at(processors, workload)
                        .map_err(|e| format!("query {i}: {e}"))?;
                    points += 1;
                    plans.push(QueryPlan::Sensitivity {
                        ranking: table.ranking(query.scheme),
                    });
                    continue;
                }
                let start = bus_lanes.len();
                for w in &query.workloads {
                    let demand = scheme_demand(query.scheme, w, &bus_system)
                        .map_err(|e| format!("query {i}: {e}"))?;
                    bus_lanes.push(Lane {
                        key: bus_key(&demand, processors),
                        demand,
                        state: LaneState::Ours(Provenance::Miss), // placeholder until admission
                    });
                }
                points += query.workloads.len() as u64;
                plans.push(QueryPlan::Bus {
                    start,
                    len: query.workloads.len(),
                });
            }
            Machine::Network { stages } => {
                let system = NetworkSystemModel::new(stages);
                let start = net_lanes.len();
                for w in &query.workloads {
                    let demand = scheme_demand(query.scheme, w, &system)
                        .map_err(|e| format!("query {i}: {e}"))?;
                    net_lanes.push(Lane {
                        key: net_key(&demand, stages),
                        demand,
                        state: LaneState::Ours(Provenance::Miss),
                    });
                }
                points += query.workloads.len() as u64;
                plans.push(QueryPlan::Net {
                    start,
                    len: query.workloads.len(),
                });
            }
        }
    }

    trace.queries = batch.queries.len() as u64;
    trace.points = points;
    trace.phase("plan", phase_started, started, 0);

    state.queries.fetch_add(points, Ordering::Relaxed);
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_QUERIES, points);
        swcc_obs::observe(metrics::SERVE_BATCH_WIDTH, points as f64);
    }
    let _span = swcc_obs::span(
        metrics::EV_SERVE_REQUEST,
        &[
            swcc_obs::Field::text("request", request_id.to_string()),
            swcc_obs::Field::u64("queries", batch.queries.len() as u64),
            swcc_obs::Field::u64("points", points),
        ],
    );

    // --- Admit: one shard-grouped begin_many() per cache. -----------
    let phase_started = Instant::now();
    let mut acct = Acct::default();
    let mut bus_claims = ClaimSet::new(&state.bus_points, bus_lanes.len());
    let mut net_claims = ClaimSet::new(&state.net_points, net_lanes.len());
    admit(&mut bus_lanes, &mut bus_claims, &mut acct);
    admit(&mut net_lanes, &mut net_claims, &mut acct);
    trace.phase("admit", phase_started, started, 0);

    // --- Solve: drain all claims into one grid call per machine
    // family (bus grids are per distinct processor count).
    let bus_pending = bus_claims.pending_keys();
    if !bus_pending.is_empty() {
        let phase_started = Instant::now();
        let lanes_total = bus_pending.len() as u64;
        let mut groups: HashMap<u32, Vec<PointKey>> = HashMap::new();
        for key in bus_pending {
            groups.entry(key.machine).or_default().push(key);
        }
        for (processors, keys) in groups {
            let services: Vec<f64> = keys.iter().map(|k| f64::from_bits(k.service)).collect();
            let thinks: Vec<f64> = keys.iter().map(|k| f64::from_bits(k.think)).collect();
            let _solve_span = swcc_obs::span(
                metrics::EV_SERVE_SOLVE,
                &[
                    swcc_obs::Field::str("machine", "bus"),
                    swcc_obs::Field::u64("lanes", keys.len() as u64),
                ],
            );
            let grid = machine_repairman_grid(processors, &services, &thinks)
                .map_err(|e| format!("bus solve failed: {e}"))?;
            record_solve(state, keys.len());
            let values: Vec<BusPoint> = grid
                .iter()
                .map(|mva| BusPoint {
                    waiting: mva.waiting(),
                    bus_utilization: mva.server_utilization(),
                })
                .collect();
            bus_claims.publish_many(&keys, &values);
        }
        trace.phase("solve.bus", phase_started, started, lanes_total);
    }
    let net_pending = net_claims.pending_keys();
    if !net_pending.is_empty() {
        let phase_started = Instant::now();
        let rates: Vec<f64> = net_pending
            .iter()
            .map(|k| f64::from_bits(k.think))
            .collect();
        let sizes: Vec<f64> = net_pending
            .iter()
            .map(|k| f64::from_bits(k.service))
            .collect();
        let stage_counts: Vec<u32> = net_pending.iter().map(|k| k.machine).collect();
        let _solve_span = swcc_obs::span(
            metrics::EV_SERVE_SOLVE,
            &[
                swcc_obs::Field::str("machine", "network"),
                swcc_obs::Field::u64("lanes", net_pending.len() as u64),
            ],
        );
        let batch_solution = BatchPatelSolver::new()
            .solve_grid(&rates, &sizes, &Stages::PerLane(&stage_counts), None)
            .map_err(|e| format!("network solve failed: {e}"))?;
        record_solve(state, net_pending.len());
        net_claims.publish_many(&net_pending, batch_solution.points());
        trace.phase(
            "solve.network",
            phase_started,
            started,
            net_pending.len() as u64,
        );
    }

    // --- Resolve: settle coalesced waits (after our publishes, so a
    // duplicate key never deadlocks on itself).
    let phase_started = Instant::now();
    let mut flight_wait_us = 0.0;
    resolve_lanes(
        &mut bus_lanes,
        &mut bus_claims,
        state.solve_timeout,
        &mut flight_wait_us,
        &mut solve_bus_one,
    )?;
    resolve_lanes(
        &mut net_lanes,
        &mut net_claims,
        state.solve_timeout,
        &mut flight_wait_us,
        &mut solve_net_one,
    )?;
    trace.flight_wait_us = flight_wait_us;
    trace.phase("resolve", phase_started, started, 0);

    // --- Render. ------------------------------------------------------
    let phase_started = Instant::now();
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + 24 * points as usize);
    out.push_str("{\"ok\":true");
    if let Some(id) = batch.id {
        let _ = write!(out, ",\"id\":{id}");
    }
    if !request_id.is_empty() {
        out.push_str(",\"request\":");
        push_json_str(&mut out, request_id);
    }
    out.push_str(",\"results\":[");
    for (qi, (plan, query)) in plans.iter().zip(&batch.queries).enumerate() {
        if qi > 0 {
            out.push(',');
        }
        match plan {
            QueryPlan::Sensitivity { ranking } => {
                out.push_str("{\"kind\":\"sensitivity\",\"scheme\":");
                push_json_str(&mut out, &query.scheme.to_string());
                out.push_str(",\"ranking\":[");
                for (j, (param, percent)) in ranking.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"param\":");
                    push_json_str(&mut out, param.name());
                    out.push_str(",\"percent\":");
                    push_json_f64(&mut out, *percent);
                    out.push('}');
                }
                out.push_str("]}");
            }
            QueryPlan::Bus { start, len } => {
                let lanes = bus_lanes
                    .get(*start..*start + *len)
                    .ok_or_else(|| format!("internal: bus plan for query {qi} out of range"))?;
                render_bus_query(&mut out, query, lanes, batch.compact)?;
            }
            QueryPlan::Net { start, len } => {
                let lanes = net_lanes
                    .get(*start..*start + *len)
                    .ok_or_else(|| format!("internal: net plan for query {qi} out of range"))?;
                render_net_query(&mut out, query, lanes, batch.compact)?;
            }
        }
    }
    let _ = write!(
        out,
        "],\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{}}}",
        acct.hits, acct.misses, acct.coalesced
    );
    trace.hits = acct.hits;
    trace.misses = acct.misses;
    trace.coalesced = acct.coalesced;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_CACHE_HITS, acct.hits);
        swcc_obs::counter_add(metrics::SERVE_CACHE_MISSES, acct.misses);
        swcc_obs::counter_add(metrics::SERVE_CACHE_COALESCED, acct.coalesced);
    }
    trace.phase("render", phase_started, started, 0);
    out.push('}');
    Ok(out)
}

fn render_bus_query(
    out: &mut String,
    query: &Query,
    lanes: &[Lane<BusPoint>],
    compact: bool,
) -> Result<(), String> {
    let Machine::Bus { processors } = query.machine else {
        return Err("internal: bus plan paired with a non-bus machine".to_string());
    };
    if compact {
        out.push_str("{\"values\":[");
        for (j, lane) in lanes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (v, _) = lane_value(lane)?;
            let perf = BusPerformance::from_queue_solution(
                query.scheme,
                processors,
                lane.demand,
                v.waiting,
                v.bus_utilization,
            );
            let primary = match query.kind {
                QueryKind::Penalty => perf.waiting(),
                _ => perf.power(),
            };
            push_json_f64(out, primary);
        }
        out.push_str("]}");
        return Ok(());
    }
    out.push_str("{\"points\":[");
    for (j, lane) in lanes.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let (v, provenance) = lane_value(lane)?;
        let perf = BusPerformance::from_queue_solution(
            query.scheme,
            processors,
            lane.demand,
            v.waiting,
            v.bus_utilization,
        );
        out.push('{');
        if let Some(value) = query.sweep_values.get(j) {
            out.push_str("\"value\":");
            push_json_f64(out, *value);
            out.push(',');
        }
        out.push_str("\"power\":");
        push_json_f64(out, perf.power());
        out.push_str(",\"utilization\":");
        push_json_f64(out, perf.utilization());
        out.push_str(",\"cpi\":");
        push_json_f64(out, perf.cycles_per_instruction());
        out.push_str(",\"waiting\":");
        push_json_f64(out, perf.waiting());
        out.push_str(",\"bus_utilization\":");
        push_json_f64(out, perf.bus_utilization());
        out.push_str(",\"cached\":");
        push_json_str(out, provenance.name());
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

fn render_net_query(
    out: &mut String,
    query: &Query,
    lanes: &[Lane<OperatingPoint>],
    compact: bool,
) -> Result<(), String> {
    let Machine::Network { stages } = query.machine else {
        return Err("internal: net plan paired with a non-network machine".to_string());
    };
    if compact {
        out.push_str("{\"values\":[");
        for (j, lane) in lanes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (point, _) = lane_value(lane)?;
            let perf =
                NetworkPerformance::from_operating_point(query.scheme, stages, lane.demand, point);
            push_json_f64(out, perf.power());
        }
        out.push_str("]}");
        return Ok(());
    }
    out.push_str("{\"points\":[");
    for (j, lane) in lanes.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let (point, provenance) = lane_value(lane)?;
        let perf =
            NetworkPerformance::from_operating_point(query.scheme, stages, lane.demand, point);
        out.push('{');
        if let Some(value) = query.sweep_values.get(j) {
            out.push_str("\"value\":");
            push_json_f64(out, *value);
            out.push(',');
        }
        out.push_str("\"power\":");
        push_json_f64(out, perf.power());
        out.push_str(",\"utilization\":");
        push_json_f64(out, perf.utilization());
        out.push_str(",\"think_fraction\":");
        push_json_f64(out, point.think_fraction());
        out.push_str(",\"accepted_rate\":");
        push_json_f64(out, point.accepted_rate());
        out.push_str(",\"cached\":");
        push_json_str(out, provenance.name());
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

/// Handles one request line, returning the response line and whether a
/// shutdown was requested.
pub fn handle_request(state: &ServeState, line: &str) -> (String, bool) {
    let (response, shutdown, pending) = handle_request_deferred(state, line);
    pending.finish(state);
    (response, shutdown)
}

/// Everything a finished request needs recorded into telemetry, minus
/// the final duration: the connection path calls [`PendingRecord::finish`]
/// only after the response is flushed to the socket, so the recorded
/// duration matches what a client measures (solve *and* serialization).
#[derive(Debug)]
pub struct PendingRecord {
    cmd: &'static str,
    ok: bool,
    request_id: Option<String>,
    trace: RequestTrace,
    started: Instant,
}

impl PendingRecord {
    /// Folds the request into the windows / access log / slow ring,
    /// with the duration measured up to now.
    pub fn finish(self, state: &ServeState) {
        let duration_us = self.started.elapsed().as_secs_f64() * 1e6;
        if swcc_obs::enabled() {
            swcc_obs::observe(metrics::SERVE_REQUEST_US, duration_us);
        }
        let rid = self
            .request_id
            .unwrap_or_else(|| state.telemetry.next_request_id());
        state.telemetry.record(
            telemetry::epoch_seconds(),
            &rid,
            self.cmd,
            self.ok,
            duration_us,
            &self.trace,
        );
    }
}

/// [`handle_request`] with telemetry recording deferred to the caller.
pub fn handle_request_deferred(state: &ServeState, line: &str) -> (String, bool, PendingRecord) {
    let started = Instant::now();
    state.requests.fetch_add(1, Ordering::Relaxed);
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_REQUESTS, 1);
    }
    let mut trace = RequestTrace::default();
    let mut request_id: Option<String> = None;
    let (cmd, response, shutdown, ok) = match parse_request(line) {
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            if swcc_obs::enabled() {
                swcc_obs::counter_add(metrics::SERVE_ERRORS, 1);
            }
            // Echo the correlation id even for malformed batches, so
            // the client can attribute the error to its request.
            let id = serde_json::from_str::<serde::Value>(line)
                .ok()
                .and_then(|v| v.get_field("id").and_then(serde::Value::as_u64));
            ("error", error_response(id, &e), false, false)
        }
        Ok(Request::Ping) => (
            "ping",
            format!("{{\"ok\":true,\"pong\":true,\"version\":\"{PROTOCOL_VERSION}\"}}"),
            false,
            true,
        ),
        Ok(Request::Stats) => ("stats", state.stats_response(), false, true),
        Ok(Request::Telemetry { slow, format }) => {
            if swcc_obs::enabled() {
                swcc_obs::counter_add(metrics::SERVE_TELEMETRY_REQUESTS, 1);
            }
            let response = if slow {
                state.slow_response()
            } else {
                state.telemetry_response(format)
            };
            ("telemetry", response, false, true)
        }
        Ok(Request::Shutdown) => {
            state.request_shutdown();
            (
                "shutdown",
                "{\"ok\":true,\"shutting_down\":true}".to_string(),
                true,
                true,
            )
        }
        Ok(Request::Batch(batch)) => {
            let id = batch.id;
            let rid = batch
                .request
                .clone()
                .unwrap_or_else(|| state.telemetry.next_request_id());
            // A panic while solving must not take down the worker: the
            // ClaimSet drops during unwinding (waking coalesced
            // waiters), and the client gets an error naming its
            // request instead of a dead connection.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_batch_traced(state, &batch, &rid, &mut trace)
            }));
            request_id = Some(rid);
            match outcome {
                Ok(Ok(response)) => ("batch", response, false, true),
                Ok(Err(e)) => {
                    state.errors.fetch_add(1, Ordering::Relaxed);
                    if swcc_obs::enabled() {
                        swcc_obs::counter_add(metrics::SERVE_ERRORS, 1);
                    }
                    ("batch", error_response(id, &e), false, false)
                }
                Err(panic) => {
                    state.errors.fetch_add(1, Ordering::Relaxed);
                    if swcc_obs::enabled() {
                        swcc_obs::counter_add(metrics::SERVE_ERRORS, 1);
                    }
                    let detail = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    (
                        "batch",
                        error_response(id, &format!("internal panic while solving: {detail}")),
                        false,
                        false,
                    )
                }
            }
        }
    };
    (
        response,
        shutdown,
        PendingRecord {
            cmd,
            ok,
            request_id,
            trace,
            started,
        },
    )
}

/// Longest request line the exposition listener reads: an HTTP request
/// line naming one of three short paths.
const MAX_SCRAPE_LINE_BYTES: usize = 4096;

/// How a capped line read ended.
enum LineRead {
    /// The peer closed the connection before sending another byte.
    Closed,
    /// The buffer holds one line, with its newline if the peer sent one.
    Line,
    /// More than the cap arrived without a newline.
    TooLong,
}

/// Reads one line into `line`, buffering at most `cap` bytes before its
/// newline (`cap + 1` in all), so a peer that never sends a newline
/// cannot grow the buffer without bound.
fn read_line_capped(reader: impl BufRead, line: &mut Vec<u8>, cap: usize) -> io::Result<LineRead> {
    line.clear();
    let n = reader
        .take((cap as u64).saturating_add(1))
        .read_until(b'\n', line)?;
    Ok(if n == 0 {
        LineRead::Closed
    } else if n > cap && line.last() != Some(&b'\n') {
        LineRead::TooLong
    } else {
        LineRead::Line
    })
}

fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn count_oversized_line() {
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_OVERSIZED_LINES, 1);
    }
}

fn serve_connection(
    state: &ServeState,
    stream: TcpStream,
    read_timeout: Duration,
) -> io::Result<bool> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        if state.shutting_down() {
            return Ok(true);
        }
        match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(LineRead::Closed) => return Ok(false),
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                count_oversized_line();
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                writer.write_all(error_response(None, &message).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                return Ok(false);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle past the read timeout: close; clients reconnect.
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        let trimmed = utf8(&line)?.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (response, shutdown, pending) = handle_request_deferred(state, trimmed);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        // Recorded after the flush so the windowed latency matches what
        // a client measures (serialization and socket write included).
        pending.finish(state);
        if shutdown {
            return Ok(true);
        }
    }
}

/// The listeners a shutdown has to wake: every thread blocked in
/// `accept` needs one connection to see the shutdown flag and exit.
#[derive(Debug, Clone, Copy)]
struct Listeners {
    addr: SocketAddr,
    workers: usize,
    telemetry: Option<SocketAddr>,
}

impl Listeners {
    /// Wakes the pool: one connect per worker, and one to the telemetry
    /// listener. A connect no thread accepts waits harmlessly in the
    /// backlog.
    fn wake(&self) {
        for _ in 0..self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(addr) = self.telemetry {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A running server: worker pool plus the shared state.
#[derive(Debug)]
pub struct RunningServer {
    listeners: Listeners,
    state: Arc<ServeState>,
    handles: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.listeners.addr
    }

    /// The bound exposition-listener address, when one was configured.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.listeners.telemetry
    }

    /// The shared state (stats and caches), for in-process inspection.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests shutdown and wakes every thread blocked in `accept`.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
        self.listeners.wake();
    }

    /// Waits for every worker to exit. Call [`Self::shutdown`] first
    /// (or send `{"cmd":"shutdown"}`) or this blocks indefinitely.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Binds the listener and starts the worker pool.
///
/// # Errors
///
/// Propagates bind/spawn I/O errors.
pub fn spawn(config: ServeConfig) -> io::Result<RunningServer> {
    let listener = Arc::new(TcpListener::bind(&config.addr)?);
    let telemetry_listener = config
        .telemetry_addr
        .as_ref()
        .map(TcpListener::bind)
        .transpose()?;
    let workers = config.workers.max(1);
    let listeners = Listeners {
        addr: listener.local_addr()?,
        workers,
        telemetry: telemetry_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?,
    };
    let state = Arc::new(ServeState::new(&config));
    let mut handles = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let listener = Arc::clone(&listener);
        let state = Arc::clone(&state);
        let read_timeout = config.read_timeout;
        let handle = thread::Builder::new()
            .name(format!("swcc-serve-{i}"))
            .spawn(move || worker_loop(&listener, &state, listeners, read_timeout))?;
        handles.push(handle);
    }
    if let Some(telemetry_listener) = telemetry_listener {
        let state = Arc::clone(&state);
        let handle = thread::Builder::new()
            .name("swcc-serve-telemetry".to_string())
            .spawn(move || telemetry_loop(&telemetry_listener, &state))?;
        handles.push(handle);
    }
    Ok(RunningServer {
        listeners,
        state,
        handles,
    })
}

/// The exposition listener: a deliberately minimal HTTP/1.0-style
/// responder for scrapers. `GET /metrics` returns the Prometheus text
/// exposition, `GET /telemetry` the JSON snapshot, `GET /slow` the
/// slow-request captures. One request per connection.
fn telemetry_loop(listener: &TcpListener, state: &Arc<ServeState>) {
    loop {
        if state.shutting_down() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if state.shutting_down() {
            return;
        }
        let _ = serve_scrape(state, stream);
    }
}

fn serve_scrape(state: &ServeState, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = Vec::new();
    // An over-long line is rejected before decoding: the cap may split
    // a character.
    let path = match read_line_capped(&mut reader, &mut request_line, MAX_SCRAPE_LINE_BYTES)? {
        LineRead::TooLong => None,
        LineRead::Closed | LineRead::Line => {
            Some(utf8(&request_line)?.split_whitespace().nth(1).unwrap_or(""))
        }
    };
    let (status, content_type, body) = match path {
        None => (
            "414 URI Too Long",
            "text/plain",
            format!("request line exceeds {MAX_SCRAPE_LINE_BYTES} bytes\n"),
        ),
        Some("/metrics") => {
            let snapshot = state
                .telemetry
                .capture(telemetry::epoch_seconds(), state.registry);
            (
                "200 OK",
                "text/plain; version=0.0.4",
                snapshot.to_prometheus(),
            )
        }
        Some("/telemetry") => (
            "200 OK",
            "application/json",
            state.telemetry_response(TelemetryFormat::Json),
        ),
        Some("/slow") => ("200 OK", "application/json", state.slow_response()),
        Some(_) => (
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics, /telemetry, /slow\n".to_string(),
        ),
    };
    if path.is_none() {
        count_oversized_line();
    } else if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SERVE_TELEMETRY_SCRAPES, 1);
    }
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

fn worker_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    listeners: Listeners,
    read_timeout: Duration,
) {
    loop {
        if state.shutting_down() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if state.shutting_down() {
            return;
        }
        state.connections.fetch_add(1, Ordering::Relaxed);
        if swcc_obs::enabled() {
            swcc_obs::counter_add(metrics::SERVE_CONNECTIONS, 1);
        }
        if let Ok(true) = serve_connection(state, stream, read_timeout) {
            // This connection initiated shutdown: wake the peers and
            // the telemetry listener blocked in accept so they drain.
            listeners.wake();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcc_core::bus::analyze_bus;
    use swcc_core::scheme::Scheme;
    use swcc_core::workload::{Level, WorkloadParams};

    fn state() -> ServeState {
        ServeState::new(&ServeConfig::default())
    }

    fn batch(line: &str) -> Batch {
        match parse_request(line).unwrap() {
            Request::Batch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn bus_power_is_bit_identical_to_analyze_bus() {
        let state = state();
        let line =
            r#"{"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":16}}]}"#;
        let response = run_batch(&state, &batch(line)).unwrap();
        let parsed: serde::Value = serde_json::from_str(&response).unwrap();
        let point = parsed
            .get_field("results")
            .and_then(|r| r.get_index(0))
            .and_then(|q| q.get_field("points"))
            .and_then(|p| p.get_index(0))
            .unwrap();
        let direct = analyze_bus(
            Scheme::Dragon,
            &WorkloadParams::at_level(Level::Middle),
            &BusSystemModel::new(),
            16,
        )
        .unwrap();
        for (field, want) in [
            ("power", direct.power()),
            ("utilization", direct.utilization()),
            ("cpi", direct.cycles_per_instruction()),
            ("waiting", direct.waiting()),
            ("bus_utilization", direct.bus_utilization()),
        ] {
            let got = point
                .get_field(field)
                .and_then(serde::Value::as_f64)
                .unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{field}");
        }
        assert_eq!(
            point.get_field("cached").and_then(serde::Value::as_str),
            Some("miss")
        );
    }

    #[test]
    fn repeat_queries_hit_the_cache_with_identical_bits() {
        let state = state();
        // Dragon's demand varies with shd (Base's does not, so a Base
        // sweep over shd would collapse to one cache key).
        let line = r#"{"compact":true,"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":8},"sweep":{"param":"shd","from":0.01,"to":0.2,"points":32}}]}"#;
        let cold = run_batch(&state, &batch(line)).unwrap();
        let warm = run_batch(&state, &batch(line)).unwrap();
        let values = |resp: &str| -> Vec<f64> {
            let parsed: serde::Value = serde_json::from_str(resp).unwrap();
            parsed
                .get_field("results")
                .and_then(|r| r.get_index(0))
                .and_then(|q| q.get_field("values"))
                .and_then(serde::Value::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect()
        };
        let a = values(&cold);
        let b = values(&warm);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let stats = state.bus_points.stats();
        assert_eq!(stats.misses, 32, "cold pass claims every point");
        assert!(stats.hits >= 32, "warm pass is all hits");
        assert_eq!(state.solves.load(Ordering::Relaxed), 1, "one grid call");
    }

    #[test]
    fn one_line_gets_byte_identical_responses_from_fresh_states() {
        // A response carries no server-side timing, so two fresh servers
        // answer the same line with the same bytes.
        let line = r#"{"id":7,"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":8},"sweep":{"param":"shd","from":0.01,"to":0.2,"points":16}},{"kind":"penalty","scheme":"base","machine":{"interconnect":"bus","processors":4}},{"scheme":"software-flush","machine":{"interconnect":"network","stages":6}},{"kind":"sensitivity","scheme":"no-cache","machine":{"interconnect":"bus","processors":16}}]}"#;
        let (first, _) = handle_request(&state(), line);
        let (second, _) = handle_request(&state(), line);
        assert!(first.starts_with("{\"ok\":true"), "{first}");
        assert_eq!(first, second);
    }

    #[test]
    fn a_cold_sweep_is_one_grid_call() {
        let state = state();
        let line = r#"{"queries":[
            {"scheme":"software-flush","machine":{"interconnect":"bus","processors":16},"sweep":{"param":"shd","from":0.01,"to":0.3,"points":64}},
            {"scheme":"dragon","machine":{"interconnect":"bus","processors":16},"sweep":{"param":"shd","from":0.01,"to":0.3,"points":64}}
        ]}"#
        .replace('\n', " ");
        run_batch(&state, &batch(&line)).unwrap();
        // Both queries share one processor count, so every distinct
        // cold point drains into a single lockstep MVA grid. (Distinct
        // keys, not 128: schemes whose variations induce the same
        // queue share entries by design.)
        assert_eq!(state.solves.load(Ordering::Relaxed), 1);
        let entries = state.bus_points.len() as u64;
        assert_eq!(state.solve_lanes.load(Ordering::Relaxed), entries);
        assert!(entries >= 64, "at least one full sweep of distinct keys");
    }

    #[test]
    fn duplicate_points_within_a_request_coalesce_on_our_own_claim() {
        let state = state();
        // points=3 over a zero-width sweep: three identical workloads.
        let line = r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.1,"to":0.1,"points":3}}]}"#;
        let response = run_batch(&state, &batch(line)).unwrap();
        assert!(response.contains("\"ok\":true"));
        assert_eq!(state.solve_lanes.load(Ordering::Relaxed), 1);
        let parsed: serde::Value = serde_json::from_str(&response).unwrap();
        let cache = parsed.get_field("cache").unwrap();
        assert_eq!(
            cache.get_field("misses").and_then(serde::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            cache.get_field("coalesced").and_then(serde::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn a_retry_claim_is_released_when_its_solve_panics_or_fails() {
        let cache: SolvedPointCache<BusPoint> = SolvedPointCache::new();
        let demand = scheme_demand(
            Scheme::Base,
            &WorkloadParams::at_level(Level::Middle),
            &BusSystemModel::new(),
        )
        .unwrap();
        let key = bus_key(&demand, 4);
        type Solve = fn(&PointKey) -> Result<BusPoint, String>;
        let panics: Solve = |_| panic!("solver exploded");
        let fails: Solve = |_| Err("solver failed".to_string());
        for solve in [panics, fails] {
            // Another request claims the point, this one attaches to the
            // claim, and the owner aborts: the retry arm re-claims it.
            assert!(matches!(cache.begin(key), Admission::Claimed));
            let Admission::Shared(flight) = cache.begin(key) else {
                panic!("expected to share the claim");
            };
            cache.abort(&key);
            let mut lanes = vec![Lane {
                key,
                demand,
                state: LaneState::Wait(flight),
            }];
            let resolved = catch_unwind(AssertUnwindSafe(|| {
                let mut claims = ClaimSet::new(&cache, lanes.len());
                resolve_lanes(
                    &mut lanes,
                    &mut claims,
                    Duration::from_secs(5),
                    &mut 0.0,
                    &mut |k| solve(k),
                )
            }));
            assert!(!matches!(resolved, Ok(Ok(()))));
            // The retry's claim was released, so the next caller claims
            // the point instead of waiting on an orphaned claim.
            assert!(matches!(cache.begin(key), Admission::Claimed));
            cache.abort(&key);
        }
    }

    #[test]
    fn handle_request_reports_panics_with_the_request_id() {
        let state = state();
        // A panic inside run_batch is simulated by the solver being fed
        // an internally inconsistent state; absent a natural trigger,
        // exercise the catch_unwind plumbing directly.
        let result = catch_unwind(AssertUnwindSafe(|| {
            panic!("query 2 exploded");
        }));
        assert!(result.is_err());
        // The public surface: a malformed line still yields a response,
        // and the connection-level path never propagates panics.
        let (response, shutdown) = handle_request(&state, "{\"queries\":[]}");
        assert!(response.contains("\"ok\":false"));
        assert!(!shutdown);
        assert_eq!(state.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_workload_expansion_is_an_error_response_not_a_panic() {
        // parse_query always emits >= 1 workload, so this batch can
        // only be constructed programmatically — exactly the shape the
        // request path must answer (not die on) if an upstream
        // invariant ever regresses.
        let state = state();
        let pathological = Batch {
            id: Some(7),
            request: None,
            compact: false,
            queries: vec![Query {
                kind: QueryKind::Sensitivity,
                scheme: Scheme::Dragon,
                machine: Machine::Bus { processors: 8 },
                workloads: Vec::new(),
                sweep_values: Vec::new(),
            }],
        };
        let err = run_batch(&state, &pathological).unwrap_err();
        assert!(err.contains("no workload"), "got: {err}");
    }

    #[test]
    fn short_sweep_values_render_without_panicking() {
        // sweep_values is documented as parallel to workloads; a
        // mismatch must degrade to omitting the `value` field for the
        // unmatched lanes, never to an index panic.
        let state = state();
        let line = r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.05,"to":0.2,"points":3}}]}"#;
        let mut mismatched = batch(line);
        mismatched.queries[0].sweep_values.truncate(1);
        let response = run_batch(&state, &mismatched).unwrap();
        let parsed: serde::Value = serde_json::from_str(&response).unwrap();
        let points = parsed
            .get_field("results")
            .and_then(|r| r.get_index(0))
            .and_then(|q| q.get_field("points"))
            .and_then(serde::Value::as_array)
            .unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].get_field("value").is_some());
        assert!(points[1].get_field("value").is_none());
        assert!(points[2].get_field("value").is_none());
    }

    #[test]
    fn stats_response_is_valid_json_with_expected_fields() {
        let state = state();
        let line =
            r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#;
        run_batch(&state, &batch(line)).unwrap();
        let stats: serde::Value = serde_json::from_str(&state.stats_response()).unwrap();
        let inner = stats.get_field("stats").unwrap();
        assert_eq!(
            inner.get_field("solves").and_then(serde::Value::as_u64),
            Some(1)
        );
        let cache = inner.get_field("cache").unwrap();
        assert_eq!(
            cache.get_field("entries").and_then(serde::Value::as_u64),
            Some(1)
        );
    }
}
