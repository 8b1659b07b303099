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
//! module). There is one cache per machine, one per bus processor count
//! and one per network stage count, each created the first time a
//! query names its machine. A key is the bits of the queue's two input
//! words, and an entry holds the solve's two output words:
//!
//! * **Bus** — `analyze_bus` depends on the workload only through the
//!   demand `(c, b)`, and the contention solve only through
//!   `(service, think) = (b, c − b)`. The cache key is those bits, and
//!   the cached words are the solver outputs `(waiting,
//!   bus_utilization)`. Reassembling through
//!   [`BusPerformance::from_queue_solution`] reproduces the direct
//!   call's getters bitwise, because [`machine_repairman_grid`] lanes
//!   are bit-identical to scalar `machine_repairman` solves.
//! * **Network** — likewise keyed on
//!   `(transaction_size, transaction_rate)` bits, caching the solver's
//!   two outputs `(think_fraction, accepted)`. Misses are solved by
//!   [`BatchPatelSolver`], whose cold lanes run the same guarded-Newton
//!   kernel as `patel::solve`, so a lane's bits do not depend on its
//!   batch. The solver builds each point with
//!   [`OperatingPoint::from_parts`] from its lane's inputs, which are
//!   exactly the key's bits and the machine's stage count, so the point
//!   reassembled from them and the cached outputs is the solver's own,
//!   and served network results match `analyze_network` bitwise.
//!
//! Neither key names the scheme: the solved value depends on the
//! scheme only through the demand bits, so two schemes (or two
//! workloads) that induce the same queue share one cache entry.
//!
//! The machine family, bus or network, is data, not a second copy of
//! the pipeline: a request's lanes sit in one list of groups, one per
//! machine, and one plan, admit, solve, resolve and render step serves
//! every group. Three functions decide what differs: the demand's
//! system model and key, the one solver call for a machine's keys, and
//! the answer rebuilt from the two cached words.
//!
//! Admission is single-flight: the first request to miss a key claims
//! it and solves; concurrent requests for the same key attach to the
//! in-flight solve and block only on its completion. Each group admits
//! with one batch call, and its claims are drained into one solver
//! call, one MVA grid or one Patel batch per machine, so a cold
//! 4096-point sweep costs one lockstep solve, not 4096.
//!
//! ## Failure containment
//!
//! A panic while solving a batch is caught at the request boundary and
//! reported as an error response naming the originating request id —
//! the connection and the process keep serving. Claimed-but-unsolved
//! cache slots are released by a RAII guard (`ClaimSet`) during
//! unwinding, waking any coalesced waiters. A lane whose flight is lost
//! that way, or whose wait times out, goes back to pending, and the same
//! admit, solve and resolve steps take the point over under the same
//! guard.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver};
use swcc_core::bus::BusPerformance;
use swcc_core::demand::{scheme_demand, Demand};
use swcc_core::network::{NetworkPerformance, OperatingPoint};
use swcc_core::scheme::Scheme;
use swcc_core::sensitivity::sensitivity_table_at;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::{ParamId, WorkloadParams};

use swcc_obs::{push_json_f64, push_json_str, MetricsRegistry, Recorder as _};

use crate::cache::{Admission, Flight, MachineCaches, PointHashState, PointKey, SolvedPointCache};
use crate::metrics;
use crate::protocol::{
    error_response, parse_line, Batch, Machine, Query, QueryKind, Request, TelemetryFormat,
    MAX_BUS_PROCESSORS, MAX_LINE_BYTES, MAX_NETWORK_STAGES, PROTOCOL_VERSION,
};
use crate::telemetry::{self, RequestTrace, Telemetry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads in the accept pool.
    pub workers: usize,
    /// Per-connection read timeout: an idle connection is closed after
    /// this long without the first byte of a request line, and a line
    /// must complete within this long of its first byte.
    pub read_timeout: Duration,
    /// How long a request waits, in all, on other requests' in-flight
    /// solves before it admits their points again; a second wait that
    /// long is an error.
    pub solve_timeout: Duration,
    /// The registry the server records its `serve.*` metrics into, and
    /// that `stats`, `telemetry` and `/metrics` read. It must hold
    /// [`crate::metrics`]' names. `None` gives the server a private
    /// registry of those names alone. The binary passes the registry it
    /// installs with [`swcc_obs::install`], so core's solver counters
    /// sit beside serve's and every count is process-wide.
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

/// A solve's two output words, cached per point in its machine's cache:
/// `[waiting, bus_utilization]` on a bus, `[think_fraction, accepted]`
/// on a network.
type Solved = [f64; 2];

/// Shared state behind all connections: one solved-point cache per
/// machine and the telemetry hub, whose registry holds the counters
/// behind `{"cmd":"stats"}`.
#[derive(Debug)]
pub struct ServeState {
    /// One cache per bus processor count.
    bus_points: MachineCaches<Solved>,
    /// One cache per network stage count.
    net_points: MachineCaches<Solved>,
    solve_timeout: Duration,
    shutdown: AtomicBool,
    telemetry: Telemetry,
}

impl ServeState {
    /// Fresh state with empty caches.
    pub fn new(config: &ServeConfig) -> Self {
        ServeState {
            bus_points: MachineCaches::new(MAX_BUS_PROCESSORS),
            net_points: MachineCaches::new(MAX_NETWORK_STAGES),
            solve_timeout: config.solve_timeout,
            shutdown: AtomicBool::new(false),
            telemetry: Telemetry::new(config),
        }
    }

    /// `machine`'s cache, created on first use, or the protocol's range
    /// error for a machine the tables have no slot for.
    fn cache(&self, machine: Machine) -> Result<&SolvedPointCache<Solved>, String> {
        match machine {
            Machine::Bus { processors } => self.bus_points.get(processors).ok_or_else(|| {
                format!("\"processors\" must be between 1 and {MAX_BUS_PROCESSORS}")
            }),
            Machine::Network { stages } => self
                .net_points
                .get(stages)
                .ok_or_else(|| format!("\"stages\" must be between 1 and {MAX_NETWORK_STAGES}")),
        }
    }

    /// The live telemetry hub (windows, registry, slow captures, access
    /// log).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds `by` to the `serve.*` counter `name` in this server's
    /// registry.
    fn count(&self, name: &'static str, by: u64) {
        self.telemetry.metrics().counter_add(name, by);
    }

    /// Renders the `telemetry` snapshot response (JSON, with the
    /// Prometheus exposition of the same snapshot inlined when asked).
    pub fn telemetry_response(&self, format: TelemetryFormat) -> String {
        self.telemetry
            .capture(telemetry::epoch_seconds())
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

    /// Renders the stats response line. Its traffic counters are the
    /// registry's `serve.*` counters of the same names; its cache
    /// counters and `entries` are summed over every machine's cache.
    pub fn stats_response(&self) -> String {
        use std::fmt::Write as _;
        let cache = self.bus_points.stats().plus(self.net_points.stats());
        let registry = self.telemetry.metrics();
        let mut out = String::from("{\"ok\":true,\"stats\":{");
        for (field, name) in [
            ("requests", metrics::SERVE_REQUESTS),
            ("queries", metrics::SERVE_QUERIES),
            ("errors", metrics::SERVE_ERRORS),
            ("connections", metrics::SERVE_CONNECTIONS),
            ("solves", metrics::SERVE_SOLVES),
            ("solve_lanes", metrics::SERVE_SOLVE_LANES),
        ] {
            let _ = write!(
                out,
                "\"{field}\":{},",
                registry.counter_value(name).unwrap_or(0)
            );
        }
        out.push_str("\"uptime_s\":");
        push_json_f64(&mut out, self.telemetry.uptime_s());
        out.push_str(",\"build\":{\"commit\":");
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
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.inserts,
            cache.probes,
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

// --- What a machine's family decides --------------------------------
//
// The bus MVA and Patel's network differ only in the demand and key, the
// solver call and the rebuilt answer below; every pipeline step serves both.

/// The demand `scheme` puts on `workload` under `machine`'s system
/// model (`bus` for every bus machine), and the point's cache key: the
/// bits of the queue's two inputs, `(b, c − b)` on a bus and `(b, m)`
/// on a network, where the transaction size is `b` and the rate `m` is
/// `1 / (c − b)`.
fn demand_of(
    machine: Machine,
    scheme: Scheme,
    workload: &WorkloadParams,
    bus: &BusSystemModel,
) -> swcc_core::Result<(Demand, PointKey)> {
    let (demand, think) = match machine {
        Machine::Bus { .. } => {
            let demand = scheme_demand(scheme, workload, bus)?;
            (demand, demand.think_time())
        }
        Machine::Network { stages } => {
            let demand = scheme_demand(scheme, workload, &NetworkSystemModel::new(stages))?;
            (demand, demand.transaction_rate())
        }
    };
    let key = PointKey {
        service: demand.interconnect().to_bits(),
        think: think.to_bits(),
    };
    Ok((demand, key))
}

/// `machine`'s one solver call for `keys`: an MVA grid over the bus's
/// processors, or a Patel batch over the network's stages. The words
/// come back in key order.
fn solve_keys(machine: Machine, keys: &[PointKey]) -> swcc_core::Result<Vec<Solved>> {
    let services: Vec<f64> = keys.iter().map(|k| f64::from_bits(k.service)).collect();
    let thinks: Vec<f64> = keys.iter().map(|k| f64::from_bits(k.think)).collect();
    Ok(match machine {
        Machine::Bus { processors } => machine_repairman_grid(processors, &services, &thinks)?
            .iter()
            .map(|mva| [mva.waiting(), mva.server_utilization()])
            .collect(),
        Machine::Network { stages } => BatchPatelSolver::new()
            .solve(&thinks, &services, stages)?
            .points()
            .iter()
            .map(|point| [point.think_fraction(), point.accepted_rate()])
            .collect(),
    })
}

/// A lane's answer: the direct call's result, rebuilt from the query's
/// machine, the lane's demand and key, and the two cached words.
enum Answer {
    Bus(BusPerformance),
    Network(NetworkPerformance),
}

impl Answer {
    fn rebuilt(query: &Query, lane: &Lane, [first, second]: Solved) -> Answer {
        let (scheme, demand, key) = (query.scheme, lane.demand, lane.key);
        match query.machine {
            Machine::Bus { processors } => Answer::Bus(BusPerformance::from_queue_solution(
                scheme, processors, demand, first, second,
            )),
            Machine::Network { stages } => {
                let (rate, size) = (f64::from_bits(key.think), f64::from_bits(key.service));
                let point = OperatingPoint::from_parts(stages, rate, size, first, second);
                let perf = NetworkPerformance::from_operating_point(scheme, stages, demand, point);
                Answer::Network(perf)
            }
        }
    }

    /// A compact response's one value: the bus waiting time for a
    /// penalty query, the power otherwise.
    fn value(&self, kind: QueryKind) -> f64 {
        match self {
            Answer::Bus(perf) if kind == QueryKind::Penalty => perf.waiting(),
            Answer::Bus(perf) => perf.power(),
            Answer::Network(perf) => perf.power(),
        }
    }

    /// Writes a full response point's fields, each `"name":value,`.
    fn push_fields(&self, out: &mut String) {
        let fields: &[(&str, f64)] = match self {
            Answer::Bus(perf) => &[
                ("power", perf.power()),
                ("utilization", perf.utilization()),
                ("cpi", perf.cycles_per_instruction()),
                ("waiting", perf.waiting()),
                ("bus_utilization", perf.bus_utilization()),
            ],
            Answer::Network(perf) => &[
                ("power", perf.power()),
                ("utilization", perf.utilization()),
                ("think_fraction", perf.operating_point().think_fraction()),
                ("accepted_rate", perf.operating_point().accepted_rate()),
            ],
        };
        for (name, value) in fields {
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            push_json_f64(out, *value);
            out.push(',');
        }
    }
}

/// The family's name: the `serve.solve` span's `machine` field, the
/// suffix of its solve phase and the prefix of its solve errors.
fn family(machine: Machine) -> &'static str {
    match machine {
        Machine::Bus { .. } => "bus",
        Machine::Network { .. } => "network",
    }
}

enum LaneState {
    /// Not admitted yet, or its flight was lost: the next [`admit`]
    /// admits it.
    Pending,
    /// Claimed by this request; value lands in the [`ClaimSet`] after
    /// the solve.
    Ours(Provenance),
    /// Answered.
    Value(Solved, Provenance),
    /// Attached to another request's in-flight solve.
    Wait(Arc<Flight<Solved>>),
}

struct Lane {
    key: PointKey,
    demand: Demand,
    state: LaneState,
}

/// RAII over this request's claimed slots in one machine's cache: a
/// claim is pending (`None`) until `publish_many` records its value;
/// anything still pending on drop (solver error, panic) is aborted so
/// coalesced waiters wake and re-claim.
struct ClaimSet<'a> {
    cache: &'a SolvedPointCache<Solved>,
    claims: HashMap<PointKey, Option<Solved>, PointHashState>,
}

impl<'a> ClaimSet<'a> {
    fn new(cache: &'a SolvedPointCache<Solved>) -> Self {
        ClaimSet {
            cache,
            claims: HashMap::with_hasher(PointHashState::new()),
        }
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

    fn publish_many(&mut self, keys: &[PointKey], values: &[Solved]) {
        self.cache.publish_many(keys, values);
        for (key, value) in keys.iter().zip(values) {
            self.claims.insert(*key, Some(*value));
        }
    }

    fn solved(&self, key: &PointKey) -> Option<Solved> {
        self.claims.get(key).copied().flatten()
    }
}

impl Drop for ClaimSet<'_> {
    fn drop(&mut self) {
        let pending = self.pending_keys();
        if !pending.is_empty() {
            self.cache.abort_many(&pending);
        }
    }
}

/// One machine's lanes of a request, in plan order, admitted into that
/// machine's cache through their own claims.
struct Group<'a> {
    machine: Machine,
    lanes: Vec<Lane>,
    claims: ClaimSet<'a>,
}

/// `machine`'s group's index and lanes, the group appended with that
/// machine's cache the first time the request names it. A request names
/// few machines, so a search per query is enough.
fn group_of<'g, 'a>(
    groups: &'g mut Vec<Group<'a>>,
    state: &'a ServeState,
    machine: Machine,
) -> Result<(usize, &'g mut Vec<Lane>), String> {
    let index = match groups.iter().position(|g| g.machine == machine) {
        Some(index) => index,
        None => {
            groups.push(Group {
                machine,
                lanes: Vec::new(),
                claims: ClaimSet::new(state.cache(machine)?),
            });
            groups.len() - 1
        }
    };
    let group = groups.get_mut(index).ok_or("internal: no such group")?;
    Ok((index, &mut group.lanes))
}

/// Admits `group`'s pending lanes with one shard-grouped `begin_many`,
/// counting each admission into the request's trace.
fn admit(group: &mut Group<'_>, trace: &mut RequestTrace) {
    let keys: Vec<PointKey> = group
        .lanes
        .iter()
        .filter(|lane| matches!(lane.state, LaneState::Pending))
        .map(|lane| lane.key)
        .collect();
    let claims = &mut group.claims;
    claims.claims.reserve(keys.len());
    let admissions = claims.cache.begin_many(&keys);
    let pending = group
        .lanes
        .iter_mut()
        .filter(|lane| matches!(lane.state, LaneState::Pending));
    for (lane, admission) in pending.zip(admissions) {
        lane.state = match admission {
            Admission::Hit(v) => {
                trace.hits += 1;
                LaneState::Value(v, Provenance::Hit)
            }
            Admission::Claimed => {
                trace.misses += 1;
                claims.claims.insert(lane.key, None);
                LaneState::Ours(Provenance::Miss)
            }
            Admission::Shared(flight) => {
                trace.coalesced += 1;
                if claims.owns(&lane.key) {
                    // A duplicate point within this request coalesces
                    // onto our own claim; its value is in the ClaimSet
                    // after the solve, no waiting needed.
                    LaneState::Ours(Provenance::Coalesced)
                } else {
                    LaneState::Wait(flight)
                }
            }
        };
    }
}

/// Solves the claims `group` has not published yet with its machine's
/// one solver call, and publishes them. Returns the lanes it solved.
fn solve(state: &ServeState, group: &mut Group<'_>) -> Result<usize, String> {
    let keys = group.claims.pending_keys();
    if keys.is_empty() {
        return Ok(0);
    }
    let family = family(group.machine);
    let _solve_span = swcc_obs::span(
        metrics::EV_SERVE_SOLVE,
        &[
            swcc_obs::Field::str("machine", family),
            swcc_obs::Field::u64("lanes", keys.len() as u64),
        ],
    );
    let values =
        solve_keys(group.machine, &keys).map_err(|e| format!("{family} solve failed: {e}"))?;
    state.count(metrics::SERVE_SOLVES, 1);
    state.count(metrics::SERVE_SOLVE_LANES, keys.len() as u64);
    group.claims.publish_many(&keys, &values);
    Ok(keys.len())
}

/// Settles `group`'s lanes where it can: a claimed lane reads the value
/// its solve published, and a coalesced lane waits on the owning
/// request's flight until `deadline`, each wait observed into the
/// registry and added to `wait_us`. A lane whose flight is lost (the
/// owner aborted, or the deadline passed) goes back to pending. Returns
/// how many did.
fn resolve(
    state: &ServeState,
    group: &mut Group<'_>,
    deadline: Instant,
    wait_us: &mut f64,
) -> Result<usize, String> {
    let registry = state.telemetry.metrics();
    let mut lost = 0;
    for lane in &mut group.lanes {
        let next = match &lane.state {
            LaneState::Value(..) => continue,
            LaneState::Pending => return Err("internal: lane left unadmitted".to_string()),
            LaneState::Ours(provenance) => {
                let v = group
                    .claims
                    .solved(&lane.key)
                    .ok_or("internal: claimed point missing after its solve")?;
                LaneState::Value(v, *provenance)
            }
            LaneState::Wait(flight) => {
                let started = Instant::now();
                let got = flight.wait_for(deadline.saturating_duration_since(started));
                let waited_us = started.elapsed().as_secs_f64() * 1e6;
                *wait_us += waited_us;
                registry.observe(metrics::SERVE_FLIGHT_WAIT_US, waited_us);
                match got {
                    Some(v) => LaneState::Value(v, Provenance::Coalesced),
                    None => {
                        lost += 1;
                        LaneState::Pending
                    }
                }
            }
        };
        lane.state = next;
    }
    Ok(lost)
}

/// Resolves every group's lanes (after this request's publishes, so a
/// duplicate key never deadlocks on itself). Lanes whose flight was
/// lost are admitted, solved and resolved once more by the same steps,
/// so the retry's admissions, solve and waits are counted like the
/// first; a flight lost twice is an error.
fn settle(
    state: &ServeState,
    groups: &mut [Group<'_>],
    trace: &mut RequestTrace,
) -> Result<(), String> {
    for retry in [false, true] {
        if retry {
            for group in groups.iter_mut() {
                admit(group, trace);
                solve(state, group)?;
            }
        }
        // One deadline per round: an owner that never publishes costs
        // the request one timeout, however many of its lanes wait on it.
        let deadline = Instant::now() + state.solve_timeout;
        let mut lost = 0;
        for group in groups.iter_mut() {
            lost += resolve(state, group, deadline, &mut trace.flight_wait_us)?;
        }
        if lost == 0 {
            return Ok(());
        }
    }
    Err("timed out waiting for an in-flight solve".to_string())
}

fn lane_value(lane: &Lane) -> Result<(Solved, Provenance), String> {
    match &lane.state {
        LaneState::Value(v, p) => Ok((*v, *p)),
        // settle() settles every lane; answering an internal error
        // beats panicking mid-response if that ever regresses.
        _ => Err("internal: lane left unsettled after resolve".to_string()),
    }
}

/// Where a query's answer comes from: its points are `len` lanes of
/// one machine's group, from `start`, or a sensitivity ranking.
enum QueryPlan {
    Lanes {
        group: usize,
        start: usize,
        len: usize,
    },
    Sensitivity {
        ranking: Vec<(ParamId, f64)>,
    },
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

    // --- Plan: expand every query point to a demand and a cache key,
    // in its machine's group. -------------------------------------------
    let phase_started = Instant::now();
    let mut plans: Vec<QueryPlan> = Vec::with_capacity(batch.queries.len());
    let mut groups: Vec<Group<'_>> = Vec::new();
    let mut points = 0u64;
    for (i, query) in batch.queries.iter().enumerate() {
        // Log the protocol's wire spelling ("software-flush"), not the
        // human Display name ("Software-Flush").
        trace.note_scheme(&query.scheme.to_string().to_ascii_lowercase());
        if let (QueryKind::Sensitivity, Machine::Bus { processors }) = (query.kind, query.machine) {
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
        let (group, lanes) =
            group_of(&mut groups, state, query.machine).map_err(|e| format!("query {i}: {e}"))?;
        let start = lanes.len();
        for workload in &query.workloads {
            let (demand, key) = demand_of(query.machine, query.scheme, workload, &bus_system)
                .map_err(|e| format!("query {i}: {e}"))?;
            lanes.push(Lane {
                key,
                demand,
                state: LaneState::Pending,
            });
        }
        points += query.workloads.len() as u64;
        plans.push(QueryPlan::Lanes {
            group,
            start,
            len: query.workloads.len(),
        });
    }

    trace.queries = batch.queries.len() as u64;
    trace.points = points;
    trace.phase("plan", phase_started, started, 0);

    let _span = swcc_obs::span(
        metrics::EV_SERVE_REQUEST,
        &[
            swcc_obs::Field::text("request", request_id.to_string()),
            swcc_obs::Field::u64("queries", batch.queries.len() as u64),
            swcc_obs::Field::u64("points", points),
        ],
    );

    // --- Admit: one shard-grouped begin_many() per machine. ----------
    let phase_started = Instant::now();
    for group in &mut groups {
        admit(group, trace);
    }
    trace.phase("admit", phase_started, started, 0);

    // --- Solve: one solver call per machine with claims, timed one
    // family at a time.
    for (name, phase) in [("bus", "solve.bus"), ("network", "solve.network")] {
        let phase_started = Instant::now();
        let mut solved = 0;
        for group in groups.iter_mut().filter(|g| family(g.machine) == name) {
            solved += solve(state, group)?;
        }
        if solved > 0 {
            trace.phase(phase, phase_started, started, solved as u64);
        }
    }

    // --- Resolve: settle coalesced waits, retrying lost flights. -----
    let phase_started = Instant::now();
    settle(state, &mut groups, trace)?;
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
            QueryPlan::Lanes { group, start, len } => {
                let lanes = groups
                    .get(*group)
                    .and_then(|g| g.lanes.get(*start..*start + *len))
                    .ok_or_else(|| format!("internal: plan for query {qi} out of range"))?;
                render_query(&mut out, query, lanes, batch.compact)?;
            }
        }
    }
    let _ = write!(
        out,
        "],\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{}}}",
        trace.hits, trace.misses, trace.coalesced
    );
    trace.phase("render", phase_started, started, 0);
    out.push('}');
    Ok(out)
}

/// Writes one query's answer: in a compact response its `values`
/// array, in a full one a `points` array of every field and the point's
/// provenance.
fn render_query(
    out: &mut String,
    query: &Query,
    lanes: &[Lane],
    compact: bool,
) -> Result<(), String> {
    if compact {
        return render_values(out, lanes, |lane, v| {
            Answer::rebuilt(query, lane, v).value(query.kind)
        });
    }
    out.push_str("{\"points\":[");
    for (j, lane) in lanes.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let (v, provenance) = lane_value(lane)?;
        out.push('{');
        if let Some(value) = query.sweep_values.get(j) {
            out.push_str("\"value\":");
            push_json_f64(out, *value);
            out.push(',');
        }
        Answer::rebuilt(query, lane, v).push_fields(out);
        out.push_str("\"cached\":");
        push_json_str(out, provenance.name());
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

/// Writes a compact query's `values` array: `value` of each lane. A
/// lane whose value has the previous lane's bits repeats that lane's
/// text rather than formatting the float again, so a run of identical
/// points (a Base `shd` sweep is one) is formatted once.
fn render_values(
    out: &mut String,
    lanes: &[Lane],
    value: impl Fn(&Lane, Solved) -> f64,
) -> Result<(), String> {
    out.push_str("{\"values\":[");
    let mut previous: Option<(u64, std::ops::Range<usize>)> = None;
    for (j, lane) in lanes.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let (v, _) = lane_value(lane)?;
        let value = value(lane, v);
        match &previous {
            Some((bits, text)) if *bits == value.to_bits() => out.extend_from_within(text.clone()),
            _ => {
                let start = out.len();
                push_json_f64(out, value);
                previous = Some((value.to_bits(), start..out.len()));
            }
        }
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
    /// Folds the request into the windows / registry / access log /
    /// slow ring, with the duration measured up to now.
    pub fn finish(self, state: &ServeState) {
        let duration_us = self.started.elapsed().as_secs_f64() * 1e6;
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
    // Counted on arrival, so a `stats` reply counts itself; the rest of
    // the request is counted when it is recorded.
    state.count(metrics::SERVE_REQUESTS, 1);
    let mut trace = RequestTrace::default();
    let mut request_id: Option<String> = None;
    let (cmd, response, shutdown, ok) = match parse_line(line) {
        // Echo the correlation id even for malformed batches, so the
        // client can attribute the error to its request.
        Err((e, id)) => ("error", error_response(id, &e), false, false),
        Ok(Request::Ping) => (
            "ping",
            format!("{{\"ok\":true,\"pong\":true,\"version\":\"{PROTOCOL_VERSION}\"}}"),
            false,
            true,
        ),
        Ok(Request::Stats) => ("stats", state.stats_response(), false, true),
        Ok(Request::Telemetry { slow, format }) => {
            state.count(metrics::SERVE_TELEMETRY_REQUESTS, 1);
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
                Ok(Err(e)) => ("batch", error_response(id, &e), false, false),
                Err(panic) => {
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
    /// The line's first byte arrived, but its newline did not within the
    /// timeout.
    TimedOut,
}

/// Reads one line into `line`, buffering at most `cap` bytes before its
/// newline (`cap + 1` in all), so a peer that never sends a newline
/// cannot grow the buffer without bound. The wait for the line's first
/// byte is bounded by `timeout`, the stream's read timeout, and ends in
/// its `WouldBlock`/`TimedOut` error; once that byte is there, the rest
/// of the line must arrive within `timeout` of it, however slowly the
/// bytes trickle in.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    cap: usize,
    timeout: Duration,
) -> io::Result<LineRead> {
    line.clear();
    let mut deadline: Option<Instant> = None;
    let mut shortened = false;
    let read = loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if deadline.is_some()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                break Ok(LineRead::TimedOut)
            }
            Err(e) => break Err(e),
        };
        if available.is_empty() {
            break Ok(if line.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Line
            });
        }
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
        let room = available.iter().take(cap + 1 - line.len());
        let newline = room.clone().position(|&b| b == b'\n');
        let used = newline.map_or(room.len(), |end| end + 1);
        line.extend(room.take(used));
        reader.consume(used);
        if newline.is_some() {
            break Ok(LineRead::Line);
        }
        if line.len() > cap {
            break Ok(LineRead::TooLong);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break Ok(LineRead::TimedOut);
        }
        reader.get_ref().set_read_timeout(Some(left))?;
        shortened = true;
    };
    if shortened {
        reader.get_ref().set_read_timeout(Some(timeout))?;
    }
    read
}

fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
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
        match read_line(&mut reader, &mut line, MAX_LINE_BYTES, read_timeout) {
            Ok(LineRead::Closed) => return Ok(false),
            Ok(LineRead::Line) => {}
            Ok(LineRead::TimedOut) => {
                // A line trickling in past its deadline: close, so one
                // slow client cannot hold a worker.
                state.count(metrics::SERVE_LINE_TIMEOUTS, 1);
                return Ok(false);
            }
            Ok(LineRead::TooLong) => {
                state.count(metrics::SERVE_OVERSIZED_LINES, 1);
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                writer.write_all(error_response(None, &message).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                return Ok(false);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle past the read timeout before a line began: close;
                // clients reconnect.
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
    const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = Vec::new();
    // An over-long line is rejected before decoding: the cap may split
    // a character.
    let path = match read_line(
        &mut reader,
        &mut request_line,
        MAX_SCRAPE_LINE_BYTES,
        SCRAPE_TIMEOUT,
    )? {
        LineRead::TimedOut => {
            state.count(metrics::SERVE_LINE_TIMEOUTS, 1);
            return Ok(());
        }
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
        Some("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4",
            state
                .telemetry
                .capture(telemetry::epoch_seconds())
                .to_prometheus(),
        ),
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
    state.count(
        match path {
            None => metrics::SERVE_OVERSIZED_LINES,
            Some(_) => metrics::SERVE_TELEMETRY_SCRAPES,
        },
        1,
    );
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
        state.count(metrics::SERVE_CONNECTIONS, 1);
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
    use crate::protocol::parse_request;
    use swcc_core::batch::Stages;
    use swcc_core::bus::analyze_bus;
    use swcc_core::network::analyze_network;
    use swcc_core::workload::Level;

    fn state() -> ServeState {
        ServeState::new(&ServeConfig::default())
    }

    /// A `serve.*` counter of `state`'s registry.
    fn counter(state: &ServeState, name: &str) -> u64 {
        state.telemetry().metrics().counter_value(name).unwrap()
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
        assert_eq!(counter(&state, metrics::SERVE_SOLVES), 1, "one grid call");
    }

    /// An entry of either family's cache is two key words and two solved
    /// words; a field that grows one fails here.
    #[test]
    fn a_solved_point_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<(PointKey, Solved)>(), 32);
    }

    /// Bus demand does not depend on the processor count, so one
    /// workload at two counts is one `(service, think)` key. A cache
    /// that ignored the machine would serve one count's point for the
    /// other; each machine must get an entry and bits of its own.
    #[test]
    fn one_workload_on_two_machines_gets_each_machines_own_bits() {
        let query = |interconnect: &str, size: &str, n: u32, scheme: &str| {
            format!(
                r#"{{"scheme":"{scheme}","machine":{{"interconnect":"{interconnect}","{size}":{n}}},"workload":{{"shd":0.1}}}}"#
            )
        };
        for ((p1, p2), (s1, s2)) in [((4, 16), (4, 6)), ((16, 4), (6, 4))] {
            for compact in [false, true] {
                let state = state();
                let queries = [
                    query("bus", "processors", p1, "dragon"),
                    query("bus", "processors", p2, "dragon"),
                    query("network", "stages", s1, "software-flush"),
                    query("network", "stages", s2, "software-flush"),
                ];
                let line = format!(
                    r#"{{"compact":{compact},"queries":[{}]}}"#,
                    queries.join(",")
                );
                let parsed_batch = batch(&line);
                let response = run_batch(&state, &parsed_batch).unwrap();
                let parsed: serde::Value = serde_json::from_str(&response).unwrap();
                for (qi, query) in parsed_batch.queries.iter().enumerate() {
                    let workload = &query.workloads[0];
                    let want: Vec<(&str, f64)> = match query.machine {
                        Machine::Bus { processors } => {
                            let d = analyze_bus(
                                query.scheme,
                                workload,
                                &BusSystemModel::new(),
                                processors,
                            )
                            .unwrap();
                            vec![
                                ("power", d.power()),
                                ("utilization", d.utilization()),
                                ("cpi", d.cycles_per_instruction()),
                                ("waiting", d.waiting()),
                                ("bus_utilization", d.bus_utilization()),
                            ]
                        }
                        Machine::Network { stages } => {
                            let demand = scheme_demand(
                                query.scheme,
                                workload,
                                &NetworkSystemModel::new(stages),
                            )
                            .unwrap();
                            let solved = BatchPatelSolver::new()
                                .solve_grid(
                                    &[demand.transaction_rate()],
                                    &[demand.transaction_size()],
                                    &Stages::Uniform(stages),
                                    None,
                                )
                                .unwrap();
                            let point = solved.points()[0];
                            let d = NetworkPerformance::from_operating_point(
                                query.scheme,
                                stages,
                                demand,
                                point,
                            );
                            vec![
                                ("power", d.power()),
                                ("utilization", d.utilization()),
                                ("think_fraction", point.think_fraction()),
                                ("accepted_rate", point.accepted_rate()),
                            ]
                        }
                    };
                    let result = parsed
                        .get_field("results")
                        .and_then(|r| r.get_index(qi))
                        .unwrap();
                    let served = |field: &str| {
                        let value = if compact {
                            assert_eq!(field, "power");
                            result.get_field("values").and_then(|v| v.get_index(0))
                        } else {
                            result
                                .get_field("points")
                                .and_then(|p| p.get_index(0))
                                .and_then(|p| p.get_field(field))
                        };
                        value.and_then(serde::Value::as_f64).unwrap().to_bits()
                    };
                    let checked = if compact { &want[..1] } else { &want[..] };
                    for (field, want) in checked {
                        assert_eq!(
                            served(field),
                            want.to_bits(),
                            "query {qi} ({:?}) {field}, compact {compact}",
                            query.machine
                        );
                    }
                }
                let stats: serde::Value = serde_json::from_str(&state.stats_response()).unwrap();
                let entries = stats
                    .get_field("stats")
                    .and_then(|s| s.get_field("cache"))
                    .and_then(|c| c.get_field("entries"))
                    .and_then(serde::Value::as_u64);
                assert_eq!(entries, Some(4), "one entry per machine");
            }
        }
    }

    /// Base ignores `shd`, so its compact `shd` sweep is one run of
    /// identical points, formatted once and repeated; beside a Dragon
    /// sweep whose points all differ, every value must still read back
    /// as the direct call's bits.
    #[test]
    fn compact_runs_of_identical_points_read_back_as_direct_calls() {
        let state = state();
        let sweep = r#""sweep":{"param":"shd","from":0.05,"to":0.2,"points":5}"#;
        let bus = r#""machine":{"interconnect":"bus","processors":8}"#;
        let net = r#""machine":{"interconnect":"network","stages":6}"#;
        let line = format!(
            r#"{{"compact":true,"queries":[{{"scheme":"base",{bus},{sweep}}},{{"kind":"penalty","scheme":"base",{bus},{sweep}}},{{"scheme":"dragon",{bus},{sweep}}},{{"scheme":"base",{net},{sweep}}}]}}"#
        );
        let parsed_batch = batch(&line);
        let response = run_batch(&state, &parsed_batch).unwrap();
        let parsed: serde::Value = serde_json::from_str(&response).unwrap();
        let mut distinct = Vec::new();
        for (qi, query) in parsed_batch.queries.iter().enumerate() {
            let values = parsed
                .get_field("results")
                .and_then(|r| r.get_index(qi))
                .and_then(|q| q.get_field("values"))
                .and_then(serde::Value::as_array)
                .unwrap();
            assert_eq!(values.len(), query.workloads.len());
            let mut bits: Vec<u64> = Vec::new();
            for (j, (served, w)) in values.iter().zip(&query.workloads).enumerate() {
                let want = match query.machine {
                    Machine::Bus { processors } => {
                        let d = analyze_bus(query.scheme, w, &BusSystemModel::new(), processors)
                            .unwrap();
                        match query.kind {
                            QueryKind::Penalty => d.waiting(),
                            _ => d.power(),
                        }
                    }
                    Machine::Network { stages } => {
                        analyze_network(query.scheme, w, stages).unwrap().power()
                    }
                };
                let got = served.as_f64().unwrap().to_bits();
                assert_eq!(got, want.to_bits(), "query {qi} point {j}");
                bits.push(got);
            }
            bits.dedup();
            distinct.push(bits.len());
        }
        assert_eq!(distinct, [1, 1, 5, 1], "distinct values per query");
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
        assert_eq!(counter(&state, metrics::SERVE_SOLVES), 1);
        let entries = state.bus_points.len() as u64;
        assert_eq!(counter(&state, metrics::SERVE_SOLVE_LANES), entries);
        assert!(entries >= 64, "at least one full sweep of distinct keys");
    }

    #[test]
    fn duplicate_points_within_a_request_coalesce_on_our_own_claim() {
        let state = state();
        // points=3 over a zero-width sweep: three identical workloads.
        let line = r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.1,"to":0.1,"points":3}}]}"#;
        let response = run_batch(&state, &batch(line)).unwrap();
        assert!(response.contains("\"ok\":true"));
        assert_eq!(counter(&state, metrics::SERVE_SOLVE_LANES), 1);
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

    /// A retry's claim joins its group's `ClaimSet`, so a solver error
    /// or an unwind while the claim is held releases it like the first
    /// admission's claims.
    #[test]
    fn a_retry_claim_is_released_when_its_solve_panics_or_fails() {
        let state = state();
        let machine = Machine::Bus { processors: 4 };
        let cache = state.cache(machine).unwrap();
        let (demand, _) = demand_of(
            machine,
            Scheme::Base,
            &WorkloadParams::at_level(Level::Middle),
            &BusSystemModel::new(),
        )
        .unwrap();
        // A key the MVA input check rejects: a NaN service time.
        let key = PointKey {
            service: f64::NAN.to_bits(),
            think: demand.think_time().to_bits(),
        };
        for unwinds in [false, true] {
            // Another request claims the point, this one's lane attaches
            // to the claim, and the owner aborts: the flight is lost.
            assert!(matches!(cache.begin(key), Admission::Claimed));
            let Admission::Shared(flight) = cache.begin(key) else {
                panic!("expected to share the claim");
            };
            cache.abort(&key);
            let mut group = Group {
                machine,
                lanes: vec![Lane {
                    key,
                    demand,
                    state: LaneState::Wait(flight),
                }],
                claims: ClaimSet::new(cache),
            };
            let settled = catch_unwind(AssertUnwindSafe(|| {
                let mut trace = RequestTrace::default();
                if unwinds {
                    // The group's own steps up to the retry's claim,
                    // then an unwind while it is held.
                    assert_eq!(resolve(&state, &mut group, Instant::now(), &mut 0.0), Ok(1));
                    admit(&mut group, &mut trace);
                    assert!(group.claims.owns(&key), "the retry claimed the point");
                    panic!("solver exploded");
                }
                settle(&state, std::slice::from_mut(&mut group), &mut trace)
            }));
            drop(group);
            match settled {
                Ok(Err(e)) => assert!(!unwinds && e.starts_with("bus solve failed"), "{e}"),
                Err(_) => assert!(unwinds),
                Ok(Ok(())) => panic!("a NaN service time solved"),
            }
            // The retry's claim was released, so the next caller claims
            // the point instead of waiting on an orphaned claim.
            assert!(matches!(cache.begin(key), Admission::Claimed));
            cache.abort(&key);
        }
    }

    /// A flight lost twice (another request's claim never published)
    /// is an error, and both of its admissions and both waits are
    /// counted alike by the cache, the registry and the histogram.
    #[test]
    fn a_lost_flight_is_counted_once_everywhere() {
        let state = ServeState::new(&ServeConfig {
            solve_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let machine = Machine::Bus { processors: 4 };
        let (_, key) = demand_of(
            machine,
            Scheme::Base,
            &WorkloadParams::at_level(Level::Middle),
            &BusSystemModel::new(),
        )
        .unwrap();
        let cache = state.cache(machine).unwrap();
        assert!(matches!(cache.begin(key), Admission::Claimed));
        let before = cache.stats();
        let line =
            r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#;
        let (response, _) = handle_request(&state, line);
        assert!(
            response.contains("timed out waiting for an in-flight solve"),
            "{response}"
        );
        let after = cache.stats();
        for (delta, name) in [
            (after.hits - before.hits, metrics::SERVE_CACHE_HITS),
            (after.misses - before.misses, metrics::SERVE_CACHE_MISSES),
            (
                after.coalesced - before.coalesced,
                metrics::SERVE_CACHE_COALESCED,
            ),
        ] {
            assert_eq!(delta, counter(&state, name), "{name}");
        }
        assert_eq!(after.coalesced - before.coalesced, 2);
        let waits = state
            .telemetry()
            .metrics()
            .histogram(metrics::SERVE_FLIGHT_WAIT_US)
            .unwrap()
            .count();
        assert_eq!(waits, 2, "both waits observed");
        cache.abort(&key);
    }

    /// An owner that never publishes costs a request waiting on it one
    /// solve timeout per round, not one per lane that waits on it.
    #[test]
    fn stuck_lanes_share_one_timeout_per_round() {
        let timeout = Duration::from_millis(200);
        let state = ServeState::new(&ServeConfig {
            solve_timeout: timeout,
            ..ServeConfig::default()
        });
        let line = r#"{"queries":[{"scheme":"dragon","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.01,"to":0.3,"points":8}}]}"#;
        let machine = Machine::Bus { processors: 4 };
        let cache = state.cache(machine).unwrap();
        for workload in &batch(line).queries[0].workloads {
            let (_, key) =
                demand_of(machine, Scheme::Dragon, workload, &BusSystemModel::new()).unwrap();
            assert!(matches!(cache.begin(key), Admission::Claimed));
        }
        let started = Instant::now();
        let (response, _) = handle_request(&state, line);
        let took = started.elapsed();
        assert!(
            response.contains("timed out waiting for an in-flight solve"),
            "{response}"
        );
        // Two rounds of one timeout each; a timeout per lane would be 16.
        assert!(took < timeout * 4, "{took:?}");
        assert_eq!(counter(&state, metrics::SERVE_CACHE_COALESCED), 16);
    }

    /// Each machine a request names is one solver call, whatever its
    /// family: two bus machines and two networks are four calls.
    #[test]
    fn each_machine_is_one_solver_call() {
        let state = state();
        let query = |scheme: &str, machine: &str| {
            format!(
                r#"{{"scheme":"{scheme}","machine":{machine},"sweep":{{"param":"shd","from":0.01,"to":0.3,"points":16}}}}"#
            )
        };
        let queries = [
            query("dragon", r#"{"interconnect":"bus","processors":4}"#),
            query("dragon", r#"{"interconnect":"bus","processors":16}"#),
            query("software-flush", r#"{"interconnect":"network","stages":4}"#),
            query("software-flush", r#"{"interconnect":"network","stages":6}"#),
        ];
        let line = format!(r#"{{"compact":true,"queries":[{}]}}"#, queries.join(","));
        run_batch(&state, &batch(&line)).unwrap();
        assert_eq!(counter(&state, metrics::SERVE_SOLVES), 4);
        assert_eq!(counter(&state, metrics::SERVE_SOLVE_LANES), 64);
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
        assert_eq!(counter(&state, metrics::SERVE_ERRORS), 1);
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
    fn a_machine_without_a_cache_slot_is_an_error_not_a_panic() {
        // The parser refuses these machines; a batch built in code
        // reaches the engine with them, which must answer, not index
        // past its table of per-machine caches.
        let state = state();
        for machine in [
            Machine::Bus { processors: 0 },
            Machine::Bus {
                processors: MAX_BUS_PROCESSORS + 1,
            },
            Machine::Network { stages: 0 },
            Machine::Network {
                stages: MAX_NETWORK_STAGES + 1,
            },
        ] {
            let batch = Batch {
                id: None,
                request: None,
                compact: true,
                queries: vec![Query {
                    kind: QueryKind::Power,
                    scheme: Scheme::Base,
                    machine,
                    workloads: vec![WorkloadParams::at_level(Level::Middle)],
                    sweep_values: Vec::new(),
                }],
            };
            let err = run_batch(&state, &batch).unwrap_err();
            assert!(err.contains("query 0: \""), "{machine:?}: {err}");
            assert!(err.contains("must be between 1 and"), "{machine:?}: {err}");
        }
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

    /// Every count `stats` reports is the registry's: a default server
    /// (no registry passed) keeps its own, and `telemetry`'s
    /// `cumulative` section shows the same numbers.
    #[test]
    fn stats_and_cumulative_read_the_same_counters() {
        let state = state();
        let bus = |sweep: &str| {
            format!(
                r#"{{"queries":[{{"scheme":"dragon","machine":{{"interconnect":"bus","processors":8}},"sweep":{sweep}}}]}}"#
            )
        };
        let lines = [
            // Three identical points: one miss, two coalesced.
            bus(r#"{"param":"shd","from":0.1,"to":0.1,"points":3}"#),
            bus(r#"{"param":"shd","from":0.05,"to":0.2,"points":5}"#),
            r#"{"queries":[{"scheme":"base","machine":{"interconnect":"network","stages":4}}]}"#
                .to_string(),
            "{not json".to_string(),
            bus(r#"{"param":"shd","from":0.1,"to":0.2,"points":0}"#),
            r#"{"cmd":"ping"}"#.to_string(),
            r#"{"cmd":"stats"}"#.to_string(),
            r#"{"cmd":"telemetry"}"#.to_string(),
        ];
        let mut failed = 0;
        for line in &lines {
            let (response, _) = handle_request(&state, line);
            failed += u64::from(!response.starts_with("{\"ok\":true"));
        }
        assert_eq!(failed, 2, "the malformed line and the zero-point sweep");

        let value = |text: &str| serde_json::from_str::<serde::Value>(text).unwrap();
        let stats = value(&state.stats_response());
        let telemetry = value(&state.telemetry_response(TelemetryFormat::Json));
        let stats = stats.get_field("stats").unwrap();
        let cumulative = telemetry
            .get_field("cumulative")
            .and_then(|c| c.get_field("counters"))
            .expect("a default server reports its own registry");
        let read = |v: &serde::Value, path: &[&str]| {
            path.iter()
                .try_fold(v, |v, k| v.get_field(k))
                .and_then(serde::Value::as_u64)
                .unwrap_or_else(|| panic!("no {path:?}"))
        };
        for (field, name) in [
            (&["requests"][..], metrics::SERVE_REQUESTS),
            (&["queries"], metrics::SERVE_QUERIES),
            (&["errors"], metrics::SERVE_ERRORS),
            (&["connections"], metrics::SERVE_CONNECTIONS),
            (&["solves"], metrics::SERVE_SOLVES),
            (&["solve_lanes"], metrics::SERVE_SOLVE_LANES),
            (&["cache", "hits"], metrics::SERVE_CACHE_HITS),
            (&["cache", "misses"], metrics::SERVE_CACHE_MISSES),
            (&["cache", "coalesced"], metrics::SERVE_CACHE_COALESCED),
        ] {
            assert_eq!(read(stats, field), read(cumulative, &[name]), "{name}");
        }
        // The counts are the mix's, not zeros that agree.
        assert_eq!(read(stats, &["requests"]), lines.len() as u64);
        assert_eq!(read(stats, &["errors"]), failed);
        assert_eq!(read(stats, &["queries"]), 3 + 5 + 1);
        assert_eq!(
            read(stats, &["solves"]),
            3,
            "two bus grids and one network batch"
        );
        assert_eq!(read(stats, &["cache", "coalesced"]), 2);
        assert_eq!(read(stats, &["connections"]), 0, "no socket was opened");
        assert_eq!(read(cumulative, &[metrics::SERVE_TELEMETRY_REQUESTS]), 1);
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

    /// A valid batch line: every proper prefix of it is malformed.
    const BATCH_LINE: &str = r#"{"id":3,"request":"r-3","compact":true,"queries":[{"kind":"power","scheme":"dragon","machine":{"interconnect":"bus","processors":8},"workload":{"shd":0.1},"sweep":{"param":"apl","from":1.0,"to":25.0,"points":4}}]}"#;

    /// Lines whose only fault is a present field of the wrong type.
    const WRONG_TYPED: &[&str] = &[
        r#"{"id":-1,"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#,
        r#"{"id":1.5,"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#,
        r#"{"compact":"true","queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#,
        r#"{"request":7,"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#,
        r#"{"cmd":"telemetry","slow":"yes"}"#,
    ];

    /// JSON-looking fragments: no command name and no query field, so
    /// no line built from them is a valid request.
    const SOUP: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        " ",
        "\\",
        "\\u00",
        "0",
        "-1",
        "1.5",
        "1e999",
        "true",
        "null",
        "\"queries\"",
        "\"id\"",
        "\"compact\"",
        "\"cmd\"",
        "\"x\"",
    ];

    /// Sends `line` through `handle_request` and asserts one JSON error
    /// response: it parses, says `"ok":false`, and shuts nothing down.
    fn assert_rejected(state: &ServeState, line: &str) {
        let (response, shutdown) = handle_request(state, line);
        let parsed = serde_json::from_str::<serde::Value>(&response).unwrap_or_else(|e| {
            panic!("{line:?} got a response that is not JSON ({e}): {response}")
        });
        assert_eq!(
            parsed.get_field("ok").and_then(serde::Value::as_bool),
            Some(false),
            "{line:?} got {response}"
        );
        assert!(!shutdown, "{line:?} shut the server down");
    }

    /// The deterministic half of the hostile-line property below: every
    /// truncation of a valid line and every wrongly typed field.
    #[test]
    fn every_proper_prefix_and_every_wrong_type_is_rejected() {
        let state = state();
        let (response, _) = handle_request(&state, BATCH_LINE);
        assert!(response.starts_with("{\"ok\":true"), "{response}");
        for cut in 0..BATCH_LINE.len() {
            assert_rejected(&state, &BATCH_LINE[..cut]);
        }
        for line in WRONG_TYPED {
            assert_rejected(&state, line);
        }
    }

    /// Release builds (CI's `cargo test --release -p swcc-serve --lib`)
    /// run far more cases.
    const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 40_000 };

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(CASES))]

        #[test]
        fn hostile_lines_get_one_json_error_response(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..128),
            soup in proptest::collection::vec(0..SOUP.len(), 0..64),
            depth in 129usize..4096,
        ) {
            let state = state();
            assert_rejected(&state, &String::from_utf8_lossy(&bytes));
            let soup: String = soup.iter().map(|&i| SOUP[i]).collect();
            assert_rejected(&state, &soup);
            // Nesting past the JSON reader's 128 levels, bare and inside
            // an otherwise valid query.
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            assert_rejected(&state, &nested);
            let nested = format!(
                r#"{{"queries":[{{"scheme":"base","machine":{{"interconnect":"bus","processors":4}},"workload":{{"shd":{}0{}}}}}]}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            );
            assert_rejected(&state, &nested);
            proptest::prop_assert_eq!(counter(&state, metrics::SERVE_ERRORS), 4);
        }
    }
}
