//! `sim-validate`: the paper's validation method, point by point.
//!
//! Set-up synthesizes POPS-, THOR- and PERO-like traces at 2, 4 and 8
//! CPUs (with flush records for Software-Flush), afresh before every
//! round of the untraced pass, so `setup_s` samples the same stretch of
//! the run as the timings do. Each op is one
//! validation point: measure the Table 2 parameters from the trace,
//! simulate it, and evaluate the model at the measured parameters.
//! The simulated caches start empty at every op, as in `repro`.

use std::collections::BTreeMap;
use std::time::Instant;

use swcc_core::bus::analyze_bus;
use swcc_core::invalidate::bus_performance_invalidate;
use swcc_core::network::analyze_network;
use swcc_sim::measure::measure_workload;
use swcc_sim::{simulate, ProtocolKind, SimConfig, SimReport};
use swcc_trace::synth::{Preset, SynthConfig};
use swcc_trace::Trace;

use crate::report::{Pass, Report};
use crate::rng::{Digest, Rng};
use crate::spans::Recorder;
use crate::{alloc, RunConfig, DEFAULT_SEED};

/// Instructions per CPU in every synthesized trace.
const INSTRUCTIONS_PER_CPU: usize = 20_000;
/// Rounds per ten seconds of run; each round visits every matrix point
/// once, in its own seeded order.
const ROUNDS_PER_10S: usize = 4;
const CPUS: [u16; 3] = [2, 4, 8];
const CACHE_KIB: [u64; 3] = [16, 64, 256];
/// Digest of every validation point's simulated statistics at
/// [`DEFAULT_SEED`]: a change that only speeds up the host must leave
/// it unchanged.
const DEFAULT_SEED_DIGEST: u64 = 0x569a_ca73_dafb_ccd8;
/// The model must stay within this relative error of the simulator on
/// every point (the repository's validation tests allow up to 30% on
/// the bus; the network fabric is looser).
const POWER_REL_ERR_CEILING: f64 = 0.5;

/// One validation point of the matrix.
#[derive(Debug, Clone, Copy)]
struct Point {
    preset: Preset,
    cpus: u16,
    protocol: ProtocolKind,
    cache_kib: u64,
    /// `Some(stages)` on the network fabric, `None` on the bus.
    stages: Option<u32>,
}

impl Point {
    fn config(&self) -> SimConfig {
        let mut b = SimConfig::builder(self.protocol);
        b.cache_bytes(self.cache_kib * 1024);
        if let Some(stages) = self.stages {
            b.network(stages);
        }
        b.build()
    }

    /// The span of this point's simulation.
    fn simulate_span(&self) -> &'static str {
        let i = match self.stages {
            Some(_) => SIMULATE.len() - 1,
            None => ProtocolKind::ALL
                .iter()
                .position(|p| *p == self.protocol)
                .expect("every protocol is in ProtocolKind::ALL"),
        };
        SIMULATE[i].0
    }
}

/// Simulate spans and their per-layer metrics: the bus protocols in
/// `ProtocolKind::ALL` order, then the network fabric.
const SIMULATE: [(&str, &str); 6] = [
    ("sim.simulate.base", "sim.simulate_ns_per_record.base"),
    (
        "sim.simulate.no-cache",
        "sim.simulate_ns_per_record.no-cache",
    ),
    (
        "sim.simulate.software-flush",
        "sim.simulate_ns_per_record.software-flush",
    ),
    ("sim.simulate.dragon", "sim.simulate_ns_per_record.dragon"),
    (
        "sim.simulate.write-invalidate",
        "sim.simulate_ns_per_record.write-invalidate",
    ),
    ("sim.simulate.network", "sim.simulate_ns_per_record.network"),
];

/// The validation matrix in canonical order: every protocol at every
/// cache size on the bus, and the three non-snooping schemes on the 2-
/// and 3-stage network with 64 KiB caches.
fn matrix() -> Vec<Point> {
    let mut points = Vec::new();
    for preset in Preset::ALL {
        for cpus in CPUS {
            for protocol in ProtocolKind::ALL {
                for cache_kib in CACHE_KIB {
                    points.push(Point {
                        preset,
                        cpus,
                        protocol,
                        cache_kib,
                        stages: None,
                    });
                }
            }
        }
        for stages in [2u32, 3] {
            for protocol in [
                ProtocolKind::Base,
                ProtocolKind::NoCache,
                ProtocolKind::SoftwareFlush,
            ] {
                points.push(Point {
                    preset,
                    cpus: 1 << stages,
                    protocol,
                    cache_kib: 64,
                    stages: Some(stages),
                });
            }
        }
    }
    points
}

/// One trace per preset, CPU count, and flush variant.
struct Traces(Vec<(Preset, u16, bool, Trace)>);

impl Traces {
    fn get(&self, point: &Point) -> &Trace {
        let flushes = point.protocol.uses_flushes();
        &self
            .0
            .iter()
            .find(|(p, c, f, _)| *p == point.preset && *c == point.cpus && *f == flushes)
            .expect("set-up synthesizes every trace the matrix uses")
            .3
    }

    fn records(&self) -> u64 {
        self.0.iter().map(|t| t.3.len() as u64).sum()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (_, _, _, trace) in &self.0 {
            for a in trace {
                d.u64(u64::from(a.cpu.0) | (a.kind as u64) << 16);
                d.u64(a.addr.0);
            }
        }
        d.value()
    }
}

/// The preset's generator configuration with flush records switched
/// on. Presets expose no builder, so the switch goes through the
/// configuration's serialized form.
fn with_flushes(config: &SynthConfig) -> SynthConfig {
    let text = serde_json::to_string(config).expect("a synth config serializes");
    let flipped = text.replace("\"emit_flushes\":false", "\"emit_flushes\":true");
    let config: SynthConfig = serde_json::from_str(&flipped).expect("a synth config parses");
    assert!(config.emits_flushes(), "flush records switched on");
    config
}

fn synthesize(seed: u64, rec: &mut Recorder) -> Traces {
    let mut traces = Vec::new();
    for (i, preset) in Preset::ALL.into_iter().enumerate() {
        for cpus in CPUS {
            let trace_seed = Rng::new(seed, 100 + 10 * i as u64 + u64::from(cpus)).next_u64();
            let plain = preset.config(cpus, INSTRUCTIONS_PER_CPU, trace_seed);
            let flushing = with_flushes(&plain);
            for (flushes, config) in [(false, plain), (true, flushing)] {
                let trace = rec.time("trace.synth", || config.generate());
                traces.push((preset, cpus, flushes, trace));
            }
        }
    }
    Traces(traces)
}

/// The integer statistics of one simulation, folded into a digest.
fn report_digest(index: usize, r: &SimReport) -> u64 {
    let mut d = Digest::default();
    for v in [
        index as u64,
        r.instructions(),
        r.data_refs(),
        r.data_misses(),
        r.instr_misses(),
        r.invalidations(),
        r.updates(),
        r.broadcasts(),
        r.write_backs(),
        r.fills(),
        r.bus_transactions(),
        r.clean_flushes(),
        r.dirty_flushes(),
        r.read_throughs(),
        r.write_throughs(),
        r.cycle_steals(),
        r.contention_cycles(),
        r.makespan(),
    ] {
        d.u64(v);
    }
    d.value()
}

/// What one pass over the op list produced.
struct Outcome {
    pass: Pass,
    /// Digest of each matrix point's statistics, once simulated.
    point_digests: Vec<Option<u64>>,
    /// Records simulated under each simulate span.
    records_by_span: BTreeMap<&'static str, u64>,
    worst_err: f64,
    /// Simulated event totals over the first round (one visit to every
    /// matrix point), in `sim.count.*` order.
    counts: [u64; 7],
    problems: Vec<String>,
}

/// Runs one validation point: measure, simulate, model.
fn run_op(
    out: &mut Outcome,
    op: u32,
    index: usize,
    point: &Point,
    traces: &Traces,
    rec: &mut Recorder,
    count_events: bool,
) {
    let trace = traces.get(point);
    let config = point.config();
    let cpus = u32::from(point.cpus);
    rec.set_op(op);
    let started = Instant::now();
    let span = rec.open("op");
    let workload = rec.time("sim.measure", || measure_workload(trace, &config));
    let report = rec.time(point.simulate_span(), || simulate(trace, &config));
    let model = rec.time("model.validate", || {
        match (point.stages, point.protocol.scheme()) {
            (Some(stages), Some(scheme)) => {
                analyze_network(scheme, &workload, stages).map(|p| p.power())
            }
            (None, Some(scheme)) => {
                analyze_bus(scheme, &workload, config.system(), cpus).map(|p| p.power())
            }
            (_, None) => {
                bus_performance_invalidate(&workload, config.system(), cpus).map(|p| p.power())
            }
        }
    });
    rec.close(span);
    out.pass.op_ns.push(started.elapsed().as_nanos() as u64);
    out.pass.items += trace.len() as u64;
    *out.records_by_span
        .entry(point.simulate_span())
        .or_default() += trace.len() as u64;

    if report.accesses() != trace.len() as u64 {
        out.problems.push(format!(
            "point {index} accounts for {} of {} records",
            report.accesses(),
            trace.len()
        ));
    }
    let digest = report_digest(index, &report);
    match out.point_digests[index] {
        Some(earlier) if earlier != digest => out
            .problems
            .push(format!("point {index} differs between passes over it")),
        _ => out.point_digests[index] = Some(digest),
    }
    match model {
        Ok(power) => {
            let err = (power - report.power()).abs() / report.power();
            out.worst_err = out.worst_err.max(err);
        }
        Err(e) => {
            out.pass.failed += 1;
            out.problems.push(format!("point {index}: model error {e}"));
        }
    }
    if count_events {
        for (total, v) in out.counts.iter_mut().zip([
            report.bus_transactions(),
            report.invalidations(),
            report.updates(),
            report.write_backs(),
            report.fills(),
            report.clean_flushes() + report.dirty_flushes(),
            report.makespan(),
        ]) {
            *total += v;
        }
    }
}

/// Runs every round, calling `before_round` first in each.
fn run_pass(
    rounds: &[Vec<usize>],
    points: &[Point],
    traces: &mut Traces,
    rec: &mut Recorder,
    before_round: &mut dyn FnMut(&mut Traces),
) -> Outcome {
    let mut out = Outcome {
        pass: Pass::default(),
        point_digests: vec![None; points.len()],
        records_by_span: BTreeMap::new(),
        worst_err: 0.0,
        counts: [0; 7],
        problems: Vec::new(),
    };
    let mut op = 0u32;
    for (round, order) in rounds.iter().enumerate() {
        before_round(traces);
        for &index in order {
            run_op(&mut out, op, index, &points[index], traces, rec, round == 0);
            op += 1;
        }
        out.pass.end_round();
    }
    let mut d = Digest::default();
    for digest in out.point_digests.iter().flatten() {
        d.u64(*digest);
    }
    out.pass.digest = d.value();
    out
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) {
    let points = matrix();
    let mut rng = Rng::new(cfg.seed, 1);
    let rounds: Vec<Vec<usize>> = (0..cfg.rounds(ROUNDS_PER_10S))
        .map(|_| {
            let mut order: Vec<usize> = (0..points.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();

    let mut synth_rec = Recorder::new(cfg.trace);
    let mut traces = Traces(Vec::new());
    let mut digests = Vec::new();
    alloc::reset_peak();
    let untraced = run_pass(
        &rounds,
        &points,
        &mut traces,
        &mut Recorder::new(false),
        &mut |traces| {
            // Drop the old traces first, so two sets are never live.
            *traces = Traces(Vec::new());
            *traces = report.time_setup(|| synthesize(cfg.seed, &mut synth_rec));
            digests.push(traces.digest());
        },
    );
    report.peak_heap_bytes = alloc::peak_bytes();
    report.check(
        "synthesized traces identical across set-up repeats",
        digests.iter().all(|d| *d == digests[0]),
        format!("digest {:016x}", digests[0]),
    );
    report.count_ops(&untraced.pass);
    check_outcome(report, &untraced, cfg.seed);

    if cfg.trace {
        let mut rec = Recorder::new(true);
        let traced = run_pass(&rounds, &points, &mut traces, &mut rec, &mut |_| {});
        report.count_ops(&traced.pass);
        report.check(
            "sim digest identical in the traced and untraced passes",
            traced.pass.digest == untraced.pass.digest,
            format!(
                "{:016x} vs {:016x}",
                traced.pass.digest, untraced.pass.digest
            ),
        );
        layers(report, &synth_rec, &traces, &rec, &traced);
        report.layer(
            "trace.overhead_pct",
            (untraced.pass.items_per_s() / traced.pass.items_per_s() - 1.0) * 100.0,
            traced.pass.op_ns.len(),
        );
        crate::report::write_spans(&rec, "sim-validate", cfg.seed);
    }
    report.info(
        "power_rel_err_max",
        untraced.worst_err,
        "ratio",
        untraced.pass.op_ns.len(),
    );
    report.pass = untraced.pass;
}

fn check_outcome(report: &mut Report, o: &Outcome, seed: u64) {
    report.check(
        "every SimReport accounts for every trace record; repeats agree; no model errors",
        o.problems.is_empty(),
        if o.problems.is_empty() {
            format!(
                "{} ops, sim digest {:016x}",
                o.pass.op_ns.len(),
                o.pass.digest
            )
        } else {
            o.problems.join("; ")
        },
    );
    report.check(
        "model within the relative-error ceiling of the simulator",
        o.worst_err <= POWER_REL_ERR_CEILING,
        format!("worst {:.4}, ceiling {POWER_REL_ERR_CEILING}", o.worst_err),
    );
    if seed == DEFAULT_SEED && o.point_digests.iter().all(Option::is_some) {
        report.check(
            "sim digest equals the recorded default-seed digest",
            o.pass.digest == DEFAULT_SEED_DIGEST,
            format!(
                "{:016x} vs recorded {DEFAULT_SEED_DIGEST:016x}",
                o.pass.digest
            ),
        );
    }
}

fn layers(report: &mut Report, synth: &Recorder, traces: &Traces, rec: &Recorder, o: &Outcome) {
    let synth = synth.totals();
    let repeats = o.pass.round_count() as u64;
    report.layer(
        "trace.synth_ns_per_record",
        synth.ns("trace.synth") / (traces.records() * repeats) as f64,
        synth.calls("trace.synth"),
    );
    let totals = rec.totals();
    report.layer(
        "sim.measure_ns_per_record",
        totals.ns("sim.measure") / o.pass.items as f64,
        totals.calls("sim.measure"),
    );
    for (span, metric) in SIMULATE {
        if let Some(&records) = o.records_by_span.get(span) {
            report.layer(metric, totals.ns(span) / records as f64, totals.calls(span));
        }
    }
    let n = o.pass.op_ns.len() / o.pass.round_count();
    for (metric, v) in [
        "sim.count.bus_transactions",
        "sim.count.invalidations",
        "sim.count.updates",
        "sim.count.write_backs",
        "sim.count.fills",
        "sim.count.flushes",
        "sim.count.makespan_cycles",
    ]
    .into_iter()
    .zip(o.counts)
    {
        report.layer(metric, v as f64, n);
    }
    report.layer(
        "model.validate_us_per_point",
        totals.ns("model.validate") / 1e3 / totals.calls("model.validate") as f64,
        totals.calls("model.validate"),
    );
    report.layer("model.power_rel_err_max", o.worst_err, n);
    report.composition(&totals);
}
