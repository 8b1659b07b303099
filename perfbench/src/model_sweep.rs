//! `model-sweep`: the analytical model alone, one seeded Table 7 design
//! point per op.
//!
//! Each op calls every model entry point the experiments use: bus
//! sweeps for the four schemes up to 64 CPUs, network power curves,
//! scalar network analyses, a sensitivity table, directory analyses,
//! and one lockstep grid each of the batch Patel and MVA solvers.

use std::time::Instant;

use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver, Stages};
use swcc_core::bus::{analyze_bus, analyze_bus_sweep};
use swcc_core::demand::scheme_demand;
use swcc_core::directory::analyze_directory;
use swcc_core::network::{analyze_network, network_power_curve, NetworkPerformance};
use swcc_core::scheme::Scheme;
use swcc_core::sensitivity::sensitivity_table_at;
use swcc_core::system::{BusSystemModel, NetworkSystemModel};
use swcc_core::workload::{Level, ParamId, WorkloadParams, TABLE7_RANGES};
use swcc_core::Result;

use crate::report::{Pass, Report};
use crate::rng::{Digest, Rng};
use crate::spans::Recorder;
use crate::{alloc, RunConfig, DEFAULT_SEED};

/// Ops per ten seconds of run, in [`ROUNDS_PER_10S`] equal rounds.
const OPS_PER_10S: usize = 28_000;
const ROUNDS_PER_10S: usize = 5;
/// Ops in the discarded warm-up pass that precedes every round of the
/// untraced pass; `setup_s` is the median of these passes.
const WARMUP_OPS: usize = 1_000;
const MAX_BUS_CPUS: u32 = 64;
const MAX_STAGES: u32 = 8;
const SCALAR_STAGES: [u32; 4] = [2, 4, 6, 8];
const NETWORK_SCHEMES: [Scheme; 3] = [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush];
const PROCESSORS: [u32; 5] = [4, 8, 16, 32, 64];
/// `apl` values per scheme and stage count in the batch Patel grid, and
/// per scheme in the MVA grid.
const PATEL_APL_STEPS: usize = 8;
const MVA_APL_STEPS: usize = 16;
/// Network answers of different solvers (bisection, warm Newton, batch
/// Newton) agree within this relative tolerance on power.
const NETWORK_AGREEMENT: f64 = 1e-9;
/// Scalar `analyze_network` power of the first op at [`DEFAULT_SEED`]
/// for Base, No-Cache and Software-Flush at 2, 4, 6 and 8 stages. The
/// solver may move these within its 1e-13 tolerance, never beyond
/// [`NETWORK_AGREEMENT`].
const DEFAULT_SEED_NETWORK_POWER: [f64; 12] = [
    3.5660926588161033,
    13.6918529265374,
    52.0627143046729,
    195.03316349956623,
    2.0417038087098387,
    5.444571255495295,
    14.414620059204369,
    39.87793718602669,
    3.106848088374485,
    11.227408711207305,
    39.181028244267104,
    131.4687355787884,
];

/// A uniformly random Table 7 design point.
fn design_point(rng: &mut Rng) -> Result<WorkloadParams> {
    let mut w = WorkloadParams::at_level(Level::Middle);
    for id in ParamId::ALL {
        let r = TABLE7_RANGES.range(id);
        w = w.with_param(id, rng.range(r.low.min(r.high), r.low.max(r.high)))?;
    }
    Ok(w)
}

/// One op's inputs.
struct Op {
    workload: WorkloadParams,
    processors: u32,
}

fn ops(seed: u64, stream: u64, n: usize) -> Result<Vec<Op>> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            Ok(Op {
                workload: design_point(&mut rng)?,
                processors: rng.pick(&PROCESSORS),
            })
        })
        .collect()
}

/// Everything one op computed that the checks and digest read.
struct Answers {
    points: u64,
    bus_sweeps: Vec<Vec<f64>>,
    curves: Vec<Vec<f64>>,
    scalar: Vec<f64>,
    /// Batch Patel power at the op's own `apl`, per scheme and stage
    /// count 1..=8.
    batch_own_apl: Vec<f64>,
    patel_lanes: u64,
    patel_iterations: u64,
    mva_lanes: u64,
    digest: u64,
}

fn apl_steps(w: &WorkloadParams, steps: usize) -> Vec<f64> {
    // The op's own apl first, then an even spread over Table 7's range.
    let mut v = vec![w.apl()];
    v.extend((1..steps).map(|k| 1.0 + 24.0 * (k - 1) as f64 / (steps - 2) as f64));
    v
}

fn run_op(op: &Op, rec: &mut Recorder) -> Result<Answers> {
    let w = &op.workload;
    let bus = BusSystemModel::new();
    let mut d = Digest::default();
    let mut points = 0u64;

    let mut bus_sweeps = Vec::new();
    for scheme in Scheme::ALL {
        let sweep = rec.time("model.bus_sweep", || {
            analyze_bus_sweep(scheme, w, &bus, MAX_BUS_CPUS)
        })?;
        points += sweep.len() as u64;
        bus_sweeps.push(sweep.iter().map(|p| p.power()).collect::<Vec<_>>());
    }

    let mut curves = Vec::new();
    for scheme in NETWORK_SCHEMES {
        let curve = rec.time("model.network_curve", || {
            network_power_curve(scheme, w, MAX_STAGES)
        })?;
        points += curve.len() as u64;
        curves.push(curve.iter().map(|p| p.power()).collect::<Vec<_>>());
    }

    let mut scalar = Vec::new();
    for scheme in NETWORK_SCHEMES {
        for stages in SCALAR_STAGES {
            let perf = rec.time("model.analyze_network", || {
                analyze_network(scheme, w, stages)
            })?;
            scalar.push(perf.power());
        }
    }
    points += scalar.len() as u64;

    let table = rec.time("model.sensitivity_table", || {
        sensitivity_table_at(op.processors, w)
    })?;
    points += table.cells().len() as u64;
    for cell in table.cells() {
        d.u64(cell.time_low.to_bits());
        d.u64(cell.time_high.to_bits());
    }

    for stages in 1..=MAX_STAGES {
        let dir = rec.time("model.directory", || analyze_directory(w, stages))?;
        d.u64(dir.power().to_bits());
        points += 1;
    }

    let lanes = rec.time("model.demand", || {
        let mut lanes = Vec::new();
        for scheme in NETWORK_SCHEMES {
            for stages in 1..=MAX_STAGES {
                let system = NetworkSystemModel::new(stages);
                for apl in apl_steps(w, PATEL_APL_STEPS) {
                    let w = w.with_param(ParamId::Apl, apl)?;
                    lanes.push((scheme, stages, scheme_demand(scheme, &w, &system)?));
                }
            }
        }
        Result::Ok(lanes)
    })?;
    let rates: Vec<f64> = lanes.iter().map(|l| l.2.transaction_rate()).collect();
    let sizes: Vec<f64> = lanes.iter().map(|l| l.2.transaction_size()).collect();
    let stage_counts: Vec<u32> = lanes.iter().map(|l| l.1).collect();
    let solution = rec.time("model.batch_patel", || {
        BatchPatelSolver::new().solve_grid(&rates, &sizes, &Stages::PerLane(&stage_counts), None)
    })?;
    let patel_lanes = solution.len() as u64;
    points += patel_lanes;
    let mut batch_own_apl = Vec::new();
    for (i, (&(scheme, stages, demand), &point)) in lanes.iter().zip(solution.points()).enumerate()
    {
        d.u64(point.think_fraction().to_bits());
        if i % PATEL_APL_STEPS == 0 {
            batch_own_apl.push(
                NetworkPerformance::from_operating_point(scheme, stages, demand, point).power(),
            );
        }
    }

    let demands = rec.time("model.demand", || {
        let mut demands = Vec::new();
        for scheme in Scheme::ALL {
            for apl in apl_steps(w, MVA_APL_STEPS) {
                let w = w.with_param(ParamId::Apl, apl)?;
                demands.push(scheme_demand(scheme, &w, &bus)?);
            }
        }
        Result::Ok(demands)
    })?;
    let services: Vec<f64> = demands.iter().map(|d| d.interconnect()).collect();
    let thinks: Vec<f64> = demands.iter().map(|d| d.think_time()).collect();
    let grid = rec.time("model.mva_grid", || {
        machine_repairman_grid(op.processors, &services, &thinks)
    })?;
    let mva_lanes = grid.len() as u64;
    points += mva_lanes;
    for mva in &grid {
        d.u64(mva.waiting().to_bits());
    }

    for v in bus_sweeps.iter().chain(&curves).flatten().chain(&scalar) {
        d.u64(v.to_bits());
    }
    Ok(Answers {
        points,
        bus_sweeps,
        curves,
        scalar,
        batch_own_apl,
        patel_lanes,
        patel_iterations: solution.total_iterations(),
        mva_lanes,
        digest: d.value(),
    })
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Checks one op's answers against the pointwise and cross-solver
/// references; returns the problems found.
fn check_op(op: &Op, a: &Answers, rng: &mut Rng) -> Result<Vec<String>> {
    let mut problems = Vec::new();
    let bus = BusSystemModel::new();
    for (scheme, sweep) in Scheme::ALL.into_iter().zip(&a.bus_sweeps) {
        let n = 1 + rng.below(MAX_BUS_CPUS as usize);
        let pointwise = analyze_bus(scheme, &op.workload, &bus, n as u32)?.power();
        if pointwise.to_bits() != sweep[n - 1].to_bits() {
            problems.push(format!(
                "{scheme} bus sweep at {n} cpus: {} vs pointwise {pointwise}",
                sweep[n - 1]
            ));
        }
    }
    for (s, scheme) in NETWORK_SCHEMES.into_iter().enumerate() {
        for (k, stages) in SCALAR_STAGES.into_iter().enumerate() {
            let scalar = a.scalar[s * SCALAR_STAGES.len() + k];
            let curve = a.curves[s][stages as usize];
            let batch = a.batch_own_apl[s * MAX_STAGES as usize + stages as usize - 1];
            if rel(curve, scalar) > NETWORK_AGREEMENT || rel(batch, scalar) > NETWORK_AGREEMENT {
                problems.push(format!(
                    "{scheme} network at {stages} stages: scalar {scalar}, curve {curve}, batch {batch}"
                ));
            }
        }
    }
    Ok(problems)
}

/// What one pass over the op list produced.
struct Outcome {
    pass: Pass,
    problems: Vec<String>,
    first_scalar: Vec<f64>,
    patel_lanes: u64,
    patel_iterations: u64,
    mva_lanes: u64,
    bus_sweep_points: u64,
}

/// Runs `ops` in rounds of `per_round`, calling `before_round` first in
/// each.
fn run_pass(
    ops: &[Op],
    per_round: usize,
    seed: u64,
    rec: &mut Recorder,
    before_round: &mut dyn FnMut(),
) -> Outcome {
    let mut out = Outcome {
        pass: Pass::default(),
        problems: Vec::new(),
        first_scalar: Vec::new(),
        patel_lanes: 0,
        patel_iterations: 0,
        mva_lanes: 0,
        bus_sweep_points: 0,
    };
    let mut check_rng = Rng::new(seed, 4);
    let mut digest = Digest::default();
    for (i, op) in ops.iter().enumerate() {
        if i % per_round == 0 {
            before_round();
        }
        rec.set_op(i as u32);
        let started = Instant::now();
        let span = rec.open("op");
        let answers = run_op(op, rec);
        rec.close(span);
        out.pass.op_ns.push(started.elapsed().as_nanos() as u64);
        let checked = answers.and_then(|a| check_op(op, &a, &mut check_rng).map(|p| (a, p)));
        match checked {
            Ok((a, problems)) => {
                out.pass.items += a.points;
                out.patel_lanes += a.patel_lanes;
                out.patel_iterations += a.patel_iterations;
                out.mva_lanes += a.mva_lanes;
                out.bus_sweep_points += a.bus_sweeps.iter().map(|s| s.len() as u64).sum::<u64>();
                digest.u64(a.digest);
                if i == 0 {
                    out.first_scalar = a.scalar;
                }
                out.problems
                    .extend(problems.into_iter().map(|p| format!("op {i}: {p}")));
            }
            Err(e) => {
                out.pass.failed += 1;
                out.problems.push(format!("op {i}: {e}"));
            }
        }
        if (i + 1) % per_round == 0 {
            out.pass.end_round();
        }
    }
    out.pass.digest = digest.value();
    out
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) {
    let per_round = OPS_PER_10S / ROUNDS_PER_10S;
    let (warmup, timed) = match (
        ops(cfg.seed, 2, WARMUP_OPS),
        ops(cfg.seed, 3, per_round * cfg.rounds(ROUNDS_PER_10S)),
    ) {
        (Ok(w), Ok(t)) => (w, t),
        (Err(e), _) | (_, Err(e)) => {
            report.check(
                "design points are valid Table 7 workloads",
                false,
                e.to_string(),
            );
            return;
        }
    };
    alloc::reset_peak();
    let untraced = run_pass(
        &timed,
        per_round,
        cfg.seed,
        &mut Recorder::new(false),
        &mut || {
            let discarded = report.time_setup(|| {
                run_pass(
                    &warmup,
                    WARMUP_OPS,
                    cfg.seed,
                    &mut Recorder::new(false),
                    &mut || {},
                )
            });
            report.count_ops(&discarded.pass);
        },
    );
    report.peak_heap_bytes = alloc::peak_bytes();
    report.count_ops(&untraced.pass);
    report.check(
        "bus sweeps bit-equal pointwise analyze_bus; network solvers agree; no model errors",
        untraced.problems.is_empty(),
        if untraced.problems.is_empty() {
            format!("{} ops", timed.len())
        } else {
            untraced
                .problems
                .iter()
                .take(5)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        },
    );
    if cfg.seed == DEFAULT_SEED {
        let worst = untraced
            .first_scalar
            .iter()
            .zip(DEFAULT_SEED_NETWORK_POWER)
            .map(|(&got, want)| rel(got, want))
            .fold(0.0, f64::max);
        report.check(
            "network answers match the recorded default-seed values",
            untraced.first_scalar.len() == DEFAULT_SEED_NETWORK_POWER.len()
                && worst <= NETWORK_AGREEMENT,
            format!("worst relative difference {worst:e}, tolerance {NETWORK_AGREEMENT:e}"),
        );
    }

    if cfg.trace {
        let mut rec = Recorder::new(true);
        let traced = run_pass(&timed, per_round, cfg.seed, &mut rec, &mut || {});
        report.count_ops(&traced.pass);
        report.check(
            "model answers identical in the traced and untraced passes",
            traced.pass.digest == untraced.pass.digest,
            format!(
                "{:016x} vs {:016x}",
                traced.pass.digest, untraced.pass.digest
            ),
        );
        layers(report, &rec, &traced);
        report.layer(
            "trace.overhead_pct",
            (untraced.pass.items_per_s() / traced.pass.items_per_s() - 1.0) * 100.0,
            timed.len(),
        );
        crate::report::write_spans(&rec, "model-sweep", cfg.seed);
    }
    report.pass = untraced.pass;
}

fn layers(report: &mut Report, rec: &Recorder, o: &Outcome) {
    let totals = rec.totals();
    let per_call_us = |name: &str| totals.ns(name) / 1e3 / totals.calls(name) as f64;
    report.layer(
        "model.bus_sweep_ns_per_point",
        totals.ns("model.bus_sweep") / o.bus_sweep_points as f64,
        totals.calls("model.bus_sweep"),
    );
    for (metric, span) in [
        ("model.network_curve_us", "model.network_curve"),
        ("model.analyze_network_us", "model.analyze_network"),
        ("model.sensitivity_table_us", "model.sensitivity_table"),
        ("model.directory_us", "model.directory"),
    ] {
        report.layer(metric, per_call_us(span), totals.calls(span));
    }
    report.layer(
        "model.batch_patel_ns_per_lane",
        totals.ns("model.batch_patel") / o.patel_lanes as f64,
        totals.calls("model.batch_patel"),
    );
    report.layer(
        "model.mva_grid_ns_per_lane",
        totals.ns("model.mva_grid") / o.mva_lanes as f64,
        totals.calls("model.mva_grid"),
    );
    report.layer(
        "model.patel_iterations_per_lane",
        o.patel_iterations as f64 / o.patel_lanes as f64,
        totals.calls("model.batch_patel"),
    );
    report.composition(&totals);
}
