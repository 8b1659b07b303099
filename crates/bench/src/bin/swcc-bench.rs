//! `swcc-bench` — machine-readable sweep-engine benchmark.
//!
//! Times the batched MVA/bus sweep against the pointwise API,
//! warm-started Patel solves against cold ones, and the lockstep batch
//! engine against the warm scalar path on 1k-point grids, then writes
//! the results as JSON (default `BENCH_sweep.json`, or the path given
//! as the first argument; `-` writes to stdout only).
//!
//! ```text
//! cargo run --release -p swcc-bench --bin swcc-bench
//! swcc-bench --compare old.json new.json [--tolerance <pct>]
//! ```
//!
//! This is a single fast pass (median of a few dozen batched samples),
//! intended for regression tracking and for the README's performance
//! table. Each sample of a comparison times a batch of reference calls
//! and then a batch of subject calls, and each speedup is the median of
//! the per-sample ratios, so drift in host speed between samples cancels
//! instead of moving the ratio. `--compare` diffs two reports
//! and exits nonzero when a machine-independent quantity (speedup
//! ratio, solver iteration count) regressed — the perf half of CI's
//! regression gate (the tolerance applies to the ratios; counts must
//! match exactly).

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use swcc_bench::compare::compare_reports;
use swcc_bench::BENCH_SCHEMA;
use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver};
use swcc_core::bus::{analyze_bus, analyze_bus_sweep};
use swcc_core::metrics::SOLVER_RESIDUAL_EVALS;
use swcc_core::network::{solve, solve_with, SolveOptions};
use swcc_core::queue::{machine_repairman, machine_repairman_sweep};
use swcc_core::scheme::Scheme;
use swcc_core::system::BusSystemModel;
use swcc_core::workload::WorkloadParams;

/// Populations in the benchmark curve (matches the paper's bus plots).
const CURVE_POINTS: u32 = 64;
/// Solves in the Patel rate sweep.
const PATEL_SOLVES: u32 = 50;
/// Lanes in the batch-engine grids (the ISSUE's 1k-point target).
const BATCH_LANES: usize = 1000;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 25;
/// Iterations batched inside each timed sample.
const ITERS: usize = 40;

/// The warm reference: solves `rates` at size 20 in order, each solve
/// hinted with the previous one's `U`.
fn warm_chain(rates: impl Iterator<Item = f64>, stages: u32) {
    let mut hint = None;
    for rate in rates {
        let op = solve_with(rate, 20.0, stages, SolveOptions { hint }).unwrap();
        hint = Some(op.think_fraction());
        std::hint::black_box(op);
    }
}

/// Residual evaluations the solves inside `f` report (an untimed pass).
fn residual_evals(f: impl FnOnce()) -> u32 {
    let ((), span) = swcc_obs::capture(f);
    let evals = span.counter(SOLVER_RESIDUAL_EVALS).unwrap_or(0);
    u32::try_from(evals).expect("a 50-solve sweep stays far below u32::MAX evaluations")
}

/// Wall-clock nanoseconds per `f()` call over one batch of [`ITERS`]
/// calls.
fn batch_ns(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let samples: Vec<f64> = samples.collect();
    swcc_obs::quantile::median(&samples).expect("SAMPLES > 0 and Instant yields finite ns")
}

/// Median wall-clock nanoseconds of one `f()` call, measured over
/// [`SAMPLES`] batches of [`ITERS`] calls each.
fn median_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..ITERS {
        f(); // warm-up
    }
    median((0..SAMPLES).map(|_| batch_ns(&mut f)))
}

/// A reference timed against a subject, sample by sample.
struct Paired {
    /// Median nanoseconds per reference call.
    reference_ns: f64,
    /// Median nanoseconds per subject call.
    subject_ns: f64,
    /// Median of the per-sample ratios `reference / subject`.
    speedup: f64,
}

/// Times `reference` against `subject` over [`SAMPLES`] samples, each a
/// batch of [`ITERS`] reference calls followed by a batch of subject
/// calls.
fn paired_ns(mut reference: impl FnMut(), mut subject: impl FnMut()) -> Paired {
    for _ in 0..ITERS {
        reference(); // warm-up
        subject();
    }
    let samples: Vec<(f64, f64)> = (0..SAMPLES)
        .map(|_| (batch_ns(&mut reference), batch_ns(&mut subject)))
        .collect();
    Paired {
        reference_ns: median(samples.iter().map(|s| s.0)),
        subject_ns: median(samples.iter().map(|s| s.1)),
        speedup: median(samples.iter().map(|s| s.0 / s.1)),
    }
}

/// One pointwise-versus-swept comparison over a 1..=n curve.
#[derive(Debug, Serialize)]
struct CurveBench {
    points: u32,
    pointwise_ns_per_point: f64,
    swept_ns_per_point: f64,
    speedup: f64,
}

impl CurveBench {
    fn new(points: u32, timed: Paired) -> Self {
        let per = f64::from(points);
        CurveBench {
            points,
            pointwise_ns_per_point: timed.reference_ns / per,
            swept_ns_per_point: timed.subject_ns / per,
            speedup: timed.speedup,
        }
    }
}

/// Cold-versus-warm Patel comparison over a demand sweep. Iteration
/// counts are residual evaluations, deterministic for a given sweep.
#[derive(Debug, Serialize)]
struct PatelBench {
    solves: u32,
    stages: u32,
    cold_ns_per_solve: f64,
    warm_ns_per_solve: f64,
    cold_iterations: u32,
    warm_iterations: u32,
    /// Residual evaluations saved by warm starting: `cold / warm`.
    /// Deterministic for a given sweep, unlike the wall-clock ratio,
    /// which at ~200 ns/solve sits inside timer noise.
    iteration_speedup: f64,
    wall_speedup: f64,
    /// Per-solve overhead outside the Newton loop (validation, warm
    /// hint bookkeeping, result assembly), from the two-point
    /// decomposition of the warm sweep and the same sweep hinted at
    /// each point's own root.
    /// Setup dominating per-solve cost is why a 1.20x iteration saving
    /// shows up as only ~1.03x wall time.
    setup_ns_per_solve: f64,
    /// Marginal cost of one residual evaluation, from the same
    /// decomposition: `(warm - rooted wall) / (warm - rooted
    /// iterations)`.
    iteration_ns: f64,
}

impl PatelBench {
    /// Splits per-solve wall time into setup and iteration components
    /// by treating two sweeps with different (deterministic) iteration
    /// counts as two samples of
    /// `wall = setup * solves + iteration_ns * iterations`.
    fn split_overhead(
        warm_ns: f64,
        rooted_ns: f64,
        warm_iterations: u32,
        rooted_iterations: u32,
        solves: u32,
    ) -> (f64, f64) {
        let extra_iterations = f64::from(warm_iterations) - f64::from(rooted_iterations);
        if extra_iterations <= 0.0 {
            // Degenerate sweep (both took as many iterations): the
            // split is unidentifiable; attribute everything to setup.
            return (warm_ns / f64::from(solves), 0.0);
        }
        let iteration_ns = ((warm_ns - rooted_ns) / extra_iterations).max(0.0);
        let setup_ns = (warm_ns - iteration_ns * f64::from(warm_iterations)) / f64::from(solves);
        (setup_ns.max(0.0), iteration_ns)
    }
}

/// Batched Patel fixed-point solving versus the warm scalar sweep on
/// the same grid — the batch engine's headline comparison.
#[derive(Debug, Serialize)]
struct BatchPatelBench {
    lanes: usize,
    stages: u32,
    /// Warm scalar path: `solve_with` chained across the grid, each
    /// solve hinted with the previous one's `U`.
    warm_scalar_ns_per_solve: f64,
    batch_ns_per_solve: f64,
    /// Total residual evaluations across the batch; deterministic for
    /// a given grid, so `--compare` gates it exactly.
    batch_iterations: u64,
    /// Warm scalar wall / batch wall on the same grid, per sample — the
    /// gated batch-engine speedup.
    speedup_vs_warm: f64,
}

/// Batched MVA grid versus a pointwise `machine_repairman` loop over
/// the same lanes (distinct service/think per lane, fixed population).
#[derive(Debug, Serialize)]
struct BatchGridBench {
    lanes: usize,
    customers: u32,
    pointwise_ns_per_lane: f64,
    batch_ns_per_lane: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// Always [`BENCH_SCHEMA`]; `--compare` rejects foreign revisions.
    schema: String,
    /// Timed samples per measurement (the median is reported).
    samples: usize,
    generated_by: String,
    mva_curve: CurveBench,
    bus_curve_dragon: CurveBench,
    patel_rate_sweep: PatelBench,
    batch_patel: BatchPatelBench,
    batch_grid: BatchGridBench,
}

fn run() -> Report {
    let w = WorkloadParams::default();
    let sys = BusSystemModel::new();

    let mva = paired_ns(
        || {
            for n in 1..=CURVE_POINTS {
                std::hint::black_box(machine_repairman(n, 0.37, 1.2).unwrap());
            }
        },
        || {
            std::hint::black_box(machine_repairman_sweep(CURVE_POINTS, 0.37, 1.2).unwrap());
        },
    );

    let bus = paired_ns(
        || {
            for n in 1..=CURVE_POINTS {
                std::hint::black_box(analyze_bus(Scheme::Dragon, &w, &sys, n).unwrap());
            }
        },
        || {
            std::hint::black_box(
                analyze_bus_sweep(Scheme::Dragon, &w, &sys, CURVE_POINTS).unwrap(),
            );
        },
    );

    let stages = 8u32;
    let rates = || (1..=PATEL_SOLVES).map(|i| f64::from(i) * 0.002);
    let cold_sweep = || {
        for rate in rates() {
            std::hint::black_box(solve(rate, 20.0, stages).unwrap());
        }
    };
    let patel = paired_ns(cold_sweep, || warm_chain(rates(), stages));
    let cold_iterations = residual_evals(cold_sweep);
    let warm_iterations = residual_evals(|| warm_chain(rates(), stages));

    // Setup/iteration split: re-run the warm chain with each solve
    // hinted at its own root, so each retires after one residual
    // evaluation. The iteration-count delta is large and deterministic,
    // so the two-point fit stays out of timer noise (unlike cold vs
    // warm, whose ~40-iteration gap is invisible at ~200 ns/solve).
    let roots: Vec<(f64, f64)> = rates()
        .map(|rate| (rate, solve(rate, 20.0, stages).unwrap().think_fraction()))
        .collect();
    let rooted_sweep = || {
        let mut previous = 0.0;
        for &(rate, root) in &roots {
            // Adding `0.0 * previous` leaves the hint exact but makes each
            // solve wait for the last, as in the warm chain; independent
            // solves would overlap and hide the setup cost.
            let hint = Some(root + 0.0 * previous);
            let op = solve_with(rate, 20.0, stages, SolveOptions { hint }).unwrap();
            previous = op.think_fraction();
            std::hint::black_box(op);
        }
    };
    let rooted_ns = median_ns(rooted_sweep);
    let rooted_iterations = residual_evals(rooted_sweep);
    let (setup_ns_per_solve, iteration_ns) = PatelBench::split_overhead(
        patel.subject_ns,
        rooted_ns,
        warm_iterations,
        rooted_iterations,
        PATEL_SOLVES,
    );

    // Batch engine vs the warm scalar path over the same 1k-point grid.
    let batch_rates: Vec<f64> = (1..=BATCH_LANES).map(|i| i as f64 * 1.0e-4).collect();
    let batch_sizes = vec![20.0; BATCH_LANES];
    let batch_solver = BatchPatelSolver::new();
    let batch_patel = paired_ns(
        || warm_chain(batch_rates.iter().copied(), stages),
        || {
            std::hint::black_box(
                batch_solver
                    .solve(&batch_rates, &batch_sizes, stages)
                    .unwrap(),
            );
        },
    );
    let batch_iterations = batch_solver
        .solve(&batch_rates, &batch_sizes, stages)
        .unwrap()
        .total_iterations();

    // Batched MVA grid vs a pointwise loop: 1k lanes with distinct
    // service times at a fixed paper-scale population.
    let grid_customers = CURVE_POINTS;
    let grid_services: Vec<f64> = (0..BATCH_LANES).map(|i| 0.1 + i as f64 * 5.0e-4).collect();
    let grid_thinks = vec![1.2; BATCH_LANES];
    let grid = paired_ns(
        || {
            for (&s, &z) in grid_services.iter().zip(&grid_thinks) {
                std::hint::black_box(machine_repairman(grid_customers, s, z).unwrap());
            }
        },
        || {
            std::hint::black_box(
                machine_repairman_grid(grid_customers, &grid_services, &grid_thinks).unwrap(),
            );
        },
    );

    Report {
        schema: BENCH_SCHEMA.to_string(),
        samples: SAMPLES,
        generated_by: format!(
            "swcc-bench {} (median of {SAMPLES} samples x {ITERS} iterations)",
            env!("CARGO_PKG_VERSION")
        ),
        mva_curve: CurveBench::new(CURVE_POINTS, mva),
        bus_curve_dragon: CurveBench::new(CURVE_POINTS, bus),
        patel_rate_sweep: PatelBench {
            solves: PATEL_SOLVES,
            stages,
            cold_ns_per_solve: patel.reference_ns / f64::from(PATEL_SOLVES),
            warm_ns_per_solve: patel.subject_ns / f64::from(PATEL_SOLVES),
            cold_iterations,
            warm_iterations,
            iteration_speedup: f64::from(cold_iterations) / f64::from(warm_iterations),
            wall_speedup: patel.speedup,
            setup_ns_per_solve,
            iteration_ns,
        },
        batch_patel: BatchPatelBench {
            lanes: BATCH_LANES,
            stages,
            warm_scalar_ns_per_solve: batch_patel.reference_ns / BATCH_LANES as f64,
            batch_ns_per_solve: batch_patel.subject_ns / BATCH_LANES as f64,
            batch_iterations,
            speedup_vs_warm: batch_patel.speedup,
        },
        batch_grid: BatchGridBench {
            lanes: BATCH_LANES,
            customers: grid_customers,
            pointwise_ns_per_lane: grid.reference_ns / BATCH_LANES as f64,
            batch_ns_per_lane: grid.subject_ns / BATCH_LANES as f64,
            speedup: grid.speedup,
        },
    }
}

/// Default `--compare` tolerance on speedup ratios, in percent.
const DEFAULT_TOLERANCE_PCT: f64 = 20.0;

fn compare_cmd(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tolerance_pct = DEFAULT_TOLERANCE_PCT;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--tolerance needs a value (percent)");
                return ExitCode::FAILURE;
            };
            match value.parse::<f64>() {
                Ok(p) => tolerance_pct = p,
                Err(_) => {
                    eprintln!("--tolerance: not a number: {value}");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: swcc-bench --compare old.json new.json [--tolerance <pct>]");
        return ExitCode::FAILURE;
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let outcome = read(old_path)
        .and_then(|old| read(new_path).map(|new| (old, new)))
        .and_then(|(old, new)| compare_reports(&old, &new, tolerance_pct / 100.0));
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if outcome.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return compare_cmd(&args[1..]);
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let report = run();
    let json = match serde_json::to_string_pretty(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serialize benchmark report: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{json}");
    if path != "-" {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
