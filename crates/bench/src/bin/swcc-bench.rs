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
//! Unlike the Criterion benches this is a single fast pass (median of
//! a few dozen batched samples), intended for regression tracking and
//! for the README's performance table. `--compare` diffs two reports
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
use swcc_core::network::{solve, solve_with, SolveOptions, DEFAULT_TOLERANCE};
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
fn warm_chain(rates: impl Iterator<Item = f64>, stages: u32, tolerance: f64) {
    let mut hint = None;
    for rate in rates {
        let op = solve_with(rate, 20.0, stages, SolveOptions { tolerance, hint }).unwrap();
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

/// Median wall-clock nanoseconds of one `f()` call, measured over
/// [`SAMPLES`] batches of [`ITERS`] calls each.
fn median_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..ITERS {
        f(); // warm-up
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
        })
        .collect();
    swcc_obs::quantile::median(&samples).expect("SAMPLES > 0 and Instant yields finite ns")
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
    fn new(points: u32, pointwise_ns: f64, swept_ns: f64) -> Self {
        let per = f64::from(points);
        CurveBench {
            points,
            pointwise_ns_per_point: pointwise_ns / per,
            swept_ns_per_point: swept_ns / per,
            speedup: pointwise_ns / swept_ns,
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
    /// decomposition of warm sweeps at fine and coarse tolerance.
    /// Setup dominating per-solve cost is why a 1.20x iteration saving
    /// shows up as only ~1.03x wall time.
    setup_ns_per_solve: f64,
    /// Marginal cost of one residual evaluation, from the same
    /// decomposition: `(fine - coarse wall) / (fine - coarse
    /// iterations)`.
    iteration_ns: f64,
}

impl PatelBench {
    /// Splits per-solve wall time into setup and iteration components
    /// by treating two sweeps with different (deterministic) iteration
    /// counts as two samples of
    /// `wall = setup * solves + iteration_ns * iterations`.
    fn split_overhead(
        fine_ns: f64,
        coarse_ns: f64,
        fine_iterations: u32,
        coarse_iterations: u32,
        solves: u32,
    ) -> (f64, f64) {
        let extra_iterations = f64::from(fine_iterations) - f64::from(coarse_iterations);
        if extra_iterations <= 0.0 {
            // Degenerate sweep (both tolerances converged alike): the
            // split is unidentifiable; attribute everything to setup.
            return (fine_ns / f64::from(solves), 0.0);
        }
        let iteration_ns = ((fine_ns - coarse_ns) / extra_iterations).max(0.0);
        let setup_ns = (fine_ns - iteration_ns * f64::from(fine_iterations)) / f64::from(solves);
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
    /// Warm scalar wall / batch wall on the same grid — the gated
    /// batch-engine speedup.
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

    let mva_pointwise = median_ns(|| {
        for n in 1..=CURVE_POINTS {
            std::hint::black_box(machine_repairman(n, 0.37, 1.2).unwrap());
        }
    });
    let mva_swept = median_ns(|| {
        std::hint::black_box(machine_repairman_sweep(CURVE_POINTS, 0.37, 1.2).unwrap());
    });

    let bus_pointwise = median_ns(|| {
        for n in 1..=CURVE_POINTS {
            std::hint::black_box(analyze_bus(Scheme::Dragon, &w, &sys, n).unwrap());
        }
    });
    let bus_swept = median_ns(|| {
        std::hint::black_box(analyze_bus_sweep(Scheme::Dragon, &w, &sys, CURVE_POINTS).unwrap());
    });

    let stages = 8u32;
    let rates = || (1..=PATEL_SOLVES).map(|i| f64::from(i) * 0.002);
    let cold_sweep = || {
        for rate in rates() {
            std::hint::black_box(solve(rate, 20.0, stages).unwrap());
        }
    };
    let cold_ns = median_ns(cold_sweep);
    let warm_ns = median_ns(|| warm_chain(rates(), stages, DEFAULT_TOLERANCE));
    let cold_iterations = residual_evals(cold_sweep);
    let warm_iterations = residual_evals(|| warm_chain(rates(), stages, DEFAULT_TOLERANCE));

    // Setup/iteration split: re-run the warm sweep at a coarse
    // tolerance. The iteration-count delta is large and deterministic,
    // so the two-point fit stays out of timer noise (unlike cold vs
    // warm, whose ~40-iteration gap is invisible at ~200 ns/solve).
    const COARSE_TOLERANCE: f64 = 1e-2;
    let coarse_ns = median_ns(|| warm_chain(rates(), stages, COARSE_TOLERANCE));
    let coarse_iterations = residual_evals(|| warm_chain(rates(), stages, COARSE_TOLERANCE));
    let (setup_ns_per_solve, iteration_ns) = PatelBench::split_overhead(
        warm_ns,
        coarse_ns,
        warm_iterations,
        coarse_iterations,
        PATEL_SOLVES,
    );

    // Batch engine vs the warm scalar path over the same 1k-point grid.
    let batch_rates: Vec<f64> = (1..=BATCH_LANES).map(|i| i as f64 * 1.0e-4).collect();
    let batch_sizes = vec![20.0; BATCH_LANES];
    let batch_solver = BatchPatelSolver::new();
    let warm_grid_ns =
        median_ns(|| warm_chain(batch_rates.iter().copied(), stages, DEFAULT_TOLERANCE));
    let batch_ns = median_ns(|| {
        std::hint::black_box(
            batch_solver
                .solve(&batch_rates, &batch_sizes, stages)
                .unwrap(),
        );
    });
    let batch_iterations = batch_solver
        .solve(&batch_rates, &batch_sizes, stages)
        .unwrap()
        .total_iterations();

    // Batched MVA grid vs a pointwise loop: 1k lanes with distinct
    // service times at a fixed paper-scale population.
    let grid_customers = CURVE_POINTS;
    let grid_services: Vec<f64> = (0..BATCH_LANES).map(|i| 0.1 + i as f64 * 5.0e-4).collect();
    let grid_thinks = vec![1.2; BATCH_LANES];
    let grid_pointwise_ns = median_ns(|| {
        for (&s, &z) in grid_services.iter().zip(&grid_thinks) {
            std::hint::black_box(machine_repairman(grid_customers, s, z).unwrap());
        }
    });
    let grid_batch_ns = median_ns(|| {
        std::hint::black_box(
            machine_repairman_grid(grid_customers, &grid_services, &grid_thinks).unwrap(),
        );
    });

    Report {
        schema: BENCH_SCHEMA.to_string(),
        samples: SAMPLES,
        generated_by: format!(
            "swcc-bench {} (median of {SAMPLES} samples x {ITERS} iterations)",
            env!("CARGO_PKG_VERSION")
        ),
        mva_curve: CurveBench::new(CURVE_POINTS, mva_pointwise, mva_swept),
        bus_curve_dragon: CurveBench::new(CURVE_POINTS, bus_pointwise, bus_swept),
        patel_rate_sweep: PatelBench {
            solves: PATEL_SOLVES,
            stages,
            cold_ns_per_solve: cold_ns / f64::from(PATEL_SOLVES),
            warm_ns_per_solve: warm_ns / f64::from(PATEL_SOLVES),
            cold_iterations,
            warm_iterations,
            iteration_speedup: f64::from(cold_iterations) / f64::from(warm_iterations),
            wall_speedup: cold_ns / warm_ns,
            setup_ns_per_solve,
            iteration_ns,
        },
        batch_patel: BatchPatelBench {
            lanes: BATCH_LANES,
            stages,
            warm_scalar_ns_per_solve: warm_grid_ns / BATCH_LANES as f64,
            batch_ns_per_solve: batch_ns / BATCH_LANES as f64,
            batch_iterations,
            speedup_vs_warm: warm_grid_ns / batch_ns,
        },
        batch_grid: BatchGridBench {
            lanes: BATCH_LANES,
            customers: grid_customers,
            pointwise_ns_per_lane: grid_pointwise_ns / BATCH_LANES as f64,
            batch_ns_per_lane: grid_batch_ns / BATCH_LANES as f64,
            speedup: grid_pointwise_ns / grid_batch_ns,
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
