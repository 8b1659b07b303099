//! Metric names emitted by the model layer, and their registration.
//!
//! The solvers and sweep engines report how much numerical work they do
//! through the `swcc-obs` dispatch functions — residual evaluations,
//! warm-start reuses, bracket fallbacks, points computed per sweep.
//! Nothing is recorded unless a recorder is installed
//! ([`swcc_obs::install`]) or a capture span is active
//! ([`swcc_obs::capture`]); the disabled path is two relaxed atomic
//! loads per instrumented call site, which benchmarks cannot
//! distinguish from noise.
//!
//! [`register`] adds every name to a [`RegistryBuilder`] so binaries
//! (e.g. `repro --metrics`) can build a registry that covers the whole
//! model layer:
//!
//! ```
//! let registry = swcc_core::metrics::register(swcc_obs::RegistryBuilder::new()).build();
//! assert_eq!(registry.counter_value(swcc_core::metrics::SOLVER_SOLVES), Some(0));
//! ```

use swcc_obs::RegistryBuilder;

/// Guarded-Newton fixed-point solves completed, scalar and batch lanes
/// alike ([`crate::network::patel`]).
pub const SOLVER_SOLVES: &str = "core.solver.solves";
/// Residual function evaluations across all Patel solves.
pub const SOLVER_RESIDUAL_EVALS: &str = "core.solver.residual_evals";
/// Solves that started from a warm-start hint (a nearby root).
pub const SOLVER_WARM_REUSES: &str = "core.solver.warm_start_reuses";
/// Newton steps that left the root bracket and fell back to its
/// midpoint (the bisection safety net).
pub const SOLVER_BRACKET_FALLBACKS: &str = "core.solver.bracket_fallbacks";
/// Distribution of residual evaluations per guarded-Newton solve.
pub const SOLVER_ITERATIONS: &str = "core.solver.iterations";

/// Pointwise machine-repairman solves ([`crate::queue::machine_repairman`]).
pub const MVA_SOLVES: &str = "core.mva.solves";
/// Incremental MVA sweeps run ([`crate::queue::machine_repairman_sweep`]).
pub const MVA_SWEEPS: &str = "core.mva.sweeps";
/// Populations solved by sweep reuse — each point here was produced by
/// extending one recurrence instead of a fresh pointwise solve.
pub const MVA_SWEEP_POINTS: &str = "core.mva.sweep_points";

/// Pointwise bus analyses ([`crate::bus::analyze_bus`]).
pub const BUS_ANALYSES: &str = "core.bus.analyses";
/// Whole-curve bus sweeps ([`crate::bus::analyze_bus_sweep`]).
pub const BUS_SWEEPS: &str = "core.bus.sweeps";
/// Bus operating points produced by sweep reuse.
pub const BUS_SWEEP_POINTS: &str = "core.bus.sweep_points";

/// Lockstep Patel batches solved ([`crate::batch::BatchPatelSolver`]).
pub const BATCH_PATEL_BATCHES: &str = "core.batch.patel_batches";
/// Lanes submitted across all batch Patel solves.
pub const BATCH_PATEL_LANES: &str = "core.batch.patel_lanes";
/// Lockstep MVA grid evaluations ([`crate::batch::machine_repairman_grid`]).
pub const BATCH_MVA_GRIDS: &str = "core.batch.mva_grids";
/// Lanes submitted across all batch MVA grid evaluations.
pub const BATCH_MVA_GRID_LANES: &str = "core.batch.mva_grid_lanes";
/// Distribution of batch widths (lanes per batch call).
pub const BATCH_LANE_WIDTH: &str = "core.batch.lane_width";
/// Distribution of the lockstep iteration at which each Patel lane
/// retired from the active set (converged or hit the cap).
pub const BATCH_RETIRE_ITERATIONS: &str = "core.batch.retire_iterations";

/// Pointwise network analyses ([`crate::network::analyze_network`]).
pub const NETWORK_ANALYSES: &str = "core.network.analyses";
/// Network power curves, one per scheme of
/// [`crate::network::network_power_curves`] (and of
/// [`crate::network::network_power_curve`], its one-scheme case).
pub const NETWORK_CURVES: &str = "core.network.curves";
/// Network operating points produced inside power curves.
pub const NETWORK_CURVE_POINTS: &str = "core.network.curve_points";

// --- Trace event names (see `swcc_obs::trace`) -------------------------
//
// Counters above answer "how much"; the span/point events below answer
// "in what order and with what intermediate values". Nothing is emitted
// unless a trace sink is installed ([`swcc_obs::install_sink`]).

/// Span around one Patel fixed-point solve. Fields: `rate`, `size`,
/// `stages`, `warm`.
pub const EV_SOLVER_SOLVE: &str = "patel.solve";
/// Sampled per-iteration convergence point inside a solve. Fields:
/// `iter`, `x` (current `U` probe), `residual`, `lo`, `hi` (bracket).
pub const EV_SOLVER_ITERATION: &str = "patel.iteration";
/// Terminal record of a solve. Fields: `iterations`, `fallbacks`,
/// `root`, `converged` (false means the iteration cap was hit with the
/// bracket still wider than the tolerance — a divergence).
pub const EV_SOLVER_RESULT: &str = "patel.result";
/// Span around one incremental MVA sweep. Fields: `max_customers`,
/// `service`, `think`.
pub const EV_MVA_SWEEP: &str = "mva.sweep";
/// Span around one whole-curve bus sweep. Fields: `scheme`, `points`.
pub const EV_BUS_SWEEP: &str = "bus.sweep";
/// Sampled per-population point inside a bus sweep. Fields: `n`,
/// `power`, `utilization`, `wait`.
pub const EV_BUS_SWEEP_POINT: &str = "bus.sweep_point";
/// Span around one lockstep batch Patel solve. Fields: `lanes`,
/// `tolerance`.
pub const EV_BATCH_SOLVE: &str = "batch.solve";
/// Sampled per-lockstep-iteration point inside a batch solve. Fields:
/// `iter`, `active` (lanes entering the iteration), `retired` (lanes
/// that converged during it).
pub const EV_BATCH_ITERATION: &str = "batch.iteration";
/// Span around one lockstep MVA grid evaluation. Fields: `lanes`,
/// `customers`.
pub const EV_BATCH_MVA_GRID: &str = "batch.mva_grid";

/// Registers every model-layer metric on the builder.
#[must_use]
pub fn register(builder: RegistryBuilder) -> RegistryBuilder {
    builder
        .counter(SOLVER_SOLVES)
        .counter(SOLVER_RESIDUAL_EVALS)
        .counter(SOLVER_WARM_REUSES)
        .counter(SOLVER_BRACKET_FALLBACKS)
        .histogram(
            SOLVER_ITERATIONS,
            &[
                1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0, 200.0,
            ],
        )
        .counter(MVA_SOLVES)
        .counter(MVA_SWEEPS)
        .counter(MVA_SWEEP_POINTS)
        .counter(BUS_ANALYSES)
        .counter(BUS_SWEEPS)
        .counter(BUS_SWEEP_POINTS)
        .counter(NETWORK_ANALYSES)
        .counter(NETWORK_CURVES)
        .counter(NETWORK_CURVE_POINTS)
        .counter(BATCH_PATEL_BATCHES)
        .counter(BATCH_PATEL_LANES)
        .counter(BATCH_MVA_GRIDS)
        .counter(BATCH_MVA_GRID_LANES)
        .histogram(
            BATCH_LANE_WIDTH,
            &[
                1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
            ],
        )
        .histogram(
            BATCH_RETIRE_ITERATIONS,
            &[
                1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0, 200.0,
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::analyze_bus_sweep;
    use crate::network::{network_power_curve, solve};
    use crate::queue::machine_repairman;
    use crate::scheme::Scheme;
    use crate::system::BusSystemModel;
    use crate::workload::WorkloadParams;

    #[test]
    fn registry_covers_every_name() {
        let registry = register(RegistryBuilder::new()).build();
        for name in [
            SOLVER_SOLVES,
            SOLVER_RESIDUAL_EVALS,
            SOLVER_WARM_REUSES,
            SOLVER_BRACKET_FALLBACKS,
            MVA_SOLVES,
            MVA_SWEEPS,
            MVA_SWEEP_POINTS,
            BUS_ANALYSES,
            BUS_SWEEPS,
            BUS_SWEEP_POINTS,
            NETWORK_ANALYSES,
            NETWORK_CURVES,
            NETWORK_CURVE_POINTS,
            BATCH_PATEL_BATCHES,
            BATCH_PATEL_LANES,
            BATCH_MVA_GRIDS,
            BATCH_MVA_GRID_LANES,
        ] {
            assert_eq!(registry.counter_value(name), Some(0), "{name}");
        }
        assert!(registry.histogram(SOLVER_ITERATIONS).is_some());
        assert!(registry.histogram(BATCH_LANE_WIDTH).is_some());
        assert!(registry.histogram(BATCH_RETIRE_ITERATIONS).is_some());
    }

    #[test]
    fn batch_solve_attributes_solver_work() {
        let rates = [0.0, 0.01, 0.02, 0.03];
        let sizes = [20.0; 4];
        let (batch, span) = swcc_obs::capture(|| {
            crate::batch::BatchPatelSolver::new()
                .solve(&rates, &sizes, 8)
                .unwrap()
        });
        assert_eq!(span.counter(BATCH_PATEL_BATCHES), Some(1));
        assert_eq!(span.counter(BATCH_PATEL_LANES), Some(4));
        // The zero-demand lane does no solver work, as in the scalar path.
        assert_eq!(span.counter(SOLVER_SOLVES), Some(3));
        assert_eq!(
            span.counter(SOLVER_RESIDUAL_EVALS),
            Some(batch.total_iterations())
        );
        let iters = span.histogram(SOLVER_ITERATIONS).unwrap();
        assert_eq!(iters.count, 3);
        let widths = span.histogram(BATCH_LANE_WIDTH).unwrap();
        assert_eq!(widths.count, 1);
        assert_eq!(widths.sum, 4.0);
    }

    #[test]
    fn warm_sweep_attributes_solver_work() {
        let w = WorkloadParams::default();
        let (curve, span) =
            swcc_obs::capture(|| network_power_curve(Scheme::SoftwareFlush, &w, 8).unwrap());
        assert_eq!(curve.len(), 9);
        assert_eq!(span.counter(NETWORK_CURVES), Some(1));
        assert_eq!(span.counter(NETWORK_CURVE_POINTS), Some(9));
        // The curve is one cold batch with a lane per stage count.
        assert_eq!(span.counter(BATCH_PATEL_BATCHES), Some(1));
        assert_eq!(span.counter(BATCH_PATEL_LANES), Some(9));
        // Every stage has nonzero demand, so each lane is one solve.
        assert_eq!(span.counter(SOLVER_SOLVES), Some(9));
        assert!(span.counter(SOLVER_RESIDUAL_EVALS).unwrap_or(0) >= 9);
        assert_eq!(span.counter(SOLVER_WARM_REUSES), None, "every lane is cold");
        let iters = span.histogram(SOLVER_ITERATIONS).unwrap();
        assert_eq!(iters.count, 9);
        assert_eq!(
            iters.sum,
            span.counter(SOLVER_RESIDUAL_EVALS).unwrap() as f64
        );
    }

    /// `solve` was once a fixed 200-step bisection with its own counter;
    /// it is now the cold guarded-Newton solve and reports through the
    /// shared solver counters.
    #[test]
    fn legacy_bisection_reports_fixed_eval_budget() {
        let reference = crate::batch::BatchPatelSolver::new()
            .solve(&[0.03], &[20.0], 8)
            .unwrap();
        let iterations = u64::from(reference.iterations()[0]);
        let ((), span) = swcc_obs::capture(|| {
            solve(0.03, 20.0, 8).unwrap();
        });
        assert_eq!(span.counter(SOLVER_SOLVES), Some(1));
        // A handful of Newton steps, a small fraction of the cap.
        assert!((1..=10).contains(&iterations), "{iterations} iterations");
        assert_eq!(span.counter(SOLVER_RESIDUAL_EVALS), Some(iterations));
        assert_eq!(span.counter(SOLVER_WARM_REUSES), None, "solve is cold");
        let iters = span.histogram(SOLVER_ITERATIONS).unwrap();
        assert_eq!(iters.count, 1);
        assert_eq!(iters.sum, iterations as f64);
    }

    #[test]
    fn zero_demand_solves_do_no_solver_work() {
        let ((), span) = swcc_obs::capture(|| {
            solve(0.0, 20.0, 8).unwrap();
        });
        assert_eq!(span.counter(SOLVER_SOLVES), None);
        assert_eq!(span.counter(SOLVER_RESIDUAL_EVALS), None);
    }

    #[test]
    fn bus_sweep_counts_points_and_mva_reuse() {
        let w = WorkloadParams::default();
        let sys = BusSystemModel::new();
        let (curve, span) =
            swcc_obs::capture(|| analyze_bus_sweep(Scheme::Dragon, &w, &sys, 32).unwrap());
        assert_eq!(curve.len(), 32);
        assert_eq!(span.counter(BUS_SWEEPS), Some(1));
        assert_eq!(span.counter(BUS_SWEEP_POINTS), Some(32));
        assert_eq!(span.counter(MVA_SWEEPS), Some(1));
        assert_eq!(span.counter(MVA_SWEEP_POINTS), Some(32));
        assert_eq!(
            span.counter(MVA_SOLVES),
            None,
            "sweep avoids pointwise solves"
        );
    }

    #[test]
    fn pointwise_mva_counts_solves() {
        let ((), span) = swcc_obs::capture(|| {
            machine_repairman(16, 0.37, 1.2).unwrap();
            machine_repairman(16, 0.0, 1.2).unwrap();
        });
        assert_eq!(span.counter(MVA_SOLVES), Some(2));
    }
}
