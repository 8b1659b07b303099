//! Data-parallel batch solver engine: structure-of-arrays solving of
//! many independent operating points in lockstep.
//!
//! The paper's methodology is sweeping the analytical models across
//! grids of workload parameters, and at a few hundred nanoseconds per
//! scalar solve the *dispatch* around each one — validation, span
//! bookkeeping, struct assembly — costs as much as the arithmetic
//! inside it. This module removes that overhead by solving N
//! independent points per call over flat `Vec<f64>` lanes:
//!
//! * [`BatchPatelSolver`] runs the guarded-Newton kernel of
//!   [`crate::network::patel`] — the same per-lane step the scalar
//!   solve runs — for **all active lanes per iteration**, one pass per
//!   phase of the step. Each lane carries its own `[lo, hi]` root
//!   bracket and convergence state; converged lanes are *compacted
//!   out* of the active set (a stable write-cursor pass over every lane
//!   array), so a lane that converges at iteration 3 stops paying for
//!   lanes that need 8. The propagation runs in blocks of lanes,
//!   stage-outer/lane-inner — no per-solve dispatch, and a body the
//!   compiler can auto-vectorize.
//! * [`machine_repairman_grid`] runs the exact-MVA recurrence step of
//!   [`crate::queue`] for a whole grid of `(service, think)` lanes in
//!   one population-outer, lane-inner pass.
//!
//! # Exact compatibility
//!
//! The batch engines are **bit-compatible** with the scalar APIs: each
//! lane executes exactly the floating-point operations, in exactly the
//! order, that the scalar solver would execute for the same inputs,
//! because both run the one step of each algorithm. Lanes are
//! independent, so interleaving them (or compacting the active set)
//! cannot change any lane's op sequence. Concretely:
//!
//! * a [`BatchPatelSolver`] lane equals
//!   [`solve_with`](crate::network::solve_with) with the same hint,
//!   bit for bit (including its iteration count), so a cold lane is
//!   [`solve`](crate::network::solve) and the operating point of
//!   [`analyze_network`](crate::network::analyze_network) at the same
//!   demand;
//! * a [`machine_repairman_grid`] lane equals
//!   [`machine_repairman`](crate::queue::machine_repairman) bit for
//!   bit.
//!
//! The scalar APIs therefore remain the N=1 case, and the property
//! tests in `tests/batch_equivalence.rs` assert the equivalences with
//! `to_bits` equality.

use crate::error::{ModelError, Result};
use crate::metrics;
use crate::network::patel::{
    residual_and_slope, Lane, OperatingPoint, DEFAULT_TOLERANCE, MAX_ITERATIONS,
};
use crate::queue::{self, MvaSolution};

/// A hint value meaning "start this lane cold" in
/// [`BatchPatelSolver::solve_hinted`]. Any value outside the open
/// interval `(0, 1)` (including NaN) is treated the same way, exactly
/// as [`SolveOptions::hint`](crate::network::SolveOptions) treats an
/// out-of-range hint.
pub const COLD: f64 = f64::NAN;

/// The solved result of one batch Patel solve: per-lane operating
/// points plus per-lane solver provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PatelBatchSolution {
    points: Vec<OperatingPoint>,
    iterations: Vec<u32>,
    converged: Vec<bool>,
    total_iterations: u64,
}

impl PatelBatchSolution {
    /// Number of lanes solved.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The solved operating points, in input-lane order.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Residual evaluations each lane needed (0 for zero-demand lanes).
    /// Bit-compatible lanes report exactly the scalar solver's count.
    pub fn iterations(&self) -> &[u32] {
        &self.iterations
    }

    /// Per-lane convergence flags; `false` means that lane hit the
    /// 200-iteration cap with its bracket still wider than the
    /// tolerance (same semantics as the scalar solver's trace flag).
    pub fn converged(&self) -> &[bool] {
        &self.converged
    }

    /// Residual evaluations summed over every lane — the batch's total
    /// numerical work, deterministic for a given input grid.
    pub fn total_iterations(&self) -> u64 {
        self.total_iterations
    }

    /// Consumes the solution, returning the operating points.
    pub fn into_points(self) -> Vec<OperatingPoint> {
        self.points
    }
}

/// Dense working state for the lanes still iterating. Retired lanes
/// are compacted out of every array with a stable write cursor, so the
/// arrays always hold exactly the active set, contiguously and in
/// original lane order.
struct ActiveLanes {
    /// Original lane index, for scattering results back.
    lane: Vec<u32>,
    x: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    demand: Vec<f64>,
    stages: Vec<u32>,
    /// Residual at `x` (scratch, rewritten per iteration).
    f: Vec<f64>,
    /// Residual slope at `x`, then the Newton step (scratch, rewritten
    /// per iteration).
    step: Vec<f64>,
}

impl ActiveLanes {
    /// Allocates all `n` slots up front; the seed pass fills them by
    /// direct writes and truncates to the lanes that actually enter the
    /// active set.
    fn with_len(n: usize) -> Self {
        ActiveLanes {
            lane: vec![0; n],
            x: vec![0.0; n],
            lo: vec![0.0; n],
            hi: vec![0.0; n],
            demand: vec![0.0; n],
            stages: vec![0; n],
            f: vec![0.0; n],
            step: vec![0.0; n],
        }
    }

    fn len(&self) -> usize {
        self.lane.len()
    }

    /// The kernel state of active lane `i`.
    fn get(&self, i: usize) -> Lane {
        Lane {
            x: self.x[i],
            lo: self.lo[i],
            hi: self.hi[i],
        }
    }

    fn set(&mut self, i: usize, lane: Lane) {
        self.x[i] = lane.x;
        self.lo[i] = lane.lo;
        self.hi[i] = lane.hi;
    }

    /// Copies surviving lane `src` into compacted slot `dst` during a
    /// retire pass. The `f`/`step` scratch is not copied: both are fully
    /// rewritten from `x` at the top of the next iteration.
    fn compact(&mut self, dst: usize, src: usize) {
        self.lane[dst] = self.lane[src];
        self.x[dst] = self.x[src];
        self.lo[dst] = self.lo[src];
        self.hi[dst] = self.hi[src];
        self.demand[dst] = self.demand[src];
        self.stages[dst] = self.stages[src];
    }

    /// Shrinks the active set to its first `n` (compacted) lanes.
    fn truncate(&mut self, n: usize) {
        self.lane.truncate(n);
        self.x.truncate(n);
        self.lo.truncate(n);
        self.hi.truncate(n);
        self.demand.truncate(n);
        self.stages.truncate(n);
        self.f.truncate(n);
        self.step.truncate(n);
    }
}

/// Lanes per block of the residual pass: enough independent stage
/// ladders to fill the vector units, few enough to stay in registers.
const LANE_BLOCK: usize = 8;

/// Views `LANE_BLOCK` consecutive lanes of a lane array as a block.
fn block<T>(lanes: &[T], start: usize) -> &[T; LANE_BLOCK] {
    lanes[start..start + LANE_BLOCK]
        .try_into()
        .expect("the range is exactly LANE_BLOCK long")
}

/// Solves N independent Patel fixed points in lockstep over flat
/// structure-of-arrays storage.
///
/// Construction is free: the solver holds no state, and every lane stops
/// at [`DEFAULT_TOLERANCE`].
/// See the [module docs](crate::batch) for the execution model and the
/// bit-compatibility guarantee.
///
/// # Examples
///
/// ```
/// use swcc_core::batch::BatchPatelSolver;
/// use swcc_core::network::{solve_with, SolveOptions};
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let rates: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.001).collect();
/// let sizes = vec![20.0; rates.len()];
/// let batch = BatchPatelSolver::new().solve(&rates, &sizes, 8)?;
/// // Bit-identical to the scalar N=1 case:
/// let scalar = solve_with(rates[42], sizes[42], 8, SolveOptions::default())?;
/// assert_eq!(
///     batch.points()[42].think_fraction().to_bits(),
///     scalar.think_fraction().to_bits(),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchPatelSolver;

impl BatchPatelSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        BatchPatelSolver
    }

    /// Solves one lane per `(rate, size)` pair through a network of
    /// uniform `stages` stages, all lanes cold-started.
    ///
    /// # Errors
    ///
    /// As [`BatchPatelSolver::solve_grid`].
    pub fn solve(&self, rates: &[f64], sizes: &[f64], stages: u32) -> Result<PatelBatchSolution> {
        self.solve_grid(rates, sizes, &Stages::Uniform(stages), None)
    }

    /// Like [`BatchPatelSolver::solve`], but with a per-lane warm-start
    /// hint (use [`COLD`] — or any value outside `(0, 1)` — for lanes
    /// without one). A lane's hint has exactly the semantics of
    /// [`SolveOptions::hint`](crate::network::SolveOptions): a wrong
    /// hint costs iterations, never correctness.
    ///
    /// # Errors
    ///
    /// As [`BatchPatelSolver::solve_grid`].
    pub fn solve_hinted(
        &self,
        rates: &[f64],
        sizes: &[f64],
        stages: u32,
        hints: &[f64],
    ) -> Result<PatelBatchSolution> {
        self.solve_grid(rates, sizes, &Stages::Uniform(stages), Some(hints))
    }

    /// The general form: per-lane stage counts ([`Stages::PerLane`])
    /// and optional per-lane hints.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the slices disagree in
    /// length, or if any rate or size is negative or non-finite.
    pub fn solve_grid(
        &self,
        rates: &[f64],
        sizes: &[f64],
        stages: &Stages<'_>,
        hints: Option<&[f64]>,
    ) -> Result<PatelBatchSolution> {
        let n = rates.len();
        if sizes.len() != n || !stages.matches(n) || hints.map(|h| h.len() != n).unwrap_or(false) {
            return Err(ModelError::InvalidConfig {
                name: "batch",
                reason: "lane slices must all have the same length",
            });
        }
        // Branch-free AND-folds so validation vectorizes instead of
        // short-circuiting lane by lane.
        if !rates
            .iter()
            .fold(true, |ok, r| ok & (r.is_finite() & (*r >= 0.0)))
        {
            return Err(ModelError::InvalidConfig {
                name: "rate",
                reason: "must be finite and non-negative",
            });
        }
        if !sizes
            .iter()
            .fold(true, |ok, s| ok & (s.is_finite() & (*s >= 0.0)))
        {
            return Err(ModelError::InvalidConfig {
                name: "size",
                reason: "must be finite and non-negative",
            });
        }

        let tracing = swcc_obs::trace_enabled();
        let _batch_span = if tracing {
            swcc_obs::span(
                metrics::EV_BATCH_SOLVE,
                &[
                    swcc_obs::Field::u64("lanes", n as u64),
                    swcc_obs::Field::f64("tolerance", DEFAULT_TOLERANCE),
                ],
            )
        } else {
            swcc_obs::span(metrics::EV_BATCH_SOLVE, &[])
        };

        let mut points = vec![OperatingPoint::from_parts(0, 0.0, 0.0, 1.0, 0.0); n];
        let mut iterations = vec![0u32; n];
        let mut converged = vec![true; n];
        let mut active = ActiveLanes::with_len(n);
        let mut warm_lanes = 0u64;
        {
            let demand = &mut active.demand[..n];
            for i in 0..n {
                demand[i] = rates[i] * sizes[i];
            }
        }
        let zero_demand_lanes = active.demand.iter().filter(|d| **d == 0.0).count(); // swcc-lint: allow(float-eq) — counting idle lanes: -0.0 demand is idle too
        if hints.is_none() && zero_demand_lanes == 0 {
            // Fast seed: every lane enters the active set cold, in
            // straight vectorizable passes.
            let demand = &active.demand[..n];
            let (x, lo, hi) = (&mut active.x[..n], &mut active.lo[..n], &mut active.hi[..n]);
            for i in 0..n {
                let lane = Lane::cold(demand[i]);
                x[i] = lane.x;
                lo[i] = lane.lo;
                hi[i] = lane.hi;
            }
            let lane = &mut active.lane[..n];
            for (i, l) in lane.iter_mut().enumerate() {
                *l = i as u32;
            }
            match stages {
                Stages::Uniform(s) => active.stages.fill(*s),
                Stages::PerLane(s) => active.stages.copy_from_slice(s),
            }
        } else {
            // General seed. Zero-demand lanes retire immediately (the
            // processor thinks full-time), exactly as the scalar
            // solver's early return; everything else enters the active
            // set started from its hint, exactly as the scalar solver
            // starts.
            let mut width = 0;
            for i in 0..n {
                let stage_count = stages.get(i);
                let demand = rates[i] * sizes[i];
                // swcc-lint: allow(float-eq) — a zero-demand lane never enters the network; -0.0 is zero demand
                if demand == 0.0 {
                    points[i] =
                        OperatingPoint::from_parts(stage_count, rates[i], sizes[i], 1.0, 0.0);
                    continue;
                }
                let (lane, warm) = Lane::start(demand, hints.map_or(COLD, |h| h[i]));
                warm_lanes += u64::from(warm);
                active.lane[width] = i as u32;
                active.set(width, lane);
                active.demand[width] = demand;
                active.stages[width] = stage_count;
                width += 1;
            }
            active.truncate(width);
        }

        let solved_lanes = active.len() as u64;
        let uniform = match stages {
            Stages::Uniform(s) => Some(*s),
            Stages::PerLane(_) => None,
        };

        // Each lockstep iteration is one kernel step for every active
        // lane (see `crate::network::patel`), run phase by phase as
        // passes over the lane arrays.
        let mut iteration = 0u32;
        let mut total_iterations = 0u64;
        let mut fallbacks = 0u64;
        while active.len() > 0 {
            iteration += 1;
            let width = active.len();
            total_iterations += width as u64;

            // Phase 1, residual and slope, in blocks of `LANE_BLOCK`
            // lanes so each block's stage ladder runs in registers.
            // Uniform stages hand the kernel one shared count, which
            // folds its per-lane stage masks away.
            {
                let x = &active.x[..width];
                let demand = &active.demand[..width];
                let lane_stages = &active.stages[..width];
                let f = &mut active.f[..width];
                let slope = &mut active.step[..width];
                let mut i = 0;
                while i + LANE_BLOCK <= width {
                    let (bf, bs) = match uniform {
                        Some(s) => {
                            residual_and_slope(block(x, i), block(demand, i), &[s; LANE_BLOCK])
                        }
                        None => {
                            residual_and_slope(block(x, i), block(demand, i), block(lane_stages, i))
                        }
                    };
                    f[i..i + LANE_BLOCK].copy_from_slice(&bf);
                    slope[i..i + LANE_BLOCK].copy_from_slice(&bs);
                    i += LANE_BLOCK;
                }
                for j in i..width {
                    let ([fj], [sj]) = residual_and_slope(&[x[j]], &[demand[j]], &[lane_stages[j]]);
                    f[j] = fj;
                    slope[j] = sj;
                }
            }

            // Phases 2 and 3: bracket update and Newton step for every
            // lane, plus a count of the lanes the retire test will
            // take. The step replaces the slope in `step`, so the
            // retire pass below never recomputes it. Branch-free, so
            // the pass (division included) vectorizes.
            let mut retiring = 0usize;
            let capped = iteration >= MAX_ITERATIONS;
            {
                let f = &active.f[..width];
                let step = &mut active.step[..width];
                let x = &active.x[..width];
                let lo = &mut active.lo[..width];
                let hi = &mut active.hi[..width];
                for i in 0..width {
                    let mut lane = Lane {
                        x: x[i],
                        lo: lo[i],
                        hi: hi[i],
                    };
                    step[i] = lane.bracket(f[i], step[i]);
                    lo[i] = lane.lo;
                    hi[i] = lane.hi;
                    retiring += usize::from(lane.retire(step[i], capped).is_some());
                }
            }

            let mut retired = 0u64;
            if retiring == 0 {
                // Common early-iteration case: nobody retires, so phase
                // 4 is a plain pass of guarded steps.
                let step = &active.step[..width];
                let x = &mut active.x[..width];
                let lo = &active.lo[..width];
                let hi = &active.hi[..width];
                for i in 0..width {
                    let mut lane = Lane {
                        x: x[i],
                        lo: lo[i],
                        hi: hi[i],
                    };
                    fallbacks += u64::from(lane.advance(step[i]));
                    x[i] = lane.x;
                }
            } else {
                // Retire-and-compact scan: phases 3 and 4 per lane.
                // Retired lanes scatter their results; survivors take
                // their guarded step and slide down to the write
                // cursor, preserving lane order.
                let mut write = 0;
                for i in 0..width {
                    let mut lane = active.get(i);
                    let step = active.step[i];
                    match lane.retire(step, capped) {
                        Some((u, lane_converged)) => {
                            let index = active.lane[i] as usize;
                            points[index] = OperatingPoint::from_parts(
                                active.stages[i],
                                rates[index],
                                sizes[index],
                                u,
                                u * active.demand[i],
                            );
                            iterations[index] = iteration;
                            converged[index] = lane_converged;
                            retired += 1;
                        }
                        None => {
                            fallbacks += u64::from(lane.advance(step));
                            active.x[i] = lane.x;
                            active.compact(write, i);
                            write += 1;
                        }
                    }
                }
                active.truncate(write);
            }
            if tracing {
                swcc_obs::event_sampled(
                    metrics::EV_BATCH_ITERATION,
                    &[
                        swcc_obs::Field::u64("iter", u64::from(iteration)),
                        swcc_obs::Field::u64("active", width as u64),
                        swcc_obs::Field::u64("retired", retired),
                    ],
                );
            }
        }

        if swcc_obs::enabled() {
            swcc_obs::counter_add(metrics::BATCH_PATEL_BATCHES, 1);
            swcc_obs::counter_add(metrics::BATCH_PATEL_LANES, n as u64);
            swcc_obs::observe(metrics::BATCH_LANE_WIDTH, n as f64);
            // The batch does the same numerical work the scalar solver
            // would, so it reports through the same solver counters.
            if solved_lanes > 0 {
                swcc_obs::counter_add(metrics::SOLVER_SOLVES, solved_lanes);
                swcc_obs::counter_add(metrics::SOLVER_RESIDUAL_EVALS, total_iterations);
                if warm_lanes > 0 {
                    swcc_obs::counter_add(metrics::SOLVER_WARM_REUSES, warm_lanes);
                }
                if fallbacks > 0 {
                    swcc_obs::counter_add(metrics::SOLVER_BRACKET_FALLBACKS, fallbacks);
                }
                for &iters in &iterations {
                    if iters > 0 {
                        swcc_obs::observe(metrics::SOLVER_ITERATIONS, f64::from(iters));
                        swcc_obs::observe(metrics::BATCH_RETIRE_ITERATIONS, f64::from(iters));
                    }
                }
            }
        }

        Ok(PatelBatchSolution {
            points,
            iterations,
            converged,
            total_iterations,
        })
    }
}

/// Stage counts for a batch Patel solve: one shared count, or one per
/// lane (as a network-size sweep needs).
#[derive(Debug, Clone, Copy)]
pub enum Stages<'a> {
    /// Every lane propagates through the same number of stages.
    Uniform(u32),
    /// Lane `i` propagates through `counts[i]` stages.
    PerLane(&'a [u32]),
}

impl Stages<'_> {
    fn matches(&self, lanes: usize) -> bool {
        match self {
            Stages::Uniform(_) => true,
            Stages::PerLane(counts) => counts.len() == lanes,
        }
    }

    fn get(&self, lane: usize) -> u32 {
        match self {
            Stages::Uniform(s) => *s,
            Stages::PerLane(counts) => counts[lane],
        }
    }
}

/// Solves the machine-repairman model at population `customers` for a
/// whole grid of `(service, think)` lanes in one lockstep MVA pass.
///
/// Lane `i` is **bit-identical** to
/// `machine_repairman(customers, services[i], thinks[i])`: the
/// recurrence runs population-outer/lane-inner, so each lane's float
/// ops happen in the scalar order. Zero-service lanes get the scalar
/// path's contention-free closed form.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] if `customers == 0`, the
/// slices disagree in length, or any lane fails the scalar parameter
/// checks (negative/non-finite times, both times zero).
///
/// # Examples
///
/// ```
/// use swcc_core::batch::machine_repairman_grid;
/// use swcc_core::queue::machine_repairman;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let services = [0.37, 0.5, 0.0];
/// let thinks = [1.2, 2.0, 5.0];
/// let grid = machine_repairman_grid(16, &services, &thinks)?;
/// assert_eq!(grid[1], machine_repairman(16, 0.5, 2.0)?);
/// # Ok(())
/// # }
/// ```
pub fn machine_repairman_grid(
    customers: u32,
    services: &[f64],
    thinks: &[f64],
) -> Result<Vec<MvaSolution>> {
    queue::validate(Some(customers), services, thinks)?;
    let n = services.len();
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::BATCH_MVA_GRIDS, 1);
        swcc_obs::counter_add(metrics::BATCH_MVA_GRID_LANES, n as u64);
        swcc_obs::observe(metrics::BATCH_LANE_WIDTH, n as f64);
        // Same numerical work as n pointwise solves.
        swcc_obs::counter_add(metrics::MVA_SOLVES, n as u64);
    }
    let _grid_span = if swcc_obs::trace_enabled() {
        swcc_obs::span(
            metrics::EV_BATCH_MVA_GRID,
            &[
                swcc_obs::Field::u64("lanes", n as u64),
                swcc_obs::Field::u64("customers", u64::from(customers)),
            ],
        )
    } else {
        swcc_obs::span(metrics::EV_BATCH_MVA_GRID, &[])
    };

    // Contended lanes iterate; zero-service lanes take the closed form.
    let mut lane: Vec<u32> = Vec::with_capacity(n);
    let mut service: Vec<f64> = Vec::with_capacity(n);
    let mut think: Vec<f64> = Vec::with_capacity(n);
    let mut out = vec![MvaSolution::from_parts(0, 0.0, 0.0, 0.0, 0.0, 0.0); n];
    for i in 0..n {
        // swcc-lint: allow(float-eq) — zero service short-circuits the MVA recursion; -0.0 is the same no-op queue
        if services[i] == 0.0 {
            out[i] = queue::idle(customers, services[i], thinks[i]);
        } else {
            lane.push(i as u32);
            service.push(services[i]);
            think.push(thinks[i]);
        }
    }
    let width = lane.len();
    let mut response = vec![0.0; width];
    let mut throughput = vec![0.0; width];
    let mut queue_len = vec![0.0; width];
    for k in 1..=customers {
        let kf = f64::from(k);
        let response = &mut response[..width];
        let throughput = &mut throughput[..width];
        let queue_len = &mut queue_len[..width];
        let service = &service[..width];
        let think = &think[..width];
        for i in 0..width {
            (response[i], throughput[i], queue_len[i]) =
                queue::step(service[i], think[i], kf, queue_len[i]);
        }
    }
    for i in 0..width {
        out[lane[i] as usize] = MvaSolution::from_parts(
            customers,
            service[i],
            think[i],
            response[i],
            throughput[i],
            queue_len[i],
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{solve_with, SolveOptions};
    use crate::queue::machine_repairman;

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    /// A cold scalar solve and the residual evaluations it reported.
    fn scalar_solve(rate: f64, size: f64, stages: u32) -> (OperatingPoint, u64) {
        let (point, span) =
            swcc_obs::capture(|| solve_with(rate, size, stages, SolveOptions::default()).unwrap());
        let iterations = span.counter(metrics::SOLVER_RESIDUAL_EVALS).unwrap_or(0);
        (point, iterations)
    }

    #[test]
    fn empty_batch_is_valid() {
        let s = BatchPatelSolver::new().solve(&[], &[], 8).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.total_iterations(), 0);
        assert!(machine_repairman_grid(4, &[], &[]).unwrap().is_empty());
    }

    #[test]
    fn single_lane_matches_scalar_bitwise() {
        let (rate, size, stages) = (0.03, 20.0, 8);
        let batch = BatchPatelSolver::new()
            .solve(&[rate], &[size], stages)
            .unwrap();
        let scalar = solve_with(rate, size, stages, SolveOptions::default()).unwrap();
        assert_eq!(
            bits(batch.points()[0].think_fraction()),
            bits(scalar.think_fraction())
        );
        assert_eq!(
            bits(batch.points()[0].accepted_rate()),
            bits(scalar.accepted_rate())
        );
        assert!(batch.converged()[0]);
    }

    #[test]
    fn lanes_retire_at_different_iterations_without_cross_talk() {
        // A near-idle lane converges in a couple of Newton steps; a
        // saturated lane needs several more. Both must match their
        // scalar counterparts exactly even though they share a batch.
        let rates = [0.0005, 0.045, 0.002, 0.049];
        let sizes = [20.0, 20.0, 20.0, 20.0];
        let batch = BatchPatelSolver::new().solve(&rates, &sizes, 8).unwrap();
        let mut distinct = std::collections::BTreeSet::new();
        for (i, (&rate, &size)) in rates.iter().zip(&sizes).enumerate() {
            let (scalar, iterations) = scalar_solve(rate, size, 8);
            assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction()),
                "lane {i}"
            );
            assert_eq!(
                u64::from(batch.iterations()[i]),
                iterations,
                "lane {i} iteration count"
            );
            distinct.insert(batch.iterations()[i]);
        }
        assert!(
            distinct.len() >= 2,
            "test lanes should converge at different iterations, got {distinct:?}"
        );
        assert_eq!(
            batch.total_iterations(),
            batch
                .iterations()
                .iter()
                .map(|&i| u64::from(i))
                .sum::<u64>()
        );
    }

    #[test]
    fn zero_demand_lanes_think_full_time() {
        let batch = BatchPatelSolver::new()
            .solve(&[0.0, 0.03, 0.5], &[20.0, 20.0, 0.0], 8)
            .unwrap();
        assert_eq!(batch.points()[0].think_fraction(), 1.0);
        assert_eq!(batch.points()[2].think_fraction(), 1.0);
        assert_eq!(batch.iterations()[0], 0);
        assert_eq!(batch.iterations()[2], 0);
        assert!(batch.iterations()[1] > 0);
    }

    #[test]
    fn hints_match_scalar_hinted_solves() {
        let rates = [0.03, 0.01, 0.02];
        let sizes = [20.0, 17.0, 12.0];
        let hints = [0.5, COLD, 2.0];
        let batch = BatchPatelSolver::new()
            .solve_hinted(&rates, &sizes, 8, &hints)
            .unwrap();
        for i in 0..rates.len() {
            let scalar = solve_with(
                rates[i],
                sizes[i],
                8,
                SolveOptions {
                    hint: Some(hints[i]),
                },
            )
            .unwrap();
            assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction()),
                "lane {i}"
            );
        }
    }

    #[test]
    fn per_lane_stages_match_scalar() {
        let rates = [0.03, 0.03, 0.03, 0.0];
        let sizes = [20.0, 20.0, 20.0, 20.0];
        let stages = [0u32, 4, 10, 6];
        let batch = BatchPatelSolver::new()
            .solve_grid(&rates, &sizes, &Stages::PerLane(&stages), None)
            .unwrap();
        for i in 0..rates.len() {
            let scalar =
                solve_with(rates[i], sizes[i], stages[i], SolveOptions::default()).unwrap();
            assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction()),
                "lane {i} ({} stages)",
                stages[i]
            );
            assert_eq!(batch.points()[i].stages(), stages[i]);
        }
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let s = BatchPatelSolver::new();
        assert!(s.solve(&[0.1], &[1.0, 2.0], 4).is_err(), "length mismatch");
        assert!(s.solve(&[-0.1], &[1.0], 4).is_err(), "negative rate");
        assert!(s.solve(&[0.1], &[f64::NAN], 4).is_err(), "nan size");
        assert!(
            s.solve_hinted(&[0.1], &[1.0], 4, &[]).is_err(),
            "hint length mismatch"
        );
        assert!(
            s.solve_grid(&[0.1], &[1.0], &Stages::PerLane(&[]), None)
                .is_err(),
            "stages length mismatch"
        );
    }

    #[test]
    fn mva_grid_matches_scalar_bitwise() {
        let services = [0.37, 0.0, 2.0, 1e-6];
        let thinks = [1.2, 5.0, 0.0, 3.0];
        let grid = machine_repairman_grid(32, &services, &thinks).unwrap();
        for i in 0..services.len() {
            let scalar = machine_repairman(32, services[i], thinks[i]).unwrap();
            assert_eq!(grid[i], scalar, "lane {i}");
        }
    }

    #[test]
    fn mva_grid_rejects_bad_inputs() {
        assert!(machine_repairman_grid(0, &[1.0], &[1.0]).is_err());
        assert!(machine_repairman_grid(4, &[1.0], &[]).is_err());
        assert!(machine_repairman_grid(4, &[-1.0], &[1.0]).is_err());
        assert!(machine_repairman_grid(4, &[0.0], &[0.0]).is_err());
        assert!(machine_repairman_grid(4, &[1.0], &[f64::NAN]).is_err());
    }
}
