//! Patel's probabilistic model of an unbuffered, circuit-switched
//! multistage interconnection network (paper §6.2).
//!
//! The network is a Banyan/Omega/Delta of 2×2 crossbars with unit
//! dilation. A request travels through `n` switch stages; if two
//! messages contend for an output port one is forwarded and the other
//! dropped (the source retries). Under the *unit-request approximation*
//! a processor that needs `t` interconnect cycles per transaction at
//! rate `m` transactions/cycle is treated as issuing `m·t` independent
//! unit-time requests per cycle.
//!
//! With `m_i` the probability of a request at an input of stage `i`, the
//! paper's system of equations is
//!
//! ```text
//! m_{i+1} = 1 − (1 − m_i/2)²    0 ≤ i < n       (stage propagation)
//! m_0     = 1 − U                               (offered load)
//! U       = m_n / (m·t)                         (consistency)
//! ```
//!
//! `U` is the fraction of time the processor is doing CPU work ("think
//! fraction"); whenever it is not, it is presenting a (re)request at the
//! network input, hence `m_0 = 1 − U`. The accepted unit-request rate at
//! the memory side is `m_n`, and consistency requires it to equal the
//! demand `U·m·t`.
//!
//! The fixed point is solved by one bracket-guarded Newton kernel (the
//! residual is strictly decreasing in `U`, so `[0, 1]` brackets the
//! root): Newton steps converge quadratically, and a step that would
//! leave the bracket falls back to its midpoint, so the worst case is
//! bisection. The same per-lane step backs [`solve`], [`solve_with`]
//! and every lane of [`BatchPatelSolver`](crate::batch::BatchPatelSolver),
//! so a scalar solve and a batch lane return the same bits; a cold
//! solve takes about four to five residual evaluations at the default
//! tolerance.

use serde::{Deserialize, Serialize};
use swcc_obs::Field;

use crate::error::{ModelError, Result};
use crate::metrics;

/// Propagates an offered load through `stages` stages of 2×2 crossbars.
///
/// Returns the request probability at the memory side. The propagation
/// function `f(m) = 1 − (1 − m/2)²` maps `[0, 1]` into `[0, 3/4]`,
/// modelling dropped requests under contention.
pub fn propagate(m0: f64, stages: u32) -> f64 {
    let mut m = m0.clamp(0.0, 1.0);
    for _ in 0..stages {
        m = stage(m).0;
    }
    m
}

/// The solved operating point of the network for one `(m, t)` demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    stages: u32,
    rate: f64,
    size: f64,
    think_fraction: f64,
    accepted: f64,
}

impl OperatingPoint {
    /// Assembles a solved point from the solver's inputs, `stages`,
    /// `rate` and `size`, and its two outputs, `think_fraction` (`U`)
    /// and `accepted` (`m_n`).
    ///
    /// Every solver builds its points this way (the batch engine solves
    /// the fixed point outside this module; see [`crate::batch`]), so a
    /// caller that keeps the two outputs of a solve can rebuild the
    /// same point, bit for bit, from the same inputs.
    pub fn from_parts(
        stages: u32,
        rate: f64,
        size: f64,
        think_fraction: f64,
        accepted: f64,
    ) -> Self {
        OperatingPoint {
            stages,
            rate,
            size,
            think_fraction,
            accepted,
        }
    }

    /// Number of network stages `n`.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Offered transaction rate `m` (transactions per processor cycle).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Transaction size `t` (interconnect cycles per transaction).
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The paper's `U`: fraction of time the processor computes (thinks)
    /// rather than waits on the network.
    pub fn think_fraction(&self) -> f64 {
        self.think_fraction
    }

    /// Accepted unit-request rate at the memory side, `m_n`.
    pub fn accepted_rate(&self) -> f64 {
        self.accepted
    }

    /// Throughput in transactions per cycle: `U·m = m_n / t`.
    ///
    /// When `m = 1/(c−b)` and `t = b` come from a per-instruction demand,
    /// this is instructions per cycle — directly comparable to the bus
    /// model's `U = 1/(c+w)`.
    pub fn throughput(&self) -> f64 {
        // swcc-lint: allow(float-eq) — zero packet size means no network demand; -0.0 included by design
        if self.size == 0.0 {
            // No network demand: the processor is limited only by think
            // time; one transaction per think period.
            self.rate
        } else {
            self.accepted / self.size
        }
    }
}

/// Solves the fixed point for a processor offering transactions of size
/// `size` cycles at `rate` transactions per cycle through a network of
/// `stages` stages: the cold guarded-Newton solve at
/// [`DEFAULT_TOLERANCE`], i.e. [`solve_with`] with default options.
///
/// Every Patel entry point runs the same per-lane step (see the module
/// docs), so this returns the same bits for the same `(rate, size,
/// stages)` as a cold
/// [`BatchPatelSolver`](crate::batch::BatchPatelSolver) lane.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] if `rate` or `size` is negative
/// or non-finite.
pub fn solve(rate: f64, size: f64, stages: u32) -> Result<OperatingPoint> {
    solve_with(rate, size, stages, SolveOptions::default())
}

/// The stopping tolerance of every guarded-Newton solve: a lane
/// retires once its Newton step is at most half of it, or once its root
/// bracket is at most this wide, i.e. `U` is resolved to well below any
/// model-relevant difference.
pub const DEFAULT_TOLERANCE: f64 = 1e-13;

/// Residual evaluations after which a lane whose bracket is still wider
/// than the tolerance retires at the bracket midpoint, flagged as not
/// converged.
pub(crate) const MAX_ITERATIONS: u32 = 200;

/// Options controlling a warm-started fixed-point solve
/// ([`solve_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// A guess for the root — typically the `U` of a nearby operating
    /// point (e.g. the previous point of a sweep). The solve's first
    /// probe is the guess instead of the light-load approximation, so a
    /// good guess saves Newton steps; a wrong one costs steps but never
    /// a wrong answer. Guesses outside the open interval `(0, 1)`
    /// (including NaN) are ignored.
    ///
    /// A hinted solve stops at a different Newton iterate than the cold
    /// one, so its `U` can differ from the cold answer in the last bits
    /// (within the tolerance). Every model entry point solves cold.
    pub hint: Option<f64>,
}

// --- The guarded-Newton kernel -----------------------------------------
//
// The residual f(U) = propagate(1 − U) − U·m·t is strictly decreasing
// (f(0) = propagate(1) ≥ 0, f(1) = −m·t < 0), so [0, 1] brackets its
// root. One step of the solve, per lane:
//
// 1. residual and slope at the probe `x`, through `stages` 2×2 stages
//    (`residual_and_slope`);
// 2. bracket update by the residual's sign, and the Newton step −f/f'
//    (`Lane::bracket`);
// 3. the retire test (`Lane::retire`);
// 4. otherwise the guarded step: to x + step, or to the bracket midpoint
//    when that would leave the bracket (`Lane::advance`).
//
// The scalar loop (`solve_with`, behind `solve`) runs the phases in
// sequence; `crate::batch` runs each phase as one pass over all of its
// active lanes. Each phase is written once, here, and a lane never
// reads another lane's state, so a lane's float-op sequence is the same
// on every path.

/// One 2×2 crossbar stage: the request probability leaving it, and the
/// probability `1 − m/2` that a request entering with probability `m`
/// passes, which is also the stage's derivative.
#[inline(always)]
fn stage(m: f64) -> (f64, f64) {
    let pass = 1.0 - m / 2.0;
    (1.0 - pass * pass, pass)
}

/// Phase 1 for `W` lanes: the residual `f(U) = propagate(1 − U) − U·m·t`
/// and its slope `f'(U)` at each lane's probe `x[k]`, with demand
/// `demand[k]` through `stages[k]` stages.
///
/// By the chain rule `d(propagate)/dU` is minus the product of the pass
/// probabilities, so `f' < 0` and a Newton step is always defined. The
/// stage ladder runs stage-outer/lane-inner, so for `W > 1` the lanes'
/// values stay in registers and the ladder vectorizes; a lane with fewer
/// stages than the block's deepest keeps its values once its own stages
/// are done. `W = 1` is the scalar solve. Each lane sees exactly the
/// scalar sequence of operations, whatever the block.
#[inline(always)]
pub(crate) fn residual_and_slope<const W: usize>(
    x: &[f64; W],
    demand: &[f64; W],
    stages: &[u32; W],
) -> ([f64; W], [f64; W]) {
    let mut m = x.map(|x| (1.0 - x).clamp(0.0, 1.0));
    let mut dm = [-1.0; W];
    // Every lane takes the block's shallowest count of stages in
    // lockstep; only the rounds past it need a per-lane mask, and a
    // block with one shared count has none.
    let shallow = stages.iter().copied().min().unwrap_or(0);
    let deep = stages.iter().copied().max().unwrap_or(0);
    for _ in 0..shallow {
        for k in 0..W {
            let (next, pass) = stage(m[k]);
            m[k] = next;
            dm[k] *= pass;
        }
    }
    for round in shallow..deep {
        for k in 0..W {
            if round < stages[k] {
                let (next, pass) = stage(m[k]);
                m[k] = next;
                dm[k] *= pass;
            }
        }
    }
    let mut f = [0.0; W];
    let mut slope = [0.0; W];
    for k in 0..W {
        f[k] = m[k] - x[k] * demand[k];
        slope[k] = dm[k] - demand[k];
    }
    (f, slope)
}

/// The guarded-Newton state of one lane: its probe `x` and its root
/// bracket `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) x: f64,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Lane {
    /// A cold lane for demand `m·t`: the full bracket `[0, 1]`, probed
    /// first at the light-load approximation `U ≈ 1/(1 + m·t)`, which
    /// is exact as contention vanishes.
    #[inline(always)]
    pub(crate) fn cold(demand: f64) -> Lane {
        Lane {
            x: 1.0 / (1.0 + demand),
            lo: 0.0,
            hi: 1.0,
        }
    }

    /// A lane probed first at `hint` when it lies strictly inside
    /// `(0, 1)` — typically the root of a nearby operating point — and
    /// cold otherwise (NaN included). Also returns whether the hint was
    /// taken.
    #[inline(always)]
    pub(crate) fn start(demand: f64, hint: f64) -> (Lane, bool) {
        if hint > 0.0 && hint < 1.0 {
            (
                Lane {
                    x: hint,
                    lo: 0.0,
                    hi: 1.0,
                },
                true,
            )
        } else {
            (Lane::cold(demand), false)
        }
    }

    /// Phase 2: tightens the bracket by the sign of the residual `f` at
    /// `x` (the residual is decreasing, so `f ≥ 0` puts the root at or
    /// above `x`) and returns the Newton step `−f/slope`.
    #[inline(always)]
    pub(crate) fn bracket(&mut self, f: f64, slope: f64) -> f64 {
        let above = f >= 0.0;
        self.lo = if above { self.x } else { self.lo };
        self.hi = if above { self.hi } else { self.x };
        -f / slope
    }

    /// Phase 3: the retire test for the step just computed. A lane
    /// retires with `(root, converged)`
    ///
    /// * on a step of at most half of [`DEFAULT_TOLERANCE`]: quadratic
    ///   convergence makes `x + step` essentially exact, so it is taken,
    ///   clamped into the bracket, without another evaluation;
    /// * on a bracket at most [`DEFAULT_TOLERANCE`] wide: at its midpoint;
    /// * when `capped` (the iteration cap is reached) with the bracket
    ///   still wider: at its midpoint, not converged.
    #[inline(always)]
    pub(crate) fn retire(&self, step: f64, capped: bool) -> Option<(f64, bool)> {
        if step.abs() <= 0.5 * DEFAULT_TOLERANCE {
            // `f64::clamp` minus its `lo <= hi` assertion, which cannot
            // fire (the bracket never inverts) but would keep the batch
            // engine's retire-count pass from vectorizing.
            let root = self.x + step;
            let root = if root < self.lo { self.lo } else { root };
            Some((if root > self.hi { self.hi } else { root }, true))
        } else if self.hi - self.lo <= DEFAULT_TOLERANCE {
            Some((self.midpoint(), true))
        } else if capped {
            Some((self.midpoint(), false))
        } else {
            None
        }
    }

    /// Phase 4: the guarded step — to `x + step` when that lies strictly
    /// inside the bracket, else to the bracket's midpoint, so the worst
    /// case degrades to bisection and cannot diverge. Returns whether it
    /// fell back to the midpoint.
    #[inline(always)]
    pub(crate) fn advance(&mut self, step: f64) -> bool {
        let newton = self.x + step;
        let inside = (newton > self.lo) & (newton < self.hi);
        self.x = if inside { newton } else { self.midpoint() };
        !inside
    }

    #[inline(always)]
    fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Like [`solve`], but with an optional warm-start hint (see
/// [`SolveOptions`]). With default options it is [`solve`].
///
/// This is the scalar loop: validation, then the kernel's step on one
/// lane until it retires at [`DEFAULT_TOLERANCE`], allocation-free.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with(
    rate: f64,
    size: f64,
    stages: u32,
    options: SolveOptions,
) -> Result<OperatingPoint> {
    if !rate.is_finite() || rate < 0.0 {
        return Err(ModelError::InvalidConfig {
            name: "rate",
            reason: "must be finite and non-negative",
        });
    }
    if !size.is_finite() || size < 0.0 {
        return Err(ModelError::InvalidConfig {
            name: "size",
            reason: "must be finite and non-negative",
        });
    }
    let demand = rate * size;
    // swcc-lint: allow(float-eq) — zero demand skips the queueing model; -0.0 is zero demand
    if demand == 0.0 {
        // The processor never uses the network: it thinks all the time.
        return Ok(OperatingPoint {
            stages,
            rate,
            size,
            think_fraction: 1.0,
            accepted: 0.0,
        });
    }
    let (mut lane, warm) = Lane::start(demand, options.hint.unwrap_or(f64::NAN));
    let tracing = swcc_obs::trace_enabled();
    let _solve_span = if tracing {
        swcc_obs::span(
            metrics::EV_SOLVER_SOLVE,
            &[
                Field::f64("rate", rate),
                Field::f64("size", size),
                Field::u64("stages", u64::from(stages)),
                Field::bool("warm", warm),
            ],
        )
    } else {
        swcc_obs::span(metrics::EV_SOLVER_SOLVE, &[])
    };
    let mut iterations = 0u32;
    let mut fallbacks = 0u64;
    let (u, converged) = loop {
        let ([f], [slope]) = residual_and_slope(&[lane.x], &[demand], &[stages]);
        iterations += 1;
        if tracing {
            swcc_obs::event_sampled(
                metrics::EV_SOLVER_ITERATION,
                &[
                    Field::u64("iter", u64::from(iterations)),
                    Field::f64("x", lane.x),
                    Field::f64("residual", f),
                    Field::f64("lo", lane.lo),
                    Field::f64("hi", lane.hi),
                ],
            );
        }
        let step = lane.bracket(f, slope);
        if let Some(root) = lane.retire(step, iterations >= MAX_ITERATIONS) {
            break root;
        }
        fallbacks += u64::from(lane.advance(step));
    };
    if tracing {
        swcc_obs::event(
            metrics::EV_SOLVER_RESULT,
            &[
                Field::u64("iterations", u64::from(iterations)),
                Field::u64("fallbacks", fallbacks),
                Field::f64("root", u),
                Field::bool("converged", converged),
            ],
        );
    }
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::SOLVER_SOLVES, 1);
        swcc_obs::counter_add(metrics::SOLVER_RESIDUAL_EVALS, u64::from(iterations));
        swcc_obs::observe(metrics::SOLVER_ITERATIONS, f64::from(iterations));
        if warm {
            swcc_obs::counter_add(metrics::SOLVER_WARM_REUSES, 1);
        }
        if fallbacks > 0 {
            swcc_obs::counter_add(metrics::SOLVER_BRACKET_FALLBACKS, fallbacks);
        }
    }
    Ok(OperatingPoint {
        stages,
        rate,
        size,
        think_fraction: u,
        accepted: u * demand,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_is_identity_for_zero_stages() {
        assert_eq!(propagate(0.4, 0), 0.4);
    }

    #[test]
    fn propagation_attenuates_heavy_load() {
        // One saturated stage passes 3/4 of unit load.
        assert!((propagate(1.0, 1) - 0.75).abs() < 1e-12);
        // Light load passes almost unchanged.
        assert!((propagate(0.01, 1) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn propagation_is_monotone_in_load() {
        for stages in [1u32, 4, 8] {
            let mut prev = 0.0;
            for i in 0..=100 {
                let m = f64::from(i) / 100.0;
                let out = propagate(m, stages);
                assert!(out >= prev - 1e-12);
                assert!(out <= m + 1e-12, "network cannot create requests");
                prev = out;
            }
        }
    }

    #[test]
    fn light_load_limit_matches_bus_model() {
        // At negligible demand, throughput·(1/m) → ... U → 1/(1 + m·t),
        // so transactions/cycle → 1/(1/m + t), i.e. 1/c for m = 1/(c−b),
        // t = b.
        let c = 1.5;
        let b = 0.01;
        let op = solve(1.0 / (c - b), b, 8).unwrap();
        // Contention at these rates is small but not zero.
        assert!((op.throughput() - 1.0 / c).abs() < 0.05 / c);
        assert!(op.throughput() <= 1.0 / c + 1e-12);
    }

    #[test]
    fn fixed_point_satisfies_papers_equations() {
        let (m, t, n) = (0.03, 20.0, 8);
        let op = solve(m, t, n).unwrap();
        let u = op.think_fraction();
        let mn = propagate(1.0 - u, n);
        assert!((mn - u * m * t).abs() < 1e-9, "consistency equation");
        assert!((op.accepted_rate() - mn).abs() < 1e-9);
    }

    #[test]
    fn paper_example_halved_utilization() {
        // §6.3: 256 processors (n=8), 3% miss rate, message size 4 words
        // plus 2n = unit-rate 0.6 — "the processor utilization is halved".
        let op = solve(0.03, 20.0, 8).unwrap();
        let u = op.think_fraction();
        assert!((0.40..=0.60).contains(&u), "got U = {u}");
    }

    #[test]
    fn zero_demand_thinks_full_time() {
        let op = solve(0.0, 10.0, 8).unwrap();
        assert_eq!(op.think_fraction(), 1.0);
        let op = solve(0.5, 0.0, 8).unwrap();
        assert_eq!(op.think_fraction(), 1.0);
        assert_eq!(op.throughput(), 0.5);
    }

    #[test]
    fn utilization_decreases_with_rate() {
        let mut prev = 1.0;
        for i in 1..=50 {
            let m = f64::from(i) * 0.002;
            let u = solve(m, 20.0, 8).unwrap().think_fraction();
            assert!(u <= prev + 1e-12);
            prev = u;
        }
    }

    #[test]
    fn utilization_decreases_with_message_size() {
        let mut prev = 1.0;
        for t in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let u = solve(0.02, t + 16.0, 8).unwrap().think_fraction();
            assert!(u < prev);
            prev = u;
        }
    }

    #[test]
    fn equal_unit_load_gives_equal_utilization_for_any_message_size() {
        // At m·t = 0.4 on 8 stages, 1-word messages (t = 17) at a high
        // rate and 16-word messages (t = 32) at a low rate give the same
        // U, bit for bit: utilization is set by the unit load m·t, so
        // circuit set-up cost must be charged in t.
        let one_word = solve(0.4 / 17.0, 17.0, 8).unwrap();
        let sixteen_words = solve(0.4 / 32.0, 32.0, 8).unwrap();
        assert_eq!(
            one_word.think_fraction().to_bits(),
            sixteen_words.think_fraction().to_bits()
        );
    }

    #[test]
    fn more_stages_do_not_increase_acceptance() {
        let small = solve(0.05, 10.0, 2).unwrap();
        let large = solve(0.05, 10.0, 10).unwrap();
        assert!(large.think_fraction() <= small.think_fraction() + 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(solve(-0.1, 1.0, 4).is_err());
        assert!(solve(0.1, f64::INFINITY, 4).is_err());
        assert!(solve(f64::NAN, 1.0, 4).is_err());
    }

    /// The independent oracle: the fixed-200-step bisection that once
    /// backed [`solve`]. It shares no code with the kernel beyond
    /// [`propagate`].
    fn bisection(rate: f64, size: f64, stages: u32) -> f64 {
        let demand = rate * size;
        if demand == 0.0 {
            return 1.0;
        }
        let residual = |u: f64| propagate(1.0 - u, stages) - u * demand;
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if residual(mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn solve_with_matches_legacy_solve() {
        for (m, t, n) in [(0.03, 20.0, 8), (0.4 / 17.0, 17.0, 4), (0.002, 20.0, 10)] {
            let cold = solve(m, t, n).unwrap();
            let with = solve_with(m, t, n, SolveOptions::default()).unwrap();
            assert_eq!(
                cold.think_fraction().to_bits(),
                with.think_fraction().to_bits()
            );
            assert_eq!(
                cold.accepted_rate().to_bits(),
                with.accepted_rate().to_bits()
            );
            let lane = crate::batch::BatchPatelSolver::new()
                .solve(&[m], &[t], n)
                .unwrap()
                .points()[0];
            assert_eq!(
                cold.think_fraction().to_bits(),
                lane.think_fraction().to_bits()
            );
            let oracle = bisection(m, t, n);
            let hinted = solve_with(m, t, n, SolveOptions { hint: Some(oracle) }).unwrap();
            assert!((cold.think_fraction() - oracle).abs() < 1e-12);
            assert!((hinted.think_fraction() - oracle).abs() < 1e-12);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1000))]

        #[test]
        fn kernel_matches_the_bisection_oracle(
            rate in 0.0..=1.0f64,
            size in 0.0..=40.0f64,
            stages in 0u32..=12,
        ) {
            // rate ∈ (0, 1]; a slice of sizes snaps to exactly zero so
            // the zero-demand early return is exercised, not approached.
            let rate = if rate > 0.0 { rate } else { 1.0 };
            let size = if size < 1.0 { 0.0 } else { size };
            let got = solve(rate, size, stages).unwrap().think_fraction();
            let want = bisection(rate, size, stages);
            proptest::prop_assert!(
                (got - want).abs() <= 1e-12,
                "U = {} vs oracle {} at rate {}, size {}, {} stages",
                got,
                want,
                rate,
                size,
                stages
            );
        }
    }

    #[test]
    fn wrong_hints_never_change_the_answer() {
        let reference = solve(0.03, 20.0, 8).unwrap().think_fraction();
        for hint in [0.001, 0.25, 0.5, 0.75, 0.999, -1.0, 0.0, 1.0, 2.0] {
            let op = solve_with(0.03, 20.0, 8, SolveOptions { hint: Some(hint) }).unwrap();
            assert!(
                (op.think_fraction() - reference).abs() < 1e-12,
                "hint {hint} gave {}",
                op.think_fraction()
            );
        }
    }

    /// Solves one point under a capture; returns it with the residual
    /// evaluations and warm-start reuses the solve reported.
    fn counted(rate: f64, size: f64, hint: Option<f64>) -> (OperatingPoint, u64, u64) {
        let (op, span) =
            swcc_obs::capture(|| solve_with(rate, size, 8, SolveOptions { hint }).unwrap());
        let count = |name| span.counter(name).unwrap_or(0);
        (
            op,
            count(metrics::SOLVER_RESIDUAL_EVALS),
            count(metrics::SOLVER_WARM_REUSES),
        )
    }

    #[test]
    fn warm_start_reduces_solver_work() {
        let (mut warm_iters, mut cold_iters) = (0u64, 0u64);
        let mut hint = None;
        for i in 1..=50 {
            let m = f64::from(i) * 0.002;
            let (w, iters, _) = counted(m, 20.0, hint);
            warm_iters += iters;
            hint = Some(w.think_fraction());
            let (c, iters, _) = counted(m, 20.0, None);
            cold_iters += iters;
            assert!((w.think_fraction() - c.think_fraction()).abs() < 1e-9);
        }
        // Counts are deterministic: the hint starts closer to the root
        // than the cold light-load guess, so the sweep needs strictly
        // fewer Newton steps — and either path needs a small fraction of
        // the 200-step iteration cap per point.
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} vs cold {cold_iters} Newton steps"
        );
        assert!(warm_iters <= 50 * 10, "warm total {warm_iters}");
        assert!(cold_iters <= 50 * 10, "cold total {cold_iters}");
    }

    #[test]
    fn warm_solver_handles_zero_demand_between_solves() {
        // A hint chain through an idle point: a, then a zero-demand
        // point hinted with a's root, then a's demand again hinted with
        // the idle point's root.
        let (a, _, _) = counted(0.03, 20.0, None);
        let (idle, iters, _) = counted(0.0, 20.0, Some(a.think_fraction()));
        assert_eq!(idle.think_fraction(), 1.0);
        assert_eq!(iters, 0, "a zero-demand point does no solver work");
        // A hint of exactly 1.0 is out of the open interval and ignored.
        let (b, _, reuses) = counted(0.03, 20.0, Some(idle.think_fraction()));
        assert_eq!(reuses, 0);
        assert!((a.think_fraction() - b.think_fraction()).abs() < 1e-12);
    }
}
