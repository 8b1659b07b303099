//! Exact Mean Value Analysis for the bus contention model.
//!
//! §2.3 models an `n`-processor bus system as a closed queueing network
//! with a single server (the bus) and `n` customers (the processors):
//! the classic *machine repairman* model. Each customer alternates
//! between a think phase of mean `Z = c − b` cycles and a service demand
//! of mean `b` cycles at the FCFS server.
//!
//! For exponential service (which the paper assumes — and names as the
//! reason the model slightly overestimates contention relative to its
//! fixed-service-time simulator) the network is product-form and exact
//! MVA applies:
//!
//! ```text
//! R(k) = b · (1 + Q(k−1))          response time with k customers
//! X(k) = k / (Z + R(k))            system throughput
//! Q(k) = X(k) · R(k)               mean queue length (incl. in service)
//! ```
//!
//! with `Q(0) = 0`. The contention penalty per transaction is
//! `w = R(n) − b`.
//!
//! The recurrence is written once, as one step (`step`) beside the
//! zero-service closed form (`idle`) and one input check
//! (`validate`). A scalar lane loop (`Lane`) runs them behind
//! [`machine_repairman`], [`machine_repairman_sweep`] and every lane of
//! [`machine_repairman_sweep_grid`](crate::batch::machine_repairman_sweep_grid);
//! [`machine_repairman_grid`](crate::batch::machine_repairman_grid)
//! runs the same step lane-inner. Each lane therefore executes the same
//! float ops in the same order on every path.

use std::fmt;
use std::slice;

use serde::{Deserialize, Serialize};

use crate::error::{ModelError, Result};
use crate::metrics;

/// The solution of the machine-repairman model for a given population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MvaSolution {
    customers: u32,
    service: f64,
    think: f64,
    response: f64,
    throughput: f64,
    queue_len: f64,
}

impl MvaSolution {
    /// Assembles a solution from its parts (the batch engine runs the
    /// MVA recurrence outside this module; see [`crate::batch`]).
    pub(crate) fn from_parts(
        customers: u32,
        service: f64,
        think: f64,
        response: f64,
        throughput: f64,
        queue_len: f64,
    ) -> Self {
        MvaSolution {
            customers,
            service,
            think,
            response,
            throughput,
            queue_len,
        }
    }

    /// Number of customers (processors) `n`.
    pub fn customers(&self) -> u32 {
        self.customers
    }

    /// Mean response time at the server, `R(n)` (waiting + service).
    pub fn response(&self) -> f64 {
        self.response
    }

    /// Mean waiting (contention) time per transaction, `w = R(n) − b`.
    ///
    /// Clamped at zero to absorb floating-point jitter for tiny loads.
    pub fn waiting(&self) -> f64 {
        (self.response - self.service).max(0.0)
    }

    /// System throughput `X(n)` in transactions per cycle (all customers).
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Mean number of customers at the server (queued or in service).
    pub fn queue_len(&self) -> f64 {
        self.queue_len
    }

    /// Server (bus) utilization, `X(n) · b`, in `[0, 1]`.
    pub fn server_utilization(&self) -> f64 {
        (self.throughput * self.service).clamp(0.0, 1.0)
    }
}

impl fmt::Display for MvaSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} R={:.4} w={:.4} X={:.6} Q={:.4} U_bus={:.4}",
            self.customers,
            self.response,
            self.waiting(),
            self.throughput,
            self.queue_len,
            self.server_utilization()
        )
    }
}

/// Solves the machine-repairman model by exact MVA.
///
/// `customers` is the number of processors, `service` the mean bus
/// holding time per transaction (`b`), and `think` the mean processor
/// time between transactions (`c − b`).
///
/// A zero `service` (a workload that never touches the bus) yields a
/// contention-free solution.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] if `customers == 0`, or if
/// `service`/`think` are negative or non-finite, or if both are zero
/// (customers must spend time somewhere).
///
/// # Examples
///
/// ```
/// use swcc_core::queue::machine_repairman;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// // 16 processors, each holding the bus 0.37 cycles per instruction
/// // and computing 1.2 cycles between transactions.
/// let solution = machine_repairman(16, 0.37, 1.2)?;
/// assert!(solution.waiting() > 0.0, "a contended bus makes them wait");
/// assert!(solution.server_utilization() <= 1.0);
/// # Ok(())
/// # }
/// ```
pub fn machine_repairman(customers: u32, service: f64, think: f64) -> Result<MvaSolution> {
    validate(
        Some(customers),
        slice::from_ref(&service),
        slice::from_ref(&think),
    )?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::MVA_SOLVES, 1);
    }
    let mut lane = Lane::new(service, think);
    let mut solution = lane.solve_next();
    for _ in 1..customers {
        solution = lane.solve_next();
    }
    Ok(solution)
}

/// The one input check of every MVA entry point, scalar or grid: lane
/// slices of equal length, every time finite and non-negative, and no
/// lane with both times zero (customers must spend time somewhere). A
/// pointwise solve passes its population as `customers`, which must be
/// at least 1; a sweep, which may be empty, passes `None`.
pub(crate) fn validate(customers: Option<u32>, services: &[f64], thinks: &[f64]) -> Result<()> {
    if customers == Some(0) {
        return Err(ModelError::InvalidConfig {
            name: "customers",
            reason: "must be at least 1",
        });
    }
    if thinks.len() != services.len() {
        return Err(ModelError::InvalidConfig {
            name: "batch",
            reason: "lane slices must all have the same length",
        });
    }
    if services.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return Err(ModelError::InvalidConfig {
            name: "service",
            reason: "must be finite and non-negative",
        });
    }
    if thinks.iter().any(|z| !z.is_finite() || *z < 0.0) {
        return Err(ModelError::InvalidConfig {
            name: "think",
            reason: "must be finite and non-negative",
        });
    }
    if services
        .iter()
        .zip(thinks)
        // swcc-lint: allow(float-eq) — service==think==0 is the rejected degenerate queue; -0.0 qualifies
        .any(|(s, z)| *s == 0.0 && *z == 0.0)
    {
        return Err(ModelError::InvalidConfig {
            name: "service+think",
            reason: "service and think time cannot both be zero",
        });
    }
    Ok(())
}

/// The zero-service closed form: a lane that never uses the server
/// sees no contention, so with `customers` customers it has no response
/// time, no queue, and throughput `customers / think`.
#[inline(always)]
pub(crate) fn idle(customers: u32, service: f64, think: f64) -> MvaSolution {
    MvaSolution {
        customers,
        service,
        think,
        response: 0.0,
        throughput: f64::from(customers) / think,
        queue_len: 0.0,
    }
}

/// One step of the recurrence: from the queue length `Q(k−1)`, the
/// response time, throughput and queue length `(R(k), X(k), Q(k))` with
/// `customers = k`.
#[inline(always)]
pub(crate) fn step(service: f64, think: f64, customers: f64, queue_len: f64) -> (f64, f64, f64) {
    let response = service * (1.0 + queue_len);
    let throughput = customers / (think + response);
    (response, throughput, throughput * response)
}

/// The scalar lane loop: one `(service, think)` lane stepped through
/// the populations 1, 2, … in turn. Allocation-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    service: f64,
    think: f64,
    customers: u32,
    queue_len: f64,
}

impl Lane {
    /// A lane at population 0, with `Q(0) = 0`.
    #[inline(always)]
    pub(crate) fn new(service: f64, think: f64) -> Lane {
        Lane {
            service,
            think,
            customers: 0,
            queue_len: 0.0,
        }
    }

    /// Adds one customer and returns the exact solution at the new
    /// population: the closed form for a zero-service lane, else one
    /// recurrence step.
    #[inline(always)]
    pub(crate) fn solve_next(&mut self) -> MvaSolution {
        self.customers += 1;
        // swcc-lint: allow(float-eq) — zero service is the no-queue fast path; -0.0 is the same idle server
        if self.service == 0.0 {
            return idle(self.customers, self.service, self.think);
        }
        let (response, throughput, queue_len) = step(
            self.service,
            self.think,
            f64::from(self.customers),
            self.queue_len,
        );
        self.queue_len = queue_len;
        MvaSolution {
            customers: self.customers,
            service: self.service,
            think: self.think,
            response,
            throughput,
            queue_len,
        }
    }

    /// The lane's solutions at every population `1..=max_customers`.
    pub(crate) fn sweep(mut self, max_customers: u32) -> MvaSweep {
        // A counted range sizes the vector once and writes each point
        // without a capacity check.
        let points = (0..max_customers).map(|_| self.solve_next()).collect();
        MvaSweep {
            service: self.service,
            think: self.think,
            points,
        }
    }
}

/// Machine-repairman solutions for every population `1..=max`, computed
/// in a single O(max) MVA pass.
///
/// Exact MVA for population `n` iterates the recurrence from `k = 1`;
/// every intermediate `k` *is* the exact solution for a `k`-customer
/// system, so one pass yields the whole curve. The per-point results are
/// **bit-identical** to calling [`machine_repairman`] at each population
/// (the same floating-point operations run in the same order) — the
/// sweep just skips the `O(n²)` rework of restarting the recurrence at
/// every point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvaSweep {
    service: f64,
    think: f64,
    points: Vec<MvaSolution>,
}

impl MvaSweep {
    /// Mean service time `b` the sweep was run with.
    pub fn service(&self) -> f64 {
        self.service
    }

    /// Mean think time `Z` the sweep was run with.
    pub fn think(&self) -> f64 {
        self.think
    }

    /// Largest population in the sweep (`0` for an empty sweep).
    pub fn max_customers(&self) -> u32 {
        self.points.len() as u32
    }

    /// All solutions, ordered by population `1, 2, …`.
    pub fn points(&self) -> &[MvaSolution] {
        &self.points
    }

    /// The solution for one population, or `None` if out of range.
    pub fn get(&self, customers: u32) -> Option<&MvaSolution> {
        customers
            .checked_sub(1)
            .and_then(|i| self.points.get(i as usize))
    }

    /// Consumes the sweep, returning the solutions.
    pub fn into_points(self) -> Vec<MvaSolution> {
        self.points
    }
}

/// Solves the machine-repairman model for **all** populations
/// `1..=max_customers` in one O(`max_customers`) pass.
///
/// Each returned point is bit-identical to
/// `machine_repairman(k, service, think)` — see [`MvaSweep`]. A
/// `max_customers` of zero yields an empty (but valid) sweep.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] under the same parameter
/// conditions as [`machine_repairman`] (negative or non-finite times,
/// both times zero).
///
/// # Examples
///
/// ```
/// use swcc_core::queue::{machine_repairman, machine_repairman_sweep};
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let sweep = machine_repairman_sweep(64, 0.37, 1.2)?;
/// let pointwise = machine_repairman(48, 0.37, 1.2)?;
/// assert_eq!(sweep.get(48), Some(&pointwise));
/// # Ok(())
/// # }
/// ```
pub fn machine_repairman_sweep(max_customers: u32, service: f64, think: f64) -> Result<MvaSweep> {
    validate(None, slice::from_ref(&service), slice::from_ref(&think))?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::MVA_SWEEPS, 1);
        swcc_obs::counter_add(metrics::MVA_SWEEP_POINTS, u64::from(max_customers));
    }
    let _sweep_span = if swcc_obs::trace_enabled() {
        swcc_obs::span(
            metrics::EV_MVA_SWEEP,
            &[
                swcc_obs::Field::u64("max_customers", u64::from(max_customers)),
                swcc_obs::Field::f64("service", service),
                swcc_obs::Field::f64("think", think),
            ],
        )
    } else {
        swcc_obs::span(metrics::EV_MVA_SWEEP, &[])
    };
    Ok(Lane::new(service, think).sweep(max_customers))
}

/// Asymptotic bounds on the machine-repairman model (operational
/// analysis): `X(n) ≤ min(n/(Z + b), 1/b)`.
///
/// The crossover `n* = (Z + b)/b` is the processor count at which the
/// bus *must* start limiting throughput — a useful back-of-envelope
/// companion to the exact MVA solution (e.g. "how many processors can
/// this scheme possibly support before saturation?").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsymptoticBounds {
    service: f64,
    think: f64,
}

impl AsymptoticBounds {
    /// Creates bounds for mean service time `service` (`b`) and think
    /// time `think` (`Z = c − b`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for negative or non-finite
    /// inputs.
    pub fn new(service: f64, think: f64) -> Result<Self> {
        if !service.is_finite() || service < 0.0 {
            return Err(ModelError::InvalidConfig {
                name: "service",
                reason: "must be finite and non-negative",
            });
        }
        if !think.is_finite() || think < 0.0 {
            return Err(ModelError::InvalidConfig {
                name: "think",
                reason: "must be finite and non-negative",
            });
        }
        Ok(AsymptoticBounds { service, think })
    }

    /// Upper bound on system throughput with `n` customers.
    pub fn throughput_bound(&self, customers: u32) -> f64 {
        let light = f64::from(customers) / (self.think + self.service);
        // swcc-lint: allow(float-eq) — zero service never saturates; -0.0 is the same idle server
        if self.service == 0.0 {
            light
        } else {
            light.min(1.0 / self.service)
        }
    }

    /// The population `n*` beyond which the server bound binds
    /// (`(Z + b)/b`), or `None` if the server is never the bottleneck
    /// (`b = 0`).
    pub fn saturation_population(&self) -> Option<f64> {
        // swcc-lint: allow(float-eq) — zero service never saturates; -0.0 is the same idle server
        if self.service == 0.0 {
            None
        } else {
            Some((self.think + self.service) / self.service)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_customer_sees_no_contention() {
        let s = machine_repairman(1, 2.0, 8.0).unwrap();
        assert!((s.response() - 2.0).abs() < 1e-12);
        assert_eq!(s.waiting(), 0.0);
        assert!((s.throughput() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn waiting_grows_with_population() {
        let mut prev = 0.0;
        for n in 1..=32 {
            let s = machine_repairman(n, 1.0, 10.0).unwrap();
            assert!(s.waiting() >= prev, "waiting must be monotone in n");
            prev = s.waiting();
        }
    }

    #[test]
    fn throughput_saturates_at_service_rate() {
        // With many customers the server saturates: X -> 1/b.
        let s = machine_repairman(1000, 2.0, 1.0).unwrap();
        assert!((s.throughput() - 0.5).abs() < 1e-6);
        assert!(s.server_utilization() > 0.999);
    }

    #[test]
    fn asymptotic_bound_light_load() {
        // Under light load X(n) ~ n/(Z + b).
        let s = machine_repairman(2, 0.001, 100.0).unwrap();
        assert!((s.throughput() - 2.0 / 100.001).abs() < 1e-6);
    }

    #[test]
    fn matches_closed_form_for_two_customers() {
        // For n=2, exponential machine-repairman has a known closed form.
        // MVA for n=2: R(1)=b, X(1)=1/(Z+b), Q(1)=b/(Z+b),
        // R(2)=b(1+b/(Z+b)), X(2)=2/(Z+R(2)).
        let b = 3.0;
        let z = 7.0;
        let q1 = b / (z + b);
        let r2 = b * (1.0 + q1);
        let x2 = 2.0 / (z + r2);
        let s = machine_repairman(2, b, z).unwrap();
        assert!((s.response() - r2).abs() < 1e-12);
        assert!((s.throughput() - x2).abs() < 1e-12);
    }

    #[test]
    fn zero_service_is_contention_free() {
        let s = machine_repairman(16, 0.0, 5.0).unwrap();
        assert_eq!(s.waiting(), 0.0);
        assert_eq!(s.server_utilization(), 0.0);
        assert!((s.throughput() - 16.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(machine_repairman(0, 1.0, 1.0).is_err());
        assert!(machine_repairman(4, -1.0, 1.0).is_err());
        assert!(machine_repairman(4, 1.0, f64::NAN).is_err());
        assert!(machine_repairman(4, 0.0, 0.0).is_err());
    }

    #[test]
    fn zero_think_time_still_solves() {
        // Pure contention: customers re-queue immediately.
        let s = machine_repairman(4, 1.0, 0.0).unwrap();
        assert!((s.throughput() - 1.0).abs() < 1e-9);
        assert!((s.queue_len() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mva_respects_asymptotic_bounds() {
        let bounds = AsymptoticBounds::new(2.0, 10.0).unwrap();
        for n in 1..=64u32 {
            let s = machine_repairman(n, 2.0, 10.0).unwrap();
            assert!(
                s.throughput() <= bounds.throughput_bound(n) + 1e-12,
                "n = {n}"
            );
        }
    }

    #[test]
    fn saturation_population_marks_the_knee() {
        // Z = 10, b = 2: n* = 6. Below it throughput is near-linear;
        // well above it the server bound dominates.
        let bounds = AsymptoticBounds::new(2.0, 10.0).unwrap();
        assert_eq!(bounds.saturation_population(), Some(6.0));
        let below = machine_repairman(2, 2.0, 10.0).unwrap();
        assert!(below.throughput() > 0.9 * bounds.throughput_bound(2));
        let above = machine_repairman(24, 2.0, 10.0).unwrap();
        assert!((above.throughput() - 0.5).abs() < 0.01);
    }

    #[test]
    fn zero_service_has_no_saturation() {
        let bounds = AsymptoticBounds::new(0.0, 5.0).unwrap();
        assert_eq!(bounds.saturation_population(), None);
        assert!((bounds.throughput_bound(10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_reject_bad_inputs() {
        assert!(AsymptoticBounds::new(-1.0, 1.0).is_err());
        assert!(AsymptoticBounds::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn sweep_is_bit_identical_to_pointwise() {
        let sweep = machine_repairman_sweep(64, 0.37, 1.2).unwrap();
        assert_eq!(sweep.max_customers(), 64);
        for k in 1..=64u32 {
            let pointwise = machine_repairman(k, 0.37, 1.2).unwrap();
            let swept = sweep.get(k).unwrap();
            // Exact equality, not tolerance: same op sequence.
            assert_eq!(*swept, pointwise, "k = {k}");
        }
    }

    #[test]
    fn sweep_handles_zero_service() {
        let sweep = machine_repairman_sweep(8, 0.0, 5.0).unwrap();
        for k in 1..=8u32 {
            assert_eq!(
                *sweep.get(k).unwrap(),
                machine_repairman(k, 0.0, 5.0).unwrap()
            );
        }
    }

    #[test]
    fn empty_sweep_is_valid() {
        let sweep = machine_repairman_sweep(0, 1.0, 1.0).unwrap();
        assert_eq!(sweep.max_customers(), 0);
        assert!(sweep.points().is_empty());
        assert!(sweep.get(1).is_none());
        assert!(sweep.get(0).is_none());
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        assert!(machine_repairman_sweep(4, -1.0, 1.0).is_err());
        assert!(machine_repairman_sweep(4, 1.0, f64::NAN).is_err());
        assert!(machine_repairman_sweep(4, 0.0, 0.0).is_err());
    }

    #[test]
    fn little_law_holds() {
        for n in [1u32, 2, 5, 17] {
            let s = machine_repairman(n, 1.5, 6.0).unwrap();
            // Q = X * R at the server.
            assert!((s.queue_len() - s.throughput() * s.response()).abs() < 1e-12);
            // Total population: customers at server + thinking = n.
            let thinking = s.throughput() * 6.0;
            assert!((s.queue_len() + thinking - f64::from(n)).abs() < 1e-9);
        }
    }
}
