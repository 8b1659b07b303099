//! Bus performance analysis: processor utilization and processing power
//! on the shared-bus machine (paper §2.3 and §5).
//!
//! For a scheme/workload pair, the per-instruction demand `(c, b)` is
//! computed from Tables 1 and 3–6; the contention penalty `w` comes from
//! the machine-repairman model; then
//!
//! * processor utilization `U = 1 / (c + w)` — the fraction of time a
//!   processor spends in productive (1-cycle-per-instruction) work, and
//! * processing power `P = n · U` — the paper's figure of merit.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::batch::machine_repairman_sweep_grid;
use crate::demand::{scheme_demand, Demand};
use crate::error::Result;
use crate::metrics;
use crate::queue::{machine_repairman, machine_repairman_sweep};
use crate::scheme::Scheme;
use crate::system::BusSystemModel;
use crate::workload::WorkloadParams;

/// The predicted performance of one scheme on an `n`-processor bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusPerformance {
    scheme: Scheme,
    processors: u32,
    demand: Demand,
    waiting: f64,
    bus_utilization: f64,
}

impl BusPerformance {
    /// Assembles a performance point from an externally solved queueing
    /// result — a `(waiting, bus_utilization)` pair produced by
    /// [`machine_repairman`], [`crate::batch::machine_repairman_grid`],
    /// or `swcc-serve`'s solved-point cache, which either fills. When
    /// the parts come from the same demand and queueing inputs, every
    /// getter is bit-identical to the [`analyze_bus`] result (the
    /// getters are shared and the batch lanes are proven bit-equal to
    /// scalar solves).
    pub fn from_queue_solution(
        scheme: Scheme,
        processors: u32,
        demand: Demand,
        waiting: f64,
        bus_utilization: f64,
    ) -> Self {
        BusPerformance {
            scheme,
            processors,
            demand,
            waiting,
            bus_utilization,
        }
    }

    /// The scheme analyzed.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of processors `n`.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// The per-instruction demand `(c, b)`.
    pub fn demand(&self) -> Demand {
        self.demand
    }

    /// Contention cycles per instruction, `w`.
    pub fn waiting(&self) -> f64 {
        self.waiting
    }

    /// Total cycles per instruction, `c + w`.
    pub fn cycles_per_instruction(&self) -> f64 {
        self.demand.cpu() + self.waiting
    }

    /// Processor utilization `U = 1/(c + w)`, in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        1.0 / self.cycles_per_instruction()
    }

    /// Processing power `n · U`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors) * self.utilization()
    }

    /// Bus utilization in `[0, 1]` — how close the bus is to saturation.
    pub fn bus_utilization(&self) -> f64 {
        self.bus_utilization
    }
}

impl fmt::Display for BusPerformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n={}: U={:.4} power={:.3} w={:.4} bus={:.1}%",
            self.scheme,
            self.processors,
            self.utilization(),
            self.power(),
            self.waiting,
            self.bus_utilization * 100.0
        )
    }
}

/// Analyzes one scheme on an `n`-processor bus.
///
/// # Errors
///
/// Returns [`crate::ModelError::InvalidConfig`] if `processors == 0`.
/// (All schemes are defined on a bus, so no scheme error is possible.)
///
/// # Examples
///
/// ```
/// use swcc_core::bus::analyze_bus;
/// use swcc_core::scheme::Scheme;
/// use swcc_core::system::BusSystemModel;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let system = BusSystemModel::new();
/// let workload = WorkloadParams::default();
/// let dragon = analyze_bus(Scheme::Dragon, &workload, &system, 16)?;
/// let no_cache = analyze_bus(Scheme::NoCache, &workload, &system, 16)?;
/// assert!(dragon.power() > no_cache.power());
/// # Ok(())
/// # }
/// ```
pub fn analyze_bus(
    scheme: Scheme,
    workload: &WorkloadParams,
    system: &BusSystemModel,
    processors: u32,
) -> Result<BusPerformance> {
    let demand = scheme_demand(scheme, workload, system)?;
    let mva = machine_repairman(processors, demand.interconnect(), demand.think_time())?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::BUS_ANALYSES, 1);
    }
    Ok(BusPerformance {
        scheme,
        processors,
        demand,
        waiting: mva.waiting(),
        bus_utilization: mva.server_utilization(),
    })
}

/// Analyzes one scheme at **every** processor count `1..=max_processors`
/// in a single O(`max_processors`) pass.
///
/// The per-instruction demand is computed once and the whole curve comes
/// from one incremental MVA sweep
/// ([`machine_repairman_sweep`]), so this is
/// O(N) where mapping [`analyze_bus`] over the range is O(N²). Each
/// returned point is **bit-identical** to the pointwise call at the same
/// processor count.
///
/// # Errors
///
/// Propagates demand/solver errors (which for valid workloads cannot
/// occur). A `max_processors` of zero yields an empty curve.
///
/// # Examples
///
/// ```
/// use swcc_core::bus::{analyze_bus, analyze_bus_sweep};
/// use swcc_core::scheme::Scheme;
/// use swcc_core::system::BusSystemModel;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let system = BusSystemModel::new();
/// let workload = WorkloadParams::default();
/// let curve = analyze_bus_sweep(Scheme::Dragon, &workload, &system, 64)?;
/// let pointwise = analyze_bus(Scheme::Dragon, &workload, &system, 48)?;
/// assert_eq!(curve[47], pointwise);
/// # Ok(())
/// # }
/// ```
pub fn analyze_bus_sweep(
    scheme: Scheme,
    workload: &WorkloadParams,
    system: &BusSystemModel,
    max_processors: u32,
) -> Result<Vec<BusPerformance>> {
    let tracing = swcc_obs::trace_enabled();
    let _sweep_span = if tracing {
        swcc_obs::span(
            metrics::EV_BUS_SWEEP,
            &[
                swcc_obs::Field::text("scheme", scheme.to_string()),
                swcc_obs::Field::u64("points", u64::from(max_processors)),
            ],
        )
    } else {
        swcc_obs::span(metrics::EV_BUS_SWEEP, &[])
    };
    let demand = scheme_demand(scheme, workload, system)?;
    let sweep =
        machine_repairman_sweep(max_processors, demand.interconnect(), demand.think_time())?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::BUS_SWEEPS, 1);
        swcc_obs::counter_add(metrics::BUS_SWEEP_POINTS, sweep.points().len() as u64);
    }
    Ok(sweep
        .points()
        .iter()
        .map(|mva| {
            let point = BusPerformance {
                scheme,
                processors: mva.customers(),
                demand,
                waiting: mva.waiting(),
                bus_utilization: mva.server_utilization(),
            };
            if tracing {
                swcc_obs::event_sampled(
                    metrics::EV_BUS_SWEEP_POINT,
                    &[
                        swcc_obs::Field::u64("n", u64::from(point.processors)),
                        swcc_obs::Field::f64("power", point.power()),
                        swcc_obs::Field::f64("utilization", point.utilization()),
                        swcc_obs::Field::f64("wait", point.waiting),
                    ],
                );
            }
            point
        })
        .collect())
}

/// Sweeps processor count from 1 to `max_processors` for **several
/// schemes at once**, running every scheme's MVA recurrence in one
/// lockstep grid pass ([`machine_repairman_sweep_grid`]).
///
/// `curves[i]` is **bit-identical** to
/// `analyze_bus_sweep(schemes[i], …)` — each lane of the batch grid
/// executes exactly the scalar recurrence — but a whole 4-scheme figure
/// costs a single traversal of the populations instead of four.
///
/// # Errors
///
/// Propagates demand/solver errors (which for valid workloads cannot
/// occur). An empty scheme list or a `max_processors` of zero yields
/// empty (but valid) curves.
///
/// # Examples
///
/// ```
/// use swcc_core::bus::{analyze_bus_sweep, bus_power_curves};
/// use swcc_core::scheme::Scheme;
/// use swcc_core::system::BusSystemModel;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let system = BusSystemModel::new();
/// let workload = WorkloadParams::default();
/// let curves = bus_power_curves(&Scheme::ALL, &workload, &system, 16)?;
/// let scalar = analyze_bus_sweep(Scheme::ALL[1], &workload, &system, 16)?;
/// assert_eq!(curves[1], scalar);
/// # Ok(())
/// # }
/// ```
pub fn bus_power_curves(
    schemes: &[Scheme],
    workload: &WorkloadParams,
    system: &BusSystemModel,
    max_processors: u32,
) -> Result<Vec<Vec<BusPerformance>>> {
    let cases: Vec<(Scheme, WorkloadParams)> = schemes.iter().map(|&s| (s, *workload)).collect();
    bus_power_curve_set(&cases, system, max_processors)
}

/// The general form of [`bus_power_curves`]: one curve lane per
/// `(scheme, workload)` case, so a figure that varies the workload
/// across its series (e.g. an `apl` family) still evaluates as a single
/// lockstep grid pass.
///
/// `curves[i]` is **bit-identical** to
/// `analyze_bus_sweep(cases[i].0, &cases[i].1, …)`.
///
/// # Errors
///
/// As [`bus_power_curves`].
pub fn bus_power_curve_set(
    cases: &[(Scheme, WorkloadParams)],
    system: &BusSystemModel,
    max_processors: u32,
) -> Result<Vec<Vec<BusPerformance>>> {
    let demands = cases
        .iter()
        .map(|(s, w)| scheme_demand(*s, w, system))
        .collect::<Result<Vec<Demand>>>()?;
    let services: Vec<f64> = demands.iter().map(Demand::interconnect).collect();
    let thinks: Vec<f64> = demands.iter().map(Demand::think_time).collect();
    let grid = machine_repairman_sweep_grid(max_processors, &services, &thinks)?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::BUS_SWEEPS, cases.len() as u64);
        swcc_obs::counter_add(
            metrics::BUS_SWEEP_POINTS,
            u64::from(max_processors) * cases.len() as u64,
        );
    }
    Ok(grid
        .into_iter()
        .zip(cases)
        .zip(demands)
        .map(|((sweep, &(scheme, _)), demand)| {
            sweep
                .points()
                .iter()
                .map(|mva| {
                    BusPerformance::from_queue_solution(
                        scheme,
                        mva.customers(),
                        demand,
                        mva.waiting(),
                        mva.server_utilization(),
                    )
                })
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Level, ParamId};

    fn sys() -> BusSystemModel {
        BusSystemModel::new()
    }

    #[test]
    fn uniprocessor_utilization_is_one_over_c() {
        let w = WorkloadParams::default();
        for s in Scheme::ALL {
            let p = analyze_bus(s, &w, &sys(), 1).unwrap();
            assert!(p.waiting() < 1e-12, "{s}");
            assert!((p.utilization() - 1.0 / p.demand().cpu()).abs() < 1e-12);
        }
    }

    #[test]
    fn power_is_monotone_in_processors() {
        // Adding a processor never lowers total processing power in this
        // model (it asymptotes as the bus saturates).
        let w = WorkloadParams::at_level(Level::High);
        for s in Scheme::ALL {
            let curve = analyze_bus_sweep(s, &w, &sys(), 24).unwrap();
            for pair in curve.windows(2) {
                assert!(
                    pair[1].power() >= pair[0].power() - 1e-9,
                    "{s}: power dipped between n={} and n={}",
                    pair[0].processors(),
                    pair[1].processors()
                );
            }
        }
    }

    #[test]
    fn scheme_ordering_at_middle_parameters() {
        // §5.1: Base >= Dragon >= Software-Flush >= No-Cache at middle
        // parameters, 16 processors.
        let w = WorkloadParams::at_level(Level::Middle);
        let p = |s| analyze_bus(s, &w, &sys(), 16).unwrap().power();
        let base = p(Scheme::Base);
        let dragon = p(Scheme::Dragon);
        let sf = p(Scheme::SoftwareFlush);
        let nc = p(Scheme::NoCache);
        assert!(
            base >= dragon && dragon >= sf && sf >= nc,
            "expected Base({base:.2}) >= Dragon({dragon:.2}) >= SF({sf:.2}) >= NC({nc:.2})"
        );
    }

    #[test]
    fn dragon_stays_close_to_base() {
        // §5.1: "In most cases Dragon's performance is close to Base."
        let w = WorkloadParams::at_level(Level::Middle);
        let base = analyze_bus(Scheme::Base, &w, &sys(), 16).unwrap().power();
        let dragon = analyze_bus(Scheme::Dragon, &w, &sys(), 16).unwrap().power();
        assert!(dragon > 0.9 * base, "dragon {dragon:.2} vs base {base:.2}");
    }

    #[test]
    fn no_cache_saturates_below_two_at_high_parameters() {
        // §5.2: with high ls and shd, No-Cache saturates the bus with a
        // processing power less than 2.
        let w = WorkloadParams::at_level(Level::High);
        let p = analyze_bus(Scheme::NoCache, &w, &sys(), 32).unwrap();
        assert!(p.power() < 2.0, "power {}", p.power());
        assert!(p.bus_utilization() > 0.99);
    }

    #[test]
    fn software_flush_saturates_below_five_at_high_parameters() {
        // §5.2: Software-Flush saturates the bus with processing power
        // less than 5 in the high-sharing region (middle apl).
        let w = WorkloadParams::at_level(Level::High)
            .with_param(ParamId::Apl, 1.0 / 0.13)
            .unwrap()
            .with_param(ParamId::Mdshd, 0.25)
            .unwrap();
        let p = analyze_bus(Scheme::SoftwareFlush, &w, &sys(), 32).unwrap();
        assert!(p.power() < 5.0, "power {}", p.power());
    }

    #[test]
    fn power_never_exceeds_ideal() {
        let w = WorkloadParams::at_level(Level::Low);
        for s in Scheme::ALL {
            for n in [1, 4, 16] {
                let p = analyze_bus(s, &w, &sys(), n).unwrap();
                assert!(p.power() <= f64::from(n));
                assert!(p.utilization() <= 1.0);
            }
        }
    }

    #[test]
    fn bus_utilization_grows_with_processors() {
        let w = WorkloadParams::default();
        let curve = analyze_bus_sweep(Scheme::SoftwareFlush, &w, &sys(), 16).unwrap();
        for pair in curve.windows(2) {
            assert!(pair[1].bus_utilization() >= pair[0].bus_utilization() - 1e-12);
        }
    }

    #[test]
    fn sweep_is_bit_identical_to_pointwise() {
        let w = WorkloadParams::default();
        for s in Scheme::ALL {
            let curve = analyze_bus_sweep(s, &w, &sys(), 32).unwrap();
            assert_eq!(curve.len(), 32);
            for (i, swept) in curve.iter().enumerate() {
                let n = (i + 1) as u32;
                let pointwise = analyze_bus(s, &w, &sys(), n).unwrap();
                // Exact equality: the sweep runs the same float ops.
                assert_eq!(*swept, pointwise, "{s} at n={n}");
            }
        }
    }

    #[test]
    fn batched_curves_are_bit_identical_to_scalar_sweeps() {
        let w = WorkloadParams::at_level(Level::High);
        let curves = bus_power_curves(&Scheme::ALL, &w, &sys(), 32).unwrap();
        assert_eq!(curves.len(), Scheme::ALL.len());
        for (i, s) in Scheme::ALL.into_iter().enumerate() {
            let scalar = analyze_bus_sweep(s, &w, &sys(), 32).unwrap();
            assert_eq!(curves[i], scalar, "{s}");
        }
        assert!(bus_power_curves(&[], &w, &sys(), 32).unwrap().is_empty());
        assert!(bus_power_curves(&Scheme::ALL, &w, &sys(), 0).unwrap()[0].is_empty());
    }

    #[test]
    fn sweep_of_zero_processors_is_empty() {
        let w = WorkloadParams::default();
        assert!(analyze_bus_sweep(Scheme::Base, &w, &sys(), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_processors_is_rejected() {
        let w = WorkloadParams::default();
        assert!(analyze_bus(Scheme::Base, &w, &sys(), 0).is_err());
    }

    #[test]
    fn cycles_per_instruction_consistency() {
        let w = WorkloadParams::default();
        let p = analyze_bus(Scheme::Dragon, &w, &sys(), 8).unwrap();
        assert!((p.cycles_per_instruction() - (p.demand().cpu() + p.waiting())).abs() < 1e-12);
    }
}
