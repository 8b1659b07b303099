//! Network performance analysis: processor utilization and processing
//! power on a circuit-switched multistage interconnection network
//! (paper §6).
//!
//! The workload model is unchanged; the system model is Table 9
//! ([`crate::system::NetworkSystemModel`]) and contention comes from
//! Patel's fixed point ([`patel`]). Only Base, No-Cache, and
//! Software-Flush are defined here — Dragon needs a snoopy bus.

pub mod packet;
pub mod patel;

pub use packet::{analyze_network_packet, PacketPerformance};
pub use patel::{propagate, solve, solve_with, OperatingPoint, SolveOptions, DEFAULT_TOLERANCE};

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::demand::{scheme_demand, Demand};
use crate::error::{ModelError, Result};
use crate::metrics;
use crate::scheme::Scheme;
use crate::system::NetworkSystemModel;
use crate::workload::WorkloadParams;

/// The predicted performance of one scheme on a multistage network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkPerformance {
    scheme: Scheme,
    stages: u32,
    demand: Demand,
    point: OperatingPoint,
}

impl NetworkPerformance {
    /// Assembles a performance point from an externally solved Patel
    /// operating point — e.g. a [`crate::batch::BatchPatelSolver`] lane
    /// or an entry of `swcc-serve`'s solved-point cache. With the same
    /// demand and point, every getter matches what the solving path
    /// produced, bitwise. The caller is responsible for the
    /// [`Scheme::requires_bus`] check that [`analyze_network`] performs.
    pub fn from_operating_point(
        scheme: Scheme,
        stages: u32,
        demand: Demand,
        point: OperatingPoint,
    ) -> Self {
        NetworkPerformance {
            scheme,
            stages,
            demand,
            point,
        }
    }

    /// The scheme analyzed.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Network stage count `n` (`2^n` processors).
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Number of processors.
    pub fn processors(&self) -> u32 {
        1 << self.stages
    }

    /// The per-instruction demand `(c, b)` under the Table 9 cost model
    /// (CPU times include the uncontended network round trip).
    pub fn demand(&self) -> Demand {
        self.demand
    }

    /// The solved Patel operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.point
    }

    /// Effective processor utilization in productive instructions per
    /// cycle — directly comparable to the bus model's `U = 1/(c+w)`.
    ///
    /// At light load this equals `1/c`.
    pub fn utilization(&self) -> f64 {
        // throughput() is transactions (≡ instructions) per cycle.
        self.point.throughput()
    }

    /// Processing power `n_processors · utilization`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors()) * self.utilization()
    }
}

impl fmt::Display for NetworkPerformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} cpus ({} stages): U={:.4} power={:.2}",
            self.scheme,
            self.processors(),
            self.stages,
            self.utilization(),
            self.power()
        )
    }
}

/// Analyzes one scheme on a multistage network of the given stage count.
///
/// The operating point is the cold guarded-Newton solve
/// ([`patel::solve`]) of the scheme's demand, so it is bitwise the
/// point a [`crate::batch::BatchPatelSolver`] lane, a
/// [`network_power_curves`] point, or `swcc-serve` computes for the same
/// demand.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedScheme`] for [`Scheme::Dragon`]
/// (snoopy protocols require a broadcast bus), and propagates solver
/// errors (which cannot occur for valid workloads).
///
/// # Examples
///
/// ```
/// use swcc_core::network::analyze_network;
/// use swcc_core::scheme::Scheme;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let w = WorkloadParams::default();
/// // 256 processors = 8 stages.
/// let sf = analyze_network(Scheme::SoftwareFlush, &w, 8)?;
/// let nc = analyze_network(Scheme::NoCache, &w, 8)?;
/// assert!(sf.power() > nc.power());
/// # Ok(())
/// # }
/// ```
pub fn analyze_network(
    scheme: Scheme,
    workload: &WorkloadParams,
    stages: u32,
) -> Result<NetworkPerformance> {
    if scheme.requires_bus() {
        return Err(ModelError::UnsupportedScheme {
            scheme,
            interconnect: "multistage network",
        });
    }
    let system = NetworkSystemModel::new(stages);
    let demand = scheme_demand(scheme, workload, &system)?;
    let point = patel::solve(demand.transaction_rate(), demand.transaction_size(), stages)?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::NETWORK_ANALYSES, 1);
    }
    Ok(NetworkPerformance {
        scheme,
        stages,
        demand,
        point,
    })
}

/// Sweeps stage count from 0 to `max_stages` (1 to `2^max_stages`
/// processors): the one-scheme case of [`network_power_curves`], so
/// every point is bit-identical to pointwise [`analyze_network`].
///
/// # Errors
///
/// As [`analyze_network`]: [`ModelError::UnsupportedScheme`] for
/// [`Scheme::Dragon`], plus solver errors (which cannot occur for valid
/// workloads).
pub fn network_power_curve(
    scheme: Scheme,
    workload: &WorkloadParams,
    max_stages: u32,
) -> Result<Vec<NetworkPerformance>> {
    Ok(network_power_curves(&[scheme], workload, max_stages)?.swap_remove(0))
}

/// Sweeps stage count from 0 to `max_stages` for **several schemes at
/// once**, solving every `(scheme, stages)` operating point as one lane
/// of a single lockstep batch ([`crate::batch::BatchPatelSolver`]).
///
/// Each lane is cold-started, so every point is **bit-identical** to
/// pointwise [`analyze_network`] (the cold [`solve`] at the same
/// `(rate, size, stages)`).
///
/// # Errors
///
/// As [`analyze_network`]: [`ModelError::UnsupportedScheme`] if any
/// scheme requires a bus ([`Scheme::Dragon`]), plus solver errors
/// (which cannot occur for valid workloads).
///
/// # Examples
///
/// ```
/// use swcc_core::network::{network_power_curve, network_power_curves};
/// use swcc_core::scheme::Scheme;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let w = WorkloadParams::default();
/// let schemes = [Scheme::NoCache, Scheme::SoftwareFlush];
/// let curves = network_power_curves(&schemes, &w, 8)?;
/// let one = network_power_curve(Scheme::SoftwareFlush, &w, 8)?;
/// assert_eq!(curves[1], one);
/// # Ok(())
/// # }
/// ```
pub fn network_power_curves(
    schemes: &[Scheme],
    workload: &WorkloadParams,
    max_stages: u32,
) -> Result<Vec<Vec<NetworkPerformance>>> {
    if let Some(&scheme) = schemes.iter().find(|s| s.requires_bus()) {
        return Err(ModelError::UnsupportedScheme {
            scheme,
            interconnect: "multistage network",
        });
    }
    let points_per_scheme = max_stages as usize + 1;
    let mut rates = Vec::with_capacity(schemes.len() * points_per_scheme);
    let mut sizes = Vec::with_capacity(schemes.len() * points_per_scheme);
    let mut stage_counts = Vec::with_capacity(schemes.len() * points_per_scheme);
    let mut demands = Vec::with_capacity(schemes.len() * points_per_scheme);
    for &scheme in schemes {
        for stages in 0..=max_stages {
            let system = NetworkSystemModel::new(stages);
            let demand = scheme_demand(scheme, workload, &system)?;
            rates.push(demand.transaction_rate());
            sizes.push(demand.transaction_size());
            stage_counts.push(stages);
            demands.push(demand);
        }
    }
    let solution = crate::batch::BatchPatelSolver::new().solve_grid(
        &rates,
        &sizes,
        &crate::batch::Stages::PerLane(&stage_counts),
        None,
    )?;
    if swcc_obs::enabled() {
        swcc_obs::counter_add(metrics::NETWORK_CURVES, schemes.len() as u64);
        swcc_obs::counter_add(metrics::NETWORK_CURVE_POINTS, solution.len() as u64);
    }
    let points = solution.into_points();
    Ok(schemes
        .iter()
        .enumerate()
        .map(|(i, &scheme)| {
            let base = i * points_per_scheme;
            (0..points_per_scheme)
                .map(|j| NetworkPerformance {
                    scheme,
                    stages: stage_counts[base + j],
                    demand: demands[base + j],
                    point: points[base + j],
                })
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Level, ParamId};

    #[test]
    fn dragon_is_rejected() {
        let w = WorkloadParams::default();
        let err = analyze_network(Scheme::Dragon, &w, 4).unwrap_err();
        assert!(matches!(err, ModelError::UnsupportedScheme { .. }));
    }

    #[test]
    fn both_software_schemes_scale_with_processors() {
        // §7: "Both software schemes scale well."
        let w = WorkloadParams::at_level(Level::Middle);
        for s in [Scheme::NoCache, Scheme::SoftwareFlush] {
            let curve = network_power_curve(s, &w, 10).unwrap();
            for pair in curve.windows(2) {
                assert!(
                    pair[1].power() > pair[0].power(),
                    "{s}: power must grow with network size"
                );
            }
        }
    }

    #[test]
    fn warm_curve_matches_pointwise_within_tolerance() {
        let w = WorkloadParams::at_level(Level::Middle);
        for s in [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush] {
            let curve = network_power_curve(s, &w, 10).unwrap();
            assert_eq!(curve.len(), 11);
            for (stages, swept) in curve.iter().enumerate() {
                let pointwise = analyze_network(s, &w, stages as u32).unwrap();
                assert_eq!(
                    swept.operating_point().think_fraction().to_bits(),
                    pointwise.operating_point().think_fraction().to_bits(),
                    "{s} at {stages} stages"
                );
                assert_eq!(swept.demand(), pointwise.demand());
            }
        }
    }

    #[test]
    fn batched_curves_match_cold_pointwise_bitwise() {
        let w = WorkloadParams::at_level(Level::Middle);
        let schemes = [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush];
        let curves = network_power_curves(&schemes, &w, 10).unwrap();
        assert_eq!(curves.len(), 3);
        for (i, &s) in schemes.iter().enumerate() {
            assert_eq!(curves[i].len(), 11);
            for (stages, batched) in curves[i].iter().enumerate() {
                let stages = stages as u32;
                // Bit-identical to a cold scalar guarded-Newton solve...
                let d = batched.demand();
                let cold = solve_with(
                    d.transaction_rate(),
                    d.transaction_size(),
                    stages,
                    SolveOptions::default(),
                )
                .unwrap();
                assert_eq!(
                    batched.operating_point().think_fraction().to_bits(),
                    cold.think_fraction().to_bits(),
                    "{s} at {stages} stages"
                );
                // ...and to pointwise analyze_network, which runs the
                // same cold kernel.
                let pointwise = analyze_network(s, &w, stages).unwrap();
                assert_eq!(
                    batched.operating_point().think_fraction().to_bits(),
                    pointwise.operating_point().think_fraction().to_bits(),
                    "{s} at {stages} stages"
                );
                assert_eq!(batched.power().to_bits(), pointwise.power().to_bits());
                assert_eq!(batched.demand(), pointwise.demand());
            }
        }
    }

    #[test]
    fn one_answer_per_operating_point() {
        // analyze_network, a BatchPatelSolver lane, a
        // network_power_curves point and a network_power_curve point at
        // the same demand are one answer, bit for bit.
        let schemes = [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush];
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let curves = network_power_curves(&schemes, &w, 10).unwrap();
            for (i, &s) in schemes.iter().enumerate() {
                let single = network_power_curve(s, &w, 10).unwrap();
                for stages in 0..=10u32 {
                    let pointwise = analyze_network(s, &w, stages).unwrap();
                    let d = pointwise.demand();
                    let lane = crate::batch::BatchPatelSolver::new()
                        .solve(&[d.transaction_rate()], &[d.transaction_size()], stages)
                        .unwrap()
                        .points()[0];
                    let batched = NetworkPerformance::from_operating_point(s, stages, d, lane);
                    let curve = curves[i][stages as usize];
                    for other in [batched, curve, single[stages as usize]] {
                        assert_eq!(other.demand(), d);
                        for (name, got, want) in [
                            (
                                "think_fraction",
                                other.operating_point().think_fraction(),
                                pointwise.operating_point().think_fraction(),
                            ),
                            (
                                "accepted_rate",
                                other.operating_point().accepted_rate(),
                                pointwise.operating_point().accepted_rate(),
                            ),
                            ("power", other.power(), pointwise.power()),
                        ] {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{s} at {level}, {stages} stages: {name}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn analyze_network_records_exactly_one_solve() {
        let w = WorkloadParams::default();
        let (perf, span) =
            swcc_obs::capture(|| analyze_network(Scheme::SoftwareFlush, &w, 8).unwrap());
        let d = perf.demand();
        let iterations = crate::batch::BatchPatelSolver::new()
            .solve(&[d.transaction_rate()], &[d.transaction_size()], 8)
            .unwrap()
            .iterations()[0];
        assert!(iterations > 0);
        assert_eq!(span.counter(metrics::NETWORK_ANALYSES), Some(1));
        assert_eq!(span.counter(metrics::SOLVER_SOLVES), Some(1));
        assert_eq!(
            span.counter(metrics::SOLVER_RESIDUAL_EVALS),
            Some(u64::from(iterations))
        );
        let iters = span.histogram(metrics::SOLVER_ITERATIONS).unwrap();
        assert_eq!(iters.count, 1);
        assert_eq!(iters.sum, f64::from(iterations));
    }

    #[test]
    fn batched_curves_reject_dragon() {
        let w = WorkloadParams::default();
        assert!(matches!(
            network_power_curves(&[Scheme::Base, Scheme::Dragon], &w, 4).unwrap_err(),
            ModelError::UnsupportedScheme { .. }
        ));
    }

    #[test]
    fn curve_rejects_dragon() {
        let w = WorkloadParams::default();
        assert!(matches!(
            network_power_curve(Scheme::Dragon, &w, 4).unwrap_err(),
            ModelError::UnsupportedScheme { .. }
        ));
    }

    #[test]
    fn software_flush_beats_no_cache_on_network() {
        // §6.3: Software-Flush is "clearly more efficient"; No-Cache is
        // poorer despite smaller messages, due to its higher request rate.
        let w = WorkloadParams::at_level(Level::Middle);
        for stages in [4, 6, 8, 10] {
            let sf = analyze_network(Scheme::SoftwareFlush, &w, stages).unwrap();
            let nc = analyze_network(Scheme::NoCache, &w, stages).unwrap();
            assert!(sf.power() > nc.power(), "at {stages} stages");
        }
    }

    #[test]
    fn base_dominates_on_network() {
        let w = WorkloadParams::at_level(Level::Middle);
        let b = analyze_network(Scheme::Base, &w, 8).unwrap();
        let sf = analyze_network(Scheme::SoftwareFlush, &w, 8).unwrap();
        let nc = analyze_network(Scheme::NoCache, &w, 8).unwrap();
        assert!(b.power() >= sf.power() && sf.power() >= nc.power());
    }

    #[test]
    fn light_load_utilization_approaches_one_over_c() {
        let w = WorkloadParams::at_level(Level::Low);
        let p = analyze_network(Scheme::Base, &w, 2).unwrap();
        let ideal = 1.0 / p.demand().cpu();
        assert!(p.utilization() <= ideal + 1e-12);
        assert!(p.utilization() > 0.95 * ideal);
    }

    #[test]
    fn processors_match_stage_count() {
        let w = WorkloadParams::default();
        let p = analyze_network(Scheme::Base, &w, 8).unwrap();
        assert_eq!(p.processors(), 256);
    }

    #[test]
    fn no_cache_with_low_sharing_is_feasible() {
        // §6.3: No-Cache is "efficient only if sharing is very low", and
        // in the low range it lands in the reasonable class.
        let w = WorkloadParams::at_level(Level::Low);
        let p = analyze_network(Scheme::NoCache, &w, 8).unwrap();
        assert!(p.utilization() > 0.3, "U = {}", p.utilization());
    }

    #[test]
    fn no_cache_with_high_sharing_is_abysmal() {
        // §1: "the efficiency of the No-Cache scheme becomes abysmal even
        // with moderate workload" on a network.
        let w = WorkloadParams::at_level(Level::High);
        let p = analyze_network(Scheme::NoCache, &w, 8).unwrap();
        assert!(p.utilization() < 0.15, "U = {}", p.utilization());
    }

    #[test]
    fn high_apl_closes_the_gap_to_base() {
        // §6.3: with high apl, Software-Flush approaches directory-like
        // (Base-like) performance.
        let w = WorkloadParams::at_level(Level::Middle);
        let generous = w.with_param(ParamId::Apl, 100.0).unwrap();
        let sf = analyze_network(Scheme::SoftwareFlush, &generous, 8).unwrap();
        let base = analyze_network(Scheme::Base, &generous, 8).unwrap();
        assert!(sf.power() > 0.85 * base.power());
    }
}
