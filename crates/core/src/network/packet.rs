//! A buffered packet-switched network model (extension).
//!
//! The paper's conclusion conjectures that "use of packet-switching
//! would be more favorable to No-Cache" because circuit switching
//! charges every transaction the fixed path-setup cost that dominates
//! No-Cache's many small messages. This module adds a simple
//! cut-through packet-switched counterpart to [`super::patel`] so the
//! conjecture can be evaluated (see the `packet_vs_circuit` experiment).
//!
//! ## Model
//!
//! The network is the same `n`-stage delta of 2×2 switches, but with
//! buffered, pipelined (virtual cut-through) packet switching:
//!
//! * **Uncontended latency.** A transaction of `t` payload cycles
//!   occupies `n + t` cycles end-to-end — the header pipelines through
//!   the `n` stages while the payload streams behind it — instead of the
//!   circuit model's `2n + t` setup-and-hold. (Links are full-duplex and
//!   the memory's response path is symmetric and independently
//!   provisioned, so one traversal is charged; the cycle-level packet
//!   simulator in `swcc-sim` implements the same machine.)
//! * **Contention.** Each stage's output link is an M/D/1-like queue
//!   with deterministic unit service. With link utilization
//!   `ρ = X·t_link`, the mean wait per stage is `ρ / (2(1 − ρ))` and a
//!   transaction crosses `n` stages.
//! * **Closed loop.** A processor alternates `Z = c − b_local` cycles of
//!   think time with one transaction; throughput solves
//!   `X = 1 / (Z + L(X))` by damped fixed-point iteration, where
//!   `L(X) = n + t + n·ρ/(2(1 − ρ))`.
//!
//! The model is deliberately simple (uniform traffic, independence
//! assumptions identical in spirit to Patel's); its purpose is the
//! *comparison* between switching disciplines, not absolute numbers.

use serde::{Deserialize, Serialize};

use crate::demand::scheme_terms;
use crate::error::{ModelError, Result};
use crate::scheme::Scheme;
use crate::system::NetworkSystemModel;
use crate::workload::WorkloadParams;

/// The solved operating point of the packet-switched network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketPerformance {
    scheme: Scheme,
    stages: u32,
    think: f64,
    payload: f64,
    throughput: f64,
    latency: f64,
}

impl PacketPerformance {
    /// The scheme analyzed.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Network stage count.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Number of processors.
    pub fn processors(&self) -> u32 {
        1 << self.stages
    }

    /// Mean transaction latency in cycles, including queueing.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Per-processor throughput in instructions per cycle.
    pub fn utilization(&self) -> f64 {
        self.throughput
    }

    /// Processing power `n · utilization`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors()) * self.throughput
    }
}

/// Analyzes a scheme on the packet-switched variant of the network.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedScheme`] for Dragon, and
/// [`ModelError::Convergence`] if the fixed point fails to settle
/// (which does not occur for in-domain workloads; checked defensively).
///
/// # Examples
///
/// ```
/// use swcc_core::network::{analyze_network, analyze_network_packet};
/// use swcc_core::scheme::Scheme;
/// use swcc_core::workload::WorkloadParams;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// // §7's conjecture: packet switching favors No-Cache.
/// let w = WorkloadParams::default();
/// let circuit = analyze_network(Scheme::NoCache, &w, 8)?;
/// let packet = analyze_network_packet(Scheme::NoCache, &w, 8)?;
/// assert!(packet.power() > circuit.power());
/// # Ok(())
/// # }
/// ```
pub fn analyze_network_packet(
    scheme: Scheme,
    workload: &WorkloadParams,
    stages: u32,
) -> Result<PacketPerformance> {
    if scheme.requires_bus() {
        return Err(ModelError::UnsupportedScheme {
            scheme,
            interconnect: "packet-switched network",
        });
    }
    // Reuse the Table 9 accounting to split the per-instruction demand:
    // the circuit model's `b` includes the 2n round trip; the payload a
    // packet must actually move is `b − 2n·(transactions)`. We recover
    // the per-instruction transaction rate and mean payload from the
    // table by charging each network operation its Table 9 time minus
    // the round-trip term.
    let system = NetworkSystemModel::new(stages);
    let round_trip = f64::from(system.round_trip());
    // Transactions per instruction: every cycle of interconnect time
    // belongs to some operation whose cost includes exactly one 2n
    // round trip, so the transactions are the terms that hold the
    // network, counted in the same pass that sums the demand.
    let mut transactions = 0.0;
    let demand = scheme_terms(scheme, workload, &system, |_, freq, cost| {
        if cost.interconnect() > 0 {
            transactions += freq;
        }
    })?;
    // swcc-lint: allow(float-eq) — no-traffic guard; -0.0 transactions or demand still mean no traffic
    if transactions == 0.0 || demand.interconnect() == 0.0 {
        // No network traffic at all: the processor runs at 1/c.
        return Ok(PacketPerformance {
            scheme,
            stages,
            think: demand.cpu(),
            payload: 0.0,
            throughput: 1.0 / demand.cpu(),
            latency: 0.0,
        });
    }
    // Mean payload cycles per transaction (Table 9 time minus 2n).
    let payload =
        (demand.interconnect() - transactions * round_trip).max(1.0 * transactions) / transactions;
    // Local (non-network) processor time per instruction.
    let think = demand.cpu() - demand.interconnect();
    let n = f64::from(stages);

    // Closed-loop fixed point: X instructions/cycle; each instruction
    // performs `transactions` transactions; link utilization is the
    // payload each processor pushes per cycle.
    let latency_at = |x: f64| -> f64 {
        let rho = (x * transactions * payload).min(0.999_999);
        let per_stage_wait = rho / (2.0 * (1.0 - rho));
        n + payload + n * per_stage_wait
    };
    let mut x = 1.0 / demand.cpu();
    for _ in 0..10_000 {
        let next = 1.0 / (think + transactions * latency_at(x));
        let new_x = 0.5 * x + 0.5 * next;
        if (new_x - x).abs() < 1e-12 {
            x = new_x;
            break;
        }
        x = new_x;
    }
    let residual = (x - 1.0 / (think + transactions * latency_at(x))).abs();
    if residual > 1e-6 {
        return Err(ModelError::Convergence {
            solver: "packet fixed point",
            residual,
        });
    }
    Ok(PacketPerformance {
        scheme,
        stages,
        think,
        payload,
        throughput: x,
        latency: latency_at(x),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::analyze_network;
    use crate::workload::{Level, ParamId};

    #[test]
    fn dragon_is_rejected() {
        let w = WorkloadParams::default();
        assert!(matches!(
            analyze_network_packet(Scheme::Dragon, &w, 8),
            Err(ModelError::UnsupportedScheme { .. })
        ));
    }

    #[test]
    fn utilization_is_bounded_and_positive() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            for s in [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush] {
                let p = analyze_network_packet(s, &w, 8).unwrap();
                assert!(
                    p.utilization() > 0.0 && p.utilization() <= 1.0,
                    "{s}@{level}"
                );
                assert!(p.latency() >= 8.0, "{s}@{level}: latency {}", p.latency());
            }
        }
    }

    #[test]
    fn packet_switching_favors_no_cache_relative_to_circuit() {
        // The paper's §7 conjecture, quantified: No-Cache's ratio to
        // Software-Flush improves under packet switching.
        let w = WorkloadParams::default();
        let circuit_nc = analyze_network(Scheme::NoCache, &w, 8).unwrap().power();
        let circuit_sf = analyze_network(Scheme::SoftwareFlush, &w, 8)
            .unwrap()
            .power();
        let packet_nc = analyze_network_packet(Scheme::NoCache, &w, 8)
            .unwrap()
            .power();
        let packet_sf = analyze_network_packet(Scheme::SoftwareFlush, &w, 8)
            .unwrap()
            .power();
        let circuit_ratio = circuit_nc / circuit_sf;
        let packet_ratio = packet_nc / packet_sf;
        assert!(
            packet_ratio > circuit_ratio,
            "packet NC/SF {packet_ratio:.3} must beat circuit NC/SF {circuit_ratio:.3}"
        );
    }

    #[test]
    fn packet_latency_beats_circuit_setup_for_small_messages() {
        // A No-Cache write-through (1 payload word) should see far less
        // uncontended latency than 2n + t.
        let w = WorkloadParams::at_level(Level::Low);
        let p = analyze_network_packet(Scheme::NoCache, &w, 8).unwrap();
        assert!(p.latency() < 2.0 * 8.0 + 5.0, "latency {}", p.latency());
    }

    #[test]
    fn power_scales_with_stages() {
        let w = WorkloadParams::default();
        let mut prev = 0.0;
        for stages in 1..=9 {
            let p = analyze_network_packet(Scheme::SoftwareFlush, &w, stages)
                .unwrap()
                .power();
            assert!(p > prev, "power must grow with network size");
            prev = p;
        }
    }

    #[test]
    fn no_sharing_runs_at_base_speed() {
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 0.0)
            .unwrap();
        let base = analyze_network_packet(Scheme::Base, &w, 8).unwrap();
        let nc = analyze_network_packet(Scheme::NoCache, &w, 8).unwrap();
        assert!((base.power() - nc.power()).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_workload_thinks_full_time() {
        let mut b = WorkloadParams::builder();
        b.msdat(0.0).mains(0.0).shd(0.0);
        let w = b.build().unwrap();
        let p = analyze_network_packet(Scheme::Base, &w, 8).unwrap();
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(p.latency(), 0.0);
    }
}
