//! A directory-based hardware coherence model (extension).
//!
//! The paper compares its software schemes against snoopy hardware on a
//! bus, but on a multistage network the natural hardware alternative is
//! a *directory* protocol (§1 cites Tang/Censier-Feautrier-style
//! directories; §6.3 remarks that "the performance of the Software-Flush
//! scheme for the low range approximates the performance of
//! hardware-based directory schemes"). This module adds a simple
//! invalidation-based directory model so that remark can be quantified
//! (see the `directory_vs_software` experiment).
//!
//! ## Model
//!
//! A full-map directory at memory tracks sharers; caches are write-back:
//!
//! * **Unshared data and instructions** behave exactly like Base: the
//!   miss rates and dirty-replacement behaviour are unchanged.
//! * **Coherence misses.** A processor's cached shared block is
//!   invalidated whenever another processor writes it; with the same
//!   run-length structure the paper uses for Software-Flush, each
//!   processor re-fetches a shared block once per `apl` references —
//!   one clean fetch per run, charged like Software-Flush's re-fetch
//!   (but with *no* flush instructions: invalidation is free for the
//!   invalidated party bar the later miss).
//! * **Ownership traffic.** The *first* write of a write run sends an
//!   ownership/invalidate request to the directory and waits for the
//!   acknowledgement — one small round trip, charged at the
//!   write-through cost (`3 + 2n` CPU / `2 + 2n` network). Subsequent
//!   writes in the run hit the owned block locally, so ownership
//!   requests occur once per write-containing run: `ls·shd·mdshd/apl`
//!   per instruction (the same run structure the paper uses for
//!   Software-Flush, where `mdshd` is the probability a run writes).
//!
//! The model deliberately reuses the paper's workload parameters so the
//! comparison isolates the protocol difference.

use serde::{Deserialize, Serialize};

use crate::demand::charge;
use crate::error::{ModelError, Result};
use crate::network::patel;
use crate::scheme::TermSink;
use crate::system::{MissSource, NetworkSystemModel, Operation};
use crate::workload::WorkloadParams;

/// The directory protocol's operation frequencies per instruction: its
/// terms, pushed into `sink` in table order.
#[inline]
pub(crate) fn directory_terms<S: TermSink>(w: &WorkloadParams, sink: &mut S) {
    let unshared_miss = w.ls() * w.msdat() * (1.0 - w.shd()) + w.mains();
    // One coherence re-fetch per run of apl references to shared data.
    let coherence_miss = w.ls() * w.shd() / w.apl();
    // Ownership/invalidate round trip once per write-containing run
    // (later writes in the run own the block already).
    let ownership = w.ls() * w.shd() * w.mdshd() / w.apl();
    sink.push(Operation::Instruction, 1.0);
    sink.push(
        Operation::CleanMiss(MissSource::Memory),
        unshared_miss * (1.0 - w.md()) + coherence_miss,
    );
    sink.push(
        Operation::DirtyMiss(MissSource::Memory),
        unshared_miss * w.md(),
    );
    sink.push(Operation::WriteThrough, ownership);
}

/// The predicted performance of the directory protocol on a multistage
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectoryPerformance {
    stages: u32,
    cpu: f64,
    interconnect: f64,
    point: patel::OperatingPoint,
}

impl DirectoryPerformance {
    /// Network stage count.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Number of processors.
    pub fn processors(&self) -> u32 {
        1 << self.stages
    }

    /// Per-instruction CPU demand `c`.
    pub fn cpu_demand(&self) -> f64 {
        self.cpu
    }

    /// Per-instruction network demand `b`.
    pub fn network_demand(&self) -> f64 {
        self.interconnect
    }

    /// Effective utilization in instructions per cycle.
    pub fn utilization(&self) -> f64 {
        self.point.throughput()
    }

    /// Processing power `n · utilization`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors()) * self.utilization()
    }
}

/// Analyzes the directory protocol on a circuit-switched multistage
/// network of the given stage count, using the same Patel contention
/// model as the software schemes: the operating point is the cold
/// guarded-Newton solve ([`patel::solve`]) of the directory table's
/// demand.
///
/// # Errors
///
/// Propagates solver errors (which cannot occur for valid workloads).
///
/// # Examples
///
/// ```
/// use swcc_core::directory::analyze_directory;
/// use swcc_core::network::analyze_network;
/// use swcc_core::scheme::Scheme;
/// use swcc_core::workload::{Level, WorkloadParams};
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// // §6.3: Software-Flush at the low range approximates directory
/// // hardware.
/// let low = WorkloadParams::at_level(Level::Low);
/// let dir = analyze_directory(&low, 8)?;
/// let sf = analyze_network(Scheme::SoftwareFlush, &low, 8)?;
/// assert!((dir.power() - sf.power()).abs() / dir.power() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn analyze_directory(workload: &WorkloadParams, stages: u32) -> Result<DirectoryPerformance> {
    let system = NetworkSystemModel::new(stages);
    let d = charge(&system, |_, _, _| {}, |sum| directory_terms(workload, sum))?;
    let point = patel::solve(d.transaction_rate(), d.transaction_size(), stages)?;
    if point.think_fraction().is_nan() {
        return Err(ModelError::Convergence {
            solver: "patel fixed point (directory)",
            residual: f64::NAN,
        });
    }
    Ok(DirectoryPerformance {
        stages,
        cpu: d.cpu(),
        interconnect: d.interconnect(),
        point,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::analyze_network;
    use crate::scheme::collect::Collected;
    use crate::scheme::Scheme;
    use crate::workload::{Level, ParamId};

    #[test]
    fn mix_matches_hand_computation_at_middle() {
        let w = WorkloadParams::default();
        let m = Collected::from(|sink| directory_terms(&w, sink));
        let unshared = 0.3 * 0.014 * 0.75 + 0.0022;
        let refetch = 0.3 * 0.25 * 0.13;
        let ownership = 0.3 * 0.25 * 0.25 * 0.13; // ls·shd·mdshd/apl
        assert!(
            (m.freq(Operation::CleanMiss(MissSource::Memory)) - (unshared * 0.8 + refetch)).abs()
                < 1e-12
        );
        assert!((m.freq(Operation::WriteThrough) - ownership).abs() < 1e-12);
    }

    #[test]
    fn directory_beats_both_software_schemes_at_middle() {
        // Hardware coherence does not pay flush instructions or
        // uncached throughs.
        let w = WorkloadParams::default();
        let dir = analyze_directory(&w, 8).unwrap().power();
        let sf = analyze_network(Scheme::SoftwareFlush, &w, 8)
            .unwrap()
            .power();
        let nc = analyze_network(Scheme::NoCache, &w, 8).unwrap().power();
        assert!(dir > sf, "dir {dir:.1} vs sf {sf:.1}");
        assert!(dir > nc, "dir {dir:.1} vs nc {nc:.1}");
    }

    #[test]
    fn software_flush_low_range_approximates_directory() {
        // §6.3: "The performance of the Software-Flush scheme for the
        // low range approximates the performance of hardware-based
        // directory schemes."
        let low = WorkloadParams::at_level(Level::Low);
        let dir = analyze_directory(&low, 8).unwrap().power();
        let sf = analyze_network(Scheme::SoftwareFlush, &low, 8)
            .unwrap()
            .power();
        let gap = (dir - sf).abs() / dir;
        assert!(
            gap < 0.10,
            "gap {:.1}% between SF-low and directory",
            gap * 100.0
        );
    }

    #[test]
    fn directory_never_beats_base() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let dir = analyze_directory(&w, 8).unwrap().power();
            let base = analyze_network(Scheme::Base, &w, 8).unwrap().power();
            assert!(
                dir <= base + 1e-9,
                "{level}: dir {dir:.1} vs base {base:.1}"
            );
        }
    }

    #[test]
    fn ownership_traffic_scales_with_write_run_fraction() {
        // mdshd is the probability a run writes, hence the rate of
        // ownership transfers.
        let w = WorkloadParams::default();
        let heavy = w.with_param(ParamId::Mdshd, 0.5).unwrap();
        let light = w.with_param(ParamId::Mdshd, 0.0).unwrap();
        let p_heavy = analyze_directory(&heavy, 8).unwrap();
        let p_light = analyze_directory(&light, 8).unwrap();
        assert!(p_heavy.network_demand() > p_light.network_demand());
        assert!(p_heavy.power() < p_light.power());
    }

    #[test]
    fn operating_point_is_the_cold_solve_of_its_demand() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            for stages in [0u32, 2, 6, 10] {
                let dir = analyze_directory(&w, stages).unwrap();
                let system = NetworkSystemModel::new(stages);
                let d = charge(&system, |_, _, _| {}, |sum| directory_terms(&w, sum)).unwrap();
                assert_eq!(dir.cpu_demand().to_bits(), d.cpu().to_bits());
                assert_eq!(dir.network_demand().to_bits(), d.interconnect().to_bits());
                let point =
                    patel::solve(d.transaction_rate(), d.transaction_size(), stages).unwrap();
                for (got, want) in [
                    (dir.point.think_fraction(), point.think_fraction()),
                    (dir.point.accepted_rate(), point.accepted_rate()),
                    (dir.utilization(), point.throughput()),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{level} at {stages} stages");
                }
            }
        }
    }

    #[test]
    fn power_scales_with_network_size() {
        let w = WorkloadParams::default();
        let mut prev = 0.0;
        for stages in 1..=10 {
            let p = analyze_directory(&w, stages).unwrap().power();
            assert!(p > prev);
            prev = p;
        }
    }
}
