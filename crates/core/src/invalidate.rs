//! A write-invalidate snoopy protocol model (extension).
//!
//! The paper models one snoopy protocol — Dragon, a write-*update*
//! design — because Archibald and Baer found its performance among the
//! best. The classic alternative is write-*invalidate* (Illinois/MESI,
//! Berkeley): a store to a shared block invalidates the other copies
//! instead of updating them, trading broadcast traffic per write for
//! coherence re-fetch misses per sharing handoff. This module models an
//! Illinois-style protocol with the paper's own workload parameters so
//! the two hardware philosophies can be compared under identical
//! assumptions (experiment `ext_invalidate`).
//!
//! ## Workload model
//!
//! Per instruction, reusing Table 2 parameters:
//!
//! * **Ordinary misses** exactly as Dragon's (Table 6), including
//!   cache-to-cache supply with probability `shd·(1 − oclean)`.
//! * **Coherence misses.** A processor's shared copy dies whenever
//!   another processor writes the block; with the paper's run-length
//!   structure each processor re-fetches a shared block once per `apl`
//!   references — `ls·shd/apl` extra clean misses (cf. the
//!   Software-Flush re-fetch term, but with no flush instructions).
//! * **Upgrades.** The first store of a write run to a block held
//!   `Shared` broadcasts an invalidation (charged like Dragon's
//!   write-broadcast: 2 CPU / 1 bus) and steals one cycle from each of
//!   the `nshd` snooping caches; later stores in the run hit the
//!   now-`Modified` block for free. Frequency: `ls·shd·mdshd/apl`
//!   (one per write-containing run).
//!
//! The textbook trade reproduces: at `apl = 1` (fine-grained ping-pong
//! sharing) the update protocol wins — invalidation forces a miss per
//! reference; at large `apl` (migratory sharing) invalidation wins —
//! Dragon keeps broadcasting every write while MESI settles into local
//! `Modified` hits.

use serde::{Deserialize, Serialize};

use crate::demand::charge;
use crate::error::Result;
use crate::queue::machine_repairman;
use crate::scheme::TermSink;
use crate::system::{BusSystemModel, MissSource, Operation};
use crate::workload::WorkloadParams;

/// Marker type for reporting (the scheme is not part of the paper's
/// four, so it does not appear in [`crate::scheme::Scheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WriteInvalidate;

impl std::fmt::Display for WriteInvalidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Write-Invalidate")
    }
}

/// The write-invalidate protocol's operation frequencies: its terms,
/// pushed into `sink` in table order.
#[inline]
pub(crate) fn invalidate_terms<S: TermSink>(w: &WorkloadParams, sink: &mut S) {
    let data_miss = w.ls() * w.msdat();
    let from_cache = w.shd() * (1.0 - w.oclean());
    let mem_miss = data_miss * (1.0 - from_cache) + w.mains();
    let cache_miss = data_miss * from_cache;
    // Coherence re-fetches: one per run of apl shared references.
    let coherence = w.ls() * w.shd() / w.apl();
    // Upgrades: one invalidation broadcast per write-containing run.
    let upgrade = w.ls() * w.shd() * w.mdshd() / w.apl();
    sink.push(Operation::Instruction, 1.0);
    sink.push(
        Operation::CleanMiss(MissSource::Memory),
        mem_miss * (1.0 - w.md()) + coherence,
    );
    sink.push(Operation::DirtyMiss(MissSource::Memory), mem_miss * w.md());
    sink.push(
        Operation::CleanMiss(MissSource::Cache),
        cache_miss * (1.0 - w.md()),
    );
    sink.push(Operation::DirtyMiss(MissSource::Cache), cache_miss * w.md());
    sink.push(Operation::WriteBroadcast, upgrade);
    sink.push(Operation::CycleSteal, upgrade * w.nshd());
}

/// Analyzes the write-invalidate protocol on an `n`-processor bus,
/// using the same MVA contention model as [`crate::bus::analyze_bus`].
///
/// The protocol is not one of the paper's four [`crate::scheme::Scheme`]s,
/// so the result is its own [`InvalidatePerformance`] record.
///
/// # Errors
///
/// Returns [`crate::ModelError::InvalidConfig`] if `processors == 0`.
///
/// # Examples
///
/// ```
/// use swcc_core::bus::analyze_bus;
/// use swcc_core::invalidate::bus_performance_invalidate;
/// use swcc_core::scheme::Scheme;
/// use swcc_core::system::BusSystemModel;
/// use swcc_core::workload::{ParamId, WorkloadParams};
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// // Ping-pong sharing (apl = 1): the update protocol wins.
/// let system = BusSystemModel::new();
/// let w = WorkloadParams::default().with_param(ParamId::Apl, 1.0)?;
/// let mesi = bus_performance_invalidate(&w, &system, 16)?;
/// let dragon = analyze_bus(Scheme::Dragon, &w, &system, 16)?;
/// assert!(dragon.power() > mesi.power());
/// # Ok(())
/// # }
/// ```
pub fn bus_performance_invalidate(
    workload: &WorkloadParams,
    system: &BusSystemModel,
    processors: u32,
) -> Result<InvalidatePerformance> {
    let d = charge(system, |_, _, _| {}, |sum| invalidate_terms(workload, sum))?;
    let mva = machine_repairman(processors, d.interconnect(), d.think_time())?;
    Ok(InvalidatePerformance {
        processors,
        cpu: d.cpu(),
        bus: d.interconnect(),
        waiting: mva.waiting(),
    })
}

/// Bus performance of the write-invalidate protocol.
///
/// Mirrors [`crate::bus::BusPerformance`] without the scheme tag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvalidatePerformance {
    processors: u32,
    cpu: f64,
    bus: f64,
    waiting: f64,
}

impl InvalidatePerformance {
    /// Number of processors.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// Per-instruction CPU demand `c`.
    pub fn cpu_demand(&self) -> f64 {
        self.cpu
    }

    /// Per-instruction bus demand `b`.
    pub fn bus_demand(&self) -> f64 {
        self.bus
    }

    /// Contention cycles per instruction `w`.
    pub fn waiting(&self) -> f64 {
        self.waiting
    }

    /// Processor utilization `1/(c + w)`.
    pub fn utilization(&self) -> f64 {
        1.0 / (self.cpu + self.waiting)
    }

    /// Processing power `n · U`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors) * self.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::analyze_bus;
    use crate::scheme::collect::Collected;
    use crate::scheme::Scheme;
    use crate::workload::{Level, ParamId};

    fn sys() -> BusSystemModel {
        BusSystemModel::new()
    }

    #[test]
    fn mix_matches_hand_computation_at_middle() {
        let w = WorkloadParams::default();
        let m = Collected::from(|sink| invalidate_terms(&w, sink));
        let coherence = 0.3 * 0.25 * 0.13;
        let upgrade = coherence * 0.25;
        assert!((m.freq(Operation::WriteBroadcast) - upgrade).abs() < 1e-12);
        assert!((m.freq(Operation::CycleSteal) - upgrade).abs() < 1e-12);
        let from_cache = 0.25 * 0.16;
        let mem_miss = 0.3 * 0.014 * (1.0 - from_cache) + 0.0022;
        assert!(
            (m.freq(Operation::CleanMiss(MissSource::Memory)) - (mem_miss * 0.8 + coherence)).abs()
                < 1e-12
        );
    }

    #[test]
    fn update_wins_fine_grained_sharing() {
        // apl = 1: every shared reference re-misses under invalidation;
        // Dragon just broadcasts one word.
        let w = WorkloadParams::default()
            .with_param(ParamId::Apl, 1.0)
            .unwrap();
        let mesi = bus_performance_invalidate(&w, &sys(), 16).unwrap().power();
        let dragon = analyze_bus(Scheme::Dragon, &w, &sys(), 16).unwrap().power();
        assert!(
            dragon > mesi,
            "dragon {dragon:.2} vs mesi {mesi:.2} at apl=1"
        );
    }

    #[test]
    fn invalidate_wins_migratory_sharing() {
        // Large apl with frequent writes: Dragon broadcasts every write
        // (shd·wr·opres per reference); MESI pays one upgrade per run.
        let w = WorkloadParams::default()
            .with_param(ParamId::Apl, 50.0)
            .unwrap()
            .with_param(ParamId::Wr, 0.4)
            .unwrap();
        let mesi = bus_performance_invalidate(&w, &sys(), 16).unwrap().power();
        let dragon = analyze_bus(Scheme::Dragon, &w, &sys(), 16).unwrap().power();
        assert!(
            mesi > dragon,
            "mesi {mesi:.2} vs dragon {dragon:.2} at apl=50"
        );
    }

    #[test]
    fn never_beats_base() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let mesi = bus_performance_invalidate(&w, &sys(), 16).unwrap().power();
            let base = analyze_bus(Scheme::Base, &w, &sys(), 16).unwrap().power();
            assert!(mesi <= base + 1e-9, "{level}");
        }
    }

    #[test]
    fn no_sharing_reduces_to_base() {
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 0.0)
            .unwrap();
        let mesi = bus_performance_invalidate(&w, &sys(), 8).unwrap();
        let base = analyze_bus(Scheme::Base, &w, &sys(), 8).unwrap();
        assert!((mesi.power() - base.power()).abs() < 1e-9);
        assert!((mesi.cpu_demand() - base.demand().cpu()).abs() < 1e-12);
    }

    #[test]
    fn utilization_identity_holds() {
        let w = WorkloadParams::default();
        let p = bus_performance_invalidate(&w, &sys(), 4).unwrap();
        assert!((p.utilization() - 1.0 / (p.cpu_demand() + p.waiting())).abs() < 1e-12);
        assert!(p.power() <= 4.0);
    }

    #[test]
    fn zero_processors_rejected() {
        let w = WorkloadParams::default();
        assert!(bus_performance_invalidate(&w, &sys(), 0).is_err());
    }
}
