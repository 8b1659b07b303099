//! Simulation results: the statistics the paper's simulator computed.

use std::fmt;

use serde::{Deserialize, Serialize};
use swcc_core::system::{MissSource, Operation};

use crate::machine::CpuCounters;
use crate::protocol::ProtocolKind;

/// The result of one simulation run.
///
/// Exposes the paper's validation metrics: miss rates, cycles lost to
/// bus contention, processor utilization, and processing power. Every
/// event total is a view of the operations the protocol charged
/// ([`SimReport::count`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimReport {
    protocol: ProtocolKind,
    cpus: Vec<CpuCounters>,
    bus_busy: u64,
    makespan: u64,
}

impl SimReport {
    pub(crate) fn new(
        protocol: ProtocolKind,
        cpus: Vec<CpuCounters>,
        bus_busy: u64,
        makespan: u64,
    ) -> Self {
        SimReport {
            protocol,
            cpus,
            bus_busy,
            makespan,
        }
    }

    /// The protocol simulated.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Per-processor counters.
    pub fn counters(&self, cpu: usize) -> &CpuCounters {
        &self.cpus[cpu]
    }

    /// How many times `op` was charged, summed over processors: the
    /// simulator's side of each Table 3–6 term.
    pub fn count(&self, op: Operation) -> u64 {
        self.sum(|c| c.count(op))
    }

    /// Total instructions executed (across processors, excluding flush
    /// records).
    pub fn instructions(&self) -> u64 {
        self.count(Operation::Instruction)
    }

    /// Total data references.
    pub fn data_refs(&self) -> u64 {
        self.cpus.iter().map(|c| c.data_reads + c.data_writes).sum()
    }

    /// Data references that went through the cache (excludes No-Cache's
    /// read/write-throughs).
    pub fn cached_data_refs(&self) -> u64 {
        self.data_refs() - self.read_throughs() - self.write_throughs()
    }

    /// Total data misses.
    pub fn data_misses(&self) -> u64 {
        self.cpus.iter().map(|c| c.data_misses).sum()
    }

    /// Total instruction misses.
    pub fn instr_misses(&self) -> u64 {
        self.cpus.iter().map(|c| c.instr_misses).sum()
    }

    /// Measured data miss rate `msdat` (misses per cached data
    /// reference).
    pub fn msdat(&self) -> f64 {
        ratio(self.data_misses(), self.cached_data_refs())
    }

    /// Measured instruction miss rate `mains`.
    pub fn mains(&self) -> f64 {
        ratio(self.instr_misses(), self.instructions())
    }

    /// Measured dirty-replacement probability `md` (write-backs per
    /// miss).
    pub fn md(&self) -> f64 {
        ratio(self.dirty_replacements(), self.fills())
    }

    /// One processor's utilization: productive (1-cycle) instructions
    /// over its total cycles.
    pub fn utilization(&self, cpu: usize) -> f64 {
        let c = &self.cpus[cpu];
        if c.cycles == 0 {
            0.0
        } else {
            c.count(Operation::Instruction) as f64 / c.cycles as f64
        }
    }

    /// Processing power: the sum of per-processor utilizations (the
    /// paper's `n × U` for homogeneous workloads).
    pub fn power(&self) -> f64 {
        (0..self.cpus.len()).map(|c| self.utilization(c)).sum()
    }

    /// Mean cycles per instruction across processors (the simulated
    /// `c + w`).
    pub fn cycles_per_instruction(&self) -> f64 {
        let cycles: u64 = self.cpus.iter().map(|c| c.cycles).sum();
        ratio(cycles, self.instructions())
    }

    /// Mean bus-contention cycles per instruction (the simulated `w`).
    pub fn contention_per_instruction(&self) -> f64 {
        let wait: u64 = self.cpus.iter().map(|c| c.contention_cycles).sum();
        ratio(wait, self.instructions())
    }

    /// Bus utilization: busy cycles over the longest processor's clock.
    pub fn bus_utilization(&self) -> f64 {
        ratio(self.bus_busy, self.makespan)
    }

    /// The longest processor clock at completion.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Total trace records replayed: instructions, data references, and
    /// flush records.
    pub fn accesses(&self) -> u64 {
        self.instructions() + self.data_refs() + self.clean_flushes() + self.dirty_flushes()
    }

    /// Copies dropped by snooped invalidations (Write-Invalidate): each
    /// costs the dropping cache one stolen cycle.
    pub fn invalidations(&self) -> u64 {
        match self.protocol {
            ProtocolKind::WriteInvalidate => self.cycle_steals(),
            _ => 0,
        }
    }

    /// Copies updated in place by snooped write-broadcasts (Dragon):
    /// each costs the updating cache one stolen cycle.
    pub fn updates(&self) -> u64 {
        match self.protocol {
            ProtocolKind::Dragon => self.cycle_steals(),
            _ => 0,
        }
    }

    /// Write-broadcasts issued on the bus (Dragon updates and
    /// Write-Invalidate upgrade invalidations).
    pub fn broadcasts(&self) -> u64 {
        self.count(Operation::WriteBroadcast)
    }

    /// Dirty blocks written back to memory: dirty replacements plus
    /// dirty software flushes.
    pub fn write_backs(&self) -> u64 {
        self.dirty_replacements() + self.dirty_flushes()
    }

    /// Cache line fills (block insertions on a miss): one per miss.
    pub fn fills(&self) -> u64 {
        self.data_misses() + self.instr_misses()
    }

    /// Misses that replaced a dirty block, wherever the block came from.
    fn dirty_replacements(&self) -> u64 {
        self.count(Operation::DirtyMiss(MissSource::Memory))
            + self.count(Operation::DirtyMiss(MissSource::Cache))
    }

    /// Interconnect transactions arbitrated.
    pub fn bus_transactions(&self) -> u64 {
        self.sum(|c| c.bus_transactions)
    }

    /// Software flushes of clean or absent lines (Software-Flush).
    pub fn clean_flushes(&self) -> u64 {
        self.count(Operation::CleanFlush)
    }

    /// Software flushes that wrote a dirty line back (Software-Flush).
    pub fn dirty_flushes(&self) -> u64 {
        self.count(Operation::DirtyFlush)
    }

    /// Uncached shared loads (No-Cache).
    pub fn read_throughs(&self) -> u64 {
        self.count(Operation::ReadThrough)
    }

    /// Uncached shared stores (No-Cache).
    pub fn write_throughs(&self) -> u64 {
        self.count(Operation::WriteThrough)
    }

    /// Processor cycles stolen by snooping cache controllers.
    pub fn cycle_steals(&self) -> u64 {
        self.count(Operation::CycleSteal)
    }

    /// Processor cycles spent waiting for the interconnect.
    pub fn contention_cycles(&self) -> u64 {
        self.sum(|c| c.contention_cycles)
    }

    fn sum(&self, field: impl Fn(&CpuCounters) -> u64) -> u64 {
        self.cpus.iter().map(field).sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{}: power={:.3} cpi={:.3} w={:.3} msdat={:.4} mains={:.4} bus={:.1}%",
            self.protocol,
            self.cpus.len(),
            self.power(),
            self.cycles_per_instruction(),
            self.contention_per_instruction(),
            self.msdat(),
            self.mains(),
            self.bus_utilization() * 100.0
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::simulate;
    use swcc_trace::synth::pops_like;

    fn report(protocol: ProtocolKind) -> SimReport {
        let trace = pops_like(4, 8_000, 11).generate();
        simulate(&trace, &SimConfig::new(protocol))
    }

    #[test]
    fn utilization_is_bounded() {
        for p in ProtocolKind::ALL {
            let r = report(p);
            for cpu in 0..r.cpus() {
                let u = r.utilization(cpu);
                assert!((0.0..=1.0).contains(&u), "{p} cpu{cpu}: {u}");
            }
            assert!(r.power() <= r.cpus() as f64);
        }
    }

    #[test]
    fn base_outperforms_software_schemes() {
        let base = report(ProtocolKind::Base).power();
        let nc = report(ProtocolKind::NoCache).power();
        assert!(base > nc, "base {base:.2} vs no-cache {nc:.2}");
    }

    #[test]
    fn miss_rates_are_small_for_locality_heavy_workloads() {
        let r = report(ProtocolKind::Base);
        assert!(r.msdat() < 0.2, "msdat {}", r.msdat());
        assert!(r.mains() < 0.1, "mains {}", r.mains());
    }

    #[test]
    fn no_cache_reports_throughs() {
        let r = report(ProtocolKind::NoCache);
        let throughs: u64 = (0..r.cpus())
            .map(|c| {
                r.counters(c).count(Operation::ReadThrough)
                    + r.counters(c).count(Operation::WriteThrough)
            })
            .sum();
        assert!(throughs > 0);
        assert!(r.cached_data_refs() < r.data_refs());
    }

    #[test]
    fn dragon_reports_broadcasts() {
        let r = report(ProtocolKind::Dragon);
        let b: u64 = (0..r.cpus())
            .map(|c| r.counters(c).count(Operation::WriteBroadcast))
            .sum();
        assert!(b > 0, "a sharing workload must broadcast");
    }

    #[test]
    fn bus_utilization_is_a_fraction() {
        for p in ProtocolKind::ALL {
            let r = report(p);
            let u = r.bus_utilization();
            assert!((0.0..=1.0).contains(&u), "{p}: {u}");
        }
    }

    #[test]
    fn coherence_event_totals_are_consistent() {
        let d = report(ProtocolKind::Dragon);
        assert!(d.fills() >= d.data_misses() + d.instr_misses());
        assert!(d.bus_transactions() > 0);
        assert!(d.updates() > 0, "snooped updates on a sharing workload");
        assert_eq!(d.invalidations(), 0, "Dragon never invalidates");
        let wi = report(ProtocolKind::WriteInvalidate);
        assert!(wi.invalidations() > 0, "upgrades drop other copies");
        assert_eq!(wi.updates(), 0, "Write-Invalidate never updates");
        assert!(
            wi.write_backs()
                >= wi
                    .counters(0)
                    .count(Operation::DirtyMiss(MissSource::Memory))
        );
    }

    #[test]
    fn cpi_decomposes_into_demand_plus_wait() {
        let r = report(ProtocolKind::Base);
        assert!(r.cycles_per_instruction() > 1.0);
        assert!(r.contention_per_instruction() < r.cycles_per_instruction());
    }
}
