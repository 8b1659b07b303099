//! Measuring the Table 2 workload parameters from a trace.
//!
//! The paper's validation pipeline measured the model's input parameters
//! from its ATUM-2 traces: trace-only quantities (`ls`, `wr`, `shd`,
//! `apl`, `mdshd`) directly, and cache-dependent quantities (`msdat`,
//! `mains`, `md`, `oclean`, `opres`, `nshd`) via cache simulation. This
//! module reproduces that pipeline: [`measure_workload`] replays the
//! trace through the simulator's own Dragon handlers (state only, no
//! timing) and assembles a validated [`WorkloadParams`] — which can then
//! be fed to the analytical model and compared against a timed
//! simulation of the *same* trace.
//!
//! The replay makes no line-state transition of its own: it counts the
//! operations the Dragon handlers charge to it in place of a timed
//! machine.

use serde::{Deserialize, Serialize};
use swcc_core::system::{MissSource, Operation};
use swcc_core::workload::WorkloadParams;
use swcc_trace::stats::TraceStats;
use swcc_trace::{AccessKind, Trace};

use crate::cache::{Cache, LineState};
use crate::config::SimConfig;
use crate::protocol::{dragon, snoop, Machine};

/// Raw measurement counters, exposed for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct MeasurementCounts {
    /// Data references.
    pub data_refs: u64,
    /// Data misses.
    pub data_misses: u64,
    /// Instruction fetches.
    pub instructions: u64,
    /// Instruction misses.
    pub instr_misses: u64,
    /// Misses replacing a dirty block.
    pub dirty_replacements: u64,
    /// Misses on shared blocks.
    pub shared_misses: u64,
    /// Misses on shared blocks with a dirty copy elsewhere.
    pub shared_misses_other_dirty: u64,
    /// References to shared blocks.
    pub shared_refs: u64,
    /// References to shared blocks present in another cache.
    pub shared_refs_other_present: u64,
    /// Stores to shared blocks present in another cache (broadcasts).
    pub broadcast_stores: u64,
    /// Total holders updated across all broadcasts.
    pub broadcast_holders: u64,
}

/// Measures all Table 2 parameters from a trace using the given cache
/// geometry (protocol and shared-policy fields of the config are
/// ignored; Dragon state transitions are always used so that dirty
/// ownership — and hence `oclean` — is tracked the way the snoopy
/// hardware would).
///
/// Parameters the trace cannot determine (a single-processor trace has
/// no inter-processor runs) fall back to the paper's middle values.
pub fn measure_workload(trace: &Trace, config: &SimConfig) -> WorkloadParams {
    let (params, _) = measure_workload_with_counts(trace, config);
    params
}

/// The measurement replay: Dragon caches without clocks, counting each
/// charged operation against the reference in flight.
struct Replay {
    caches: Vec<Cache>,
    counts: MeasurementCounts,
    /// Whether the reference in flight is an instruction fetch.
    fetching: bool,
    /// Whether the reference in flight is a data reference to a shared
    /// block.
    shared: bool,
}

impl Machine for Replay {
    fn caches(&mut self) -> &mut [Cache] {
        &mut self.caches
    }

    fn charge(&mut self, _cpu: usize, op: Operation) {
        let m = &mut self.counts;
        match op {
            Operation::CleanMiss(source) | Operation::DirtyMiss(source) => {
                m.dirty_replacements += u64::from(matches!(op, Operation::DirtyMiss(_)));
                if self.fetching {
                    m.instr_misses += 1;
                    return;
                }
                m.data_misses += 1;
                if self.shared {
                    m.shared_misses += 1;
                    if source == MissSource::Cache {
                        m.shared_misses_other_dirty += 1;
                    }
                }
            }
            Operation::WriteBroadcast if self.shared => m.broadcast_stores += 1,
            Operation::CycleSteal if self.shared => m.broadcast_holders += 1,
            _ => {}
        }
    }
}

/// Like [`measure_workload`], also returning the raw counters.
///
/// One pass of [`TraceStats::measure_shared`] yields the trace-only
/// parameters and the shared blocks; one replay through the Dragon
/// handlers yields the rest. Whether another cache holds a shared block
/// is read from the line the handler leaves behind: an exclusive line
/// is the only copy, and a shared one says so exactly when the handler
/// has snooped (a miss or a store); only a load hit on a shared line
/// snoops once more.
pub fn measure_workload_with_counts(
    trace: &Trace,
    config: &SimConfig,
) -> (WorkloadParams, MeasurementCounts) {
    let block_bits = config.block_bits();
    let (trace_stats, shared) = TraceStats::measure_shared(trace, block_bits);

    let cpus = usize::from(trace.cpus().max(1));
    let mut replay = Replay {
        caches: (0..cpus)
            .map(|_| Cache::new(config.cache_bytes(), config.ways(), block_bits))
            .collect(),
        counts: MeasurementCounts::default(),
        fetching: false,
        shared: false,
    };

    for a in trace {
        let cpu = a.cpu.index();
        let block = a.addr.block(block_bits);
        match a.kind {
            AccessKind::Fetch => {
                replay.counts.instructions += 1;
                replay.fetching = true;
                if replay.caches[cpu].touch(block).is_none() {
                    dragon::read_miss(&mut replay, cpu, block);
                }
            }
            AccessKind::Load | AccessKind::Store => {
                replay.counts.data_refs += 1;
                replay.fetching = false;
                replay.shared = shared.contains(block);
                let misses = replay.counts.data_misses;
                dragon::data(&mut replay, cpu, a.kind.is_write(), block);
                if replay.shared {
                    replay.counts.shared_refs += 1;
                    // The handler changes no other cache's contents. An
                    // exclusive line is the only copy; a store ends
                    // shared, and a miss fills shared, exactly when
                    // another cache holds the block; only a load hit on
                    // a shared line leaves the question open.
                    let snooped = a.kind.is_write() || replay.counts.data_misses > misses;
                    let others_hold = replay.caches[cpu]
                        .peek(block)
                        .is_some_and(LineState::is_shared)
                        && (snooped || snoop(&replay.caches, cpu, block).holders > 0);
                    replay.counts.shared_refs_other_present += u64::from(others_hold);
                }
            }
            AccessKind::Flush => {
                // Parameter measurement models the Dragon machine, which
                // has no flushes; skip.
            }
        }
    }

    let m = replay.counts;
    let mut b = WorkloadParams::builder();
    b.ls(trace_stats.ls().clamp(0.0, 1.0))
        .wr(trace_stats.wr().clamp(0.0, 1.0))
        .shd(trace_stats.shd().clamp(0.0, 1.0))
        .msdat(ratio(m.data_misses, m.data_refs).clamp(0.0, 1.0))
        .mains(ratio(m.instr_misses, m.instructions).clamp(0.0, 1.0))
        .md(ratio(m.dirty_replacements, m.data_misses + m.instr_misses).clamp(0.0, 1.0));
    if let Some(apl) = trace_stats.apl_estimate() {
        b.apl(apl.max(1.0));
    }
    if let Some(mdshd) = trace_stats.mdshd_estimate() {
        b.mdshd(mdshd.clamp(0.0, 1.0));
    }
    if m.shared_misses > 0 {
        b.oclean(1.0 - ratio(m.shared_misses_other_dirty, m.shared_misses));
    }
    if m.shared_refs > 0 {
        b.opres(ratio(m.shared_refs_other_present, m.shared_refs).clamp(0.0, 1.0));
    }
    if m.broadcast_stores > 0 {
        b.nshd(ratio(m.broadcast_holders, m.broadcast_stores));
    }
    let params = b.build().expect("measured parameters are in-domain");
    (params, m)
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
    use crate::protocol::ProtocolKind;
    use swcc_trace::synth::{pops_like, SynthConfig};
    use swcc_trace::BlockAddr;

    fn cfg() -> SimConfig {
        SimConfig::new(ProtocolKind::Dragon)
    }

    #[test]
    fn measured_parameters_are_in_table7_ballpark() {
        let trace = pops_like(4, 40_000, 19).generate();
        let w = measure_workload(&trace, &cfg());
        assert!((0.2..=0.4).contains(&w.ls()), "ls {}", w.ls());
        assert!(w.msdat() < 0.2, "msdat {}", w.msdat());
        assert!(w.mains() < 0.1, "mains {}", w.mains());
        assert!((0.0..=1.0).contains(&w.md()));
        assert!((0.05..=0.5).contains(&w.shd()), "shd {}", w.shd());
        assert!(w.apl() >= 1.0);
    }

    #[test]
    fn oclean_and_opres_are_probabilities() {
        let trace = pops_like(4, 30_000, 23).generate();
        let (w, counts) = measure_workload_with_counts(&trace, &cfg());
        assert!((0.0..=1.0).contains(&w.oclean()));
        assert!((0.0..=1.0).contains(&w.opres()));
        assert!(counts.shared_refs > 0);
        assert!(counts.shared_misses > 0);
    }

    #[test]
    fn nshd_is_at_least_one_when_broadcasts_happen() {
        let trace = pops_like(4, 30_000, 29).generate();
        let (w, counts) = measure_workload_with_counts(&trace, &cfg());
        if counts.broadcast_stores > 0 {
            assert!(w.nshd() >= 1.0, "nshd {}", w.nshd());
        }
    }

    #[test]
    fn single_cpu_trace_falls_back_to_middle_sharing_estimates() {
        let mut b = SynthConfig::builder();
        b.cpus(1).instructions_per_cpu(5_000).seed(2);
        let trace = b.build().generate();
        let w = measure_workload(&trace, &cfg());
        // No inter-processor runs: apl/mdshd keep the middle defaults.
        let middle = WorkloadParams::default();
        assert_eq!(w.apl(), middle.apl());
        assert_eq!(w.mdshd(), middle.mdshd());
        assert_eq!(w.shd(), 0.0);
    }

    #[test]
    fn bigger_caches_lower_the_measured_miss_rate() {
        let trace = pops_like(4, 40_000, 31).generate();
        let small = {
            let mut b = SimConfig::builder(ProtocolKind::Dragon);
            b.cache_bytes(16 * 1024);
            measure_workload(&trace, &b.build())
        };
        let large = {
            let mut b = SimConfig::builder(ProtocolKind::Dragon);
            b.cache_bytes(256 * 1024);
            measure_workload(&trace, &b.build())
        };
        assert!(large.msdat() <= small.msdat());
        assert!(large.mains() <= small.mains());
    }

    /// The replay [`measure_workload_with_counts`] replaced, kept as its
    /// reference: a separate SipHash pass for the shared blocks, and a
    /// fresh scan of the other caches for every question the replay
    /// asks.
    fn reference_counts(trace: &Trace, config: &SimConfig) -> MeasurementCounts {
        use std::collections::{HashMap, HashSet};
        let block_bits = config.block_bits();
        let mut first: HashMap<BlockAddr, u16> = HashMap::new();
        let mut shared = HashSet::new();
        for a in trace {
            if a.kind.is_data() {
                let block = a.addr.block(block_bits);
                match first.get(&block) {
                    Some(&c) if c != a.cpu.0 => {
                        shared.insert(block);
                    }
                    Some(_) => {}
                    None => {
                        first.insert(block, a.cpu.0);
                    }
                }
            }
        }
        let holders = |caches: &[Cache], cpu: usize, block: BlockAddr| -> Vec<usize> {
            (0..caches.len())
                .filter(|&o| o != cpu && caches[o].peek(block).is_some())
                .collect()
        };
        let fill =
            |caches: &mut [Cache], cpu: usize, block: BlockAddr, m: &mut MeasurementCounts| {
                let state = if holders(caches, cpu, block).is_empty() {
                    LineState::Clean
                } else {
                    LineState::SharedClean
                };
                if caches[cpu]
                    .insert(block, state)
                    .victim
                    .is_some_and(|(_, s)| s.is_dirty())
                {
                    m.dirty_replacements += 1;
                }
            };
        let cpus = usize::from(trace.cpus().max(1));
        let mut caches: Vec<Cache> = (0..cpus)
            .map(|_| Cache::new(config.cache_bytes(), config.ways(), block_bits))
            .collect();
        let mut m = MeasurementCounts::default();
        for a in trace {
            let cpu = a.cpu.index();
            let block = a.addr.block(block_bits);
            match a.kind {
                AccessKind::Fetch => {
                    m.instructions += 1;
                    if caches[cpu].touch(block).is_none() {
                        m.instr_misses += 1;
                        fill(&mut caches, cpu, block, &mut m);
                    }
                }
                AccessKind::Load | AccessKind::Store => {
                    m.data_refs += 1;
                    let is_shared = shared.contains(&block);
                    if is_shared {
                        m.shared_refs += 1;
                        if !holders(&caches, cpu, block).is_empty() {
                            m.shared_refs_other_present += 1;
                        }
                    }
                    if caches[cpu].touch(block).is_none() {
                        m.data_misses += 1;
                        if is_shared {
                            m.shared_misses += 1;
                            if (0..cpus).any(|o| {
                                o != cpu && caches[o].peek(block).is_some_and(LineState::is_dirty)
                            }) {
                                m.shared_misses_other_dirty += 1;
                            }
                        }
                        fill(&mut caches, cpu, block, &mut m);
                    }
                    if a.kind.is_write() {
                        let others = holders(&caches, cpu, block);
                        if others.is_empty() {
                            caches[cpu].set_state(block, LineState::Dirty);
                        } else {
                            if is_shared {
                                m.broadcast_stores += 1;
                                m.broadcast_holders += others.len() as u64;
                            }
                            for o in others {
                                caches[o].set_state(block, LineState::SharedClean);
                            }
                            caches[cpu].set_state(block, LineState::SharedDirty);
                        }
                    }
                }
                AccessKind::Flush => {}
            }
        }
        m
    }

    /// Release builds (CI's `cargo test --release -p swcc-sim`) check
    /// far more random traces.
    const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 20_000 };

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(CASES))]

        /// The replay through the Dragon handlers counts what the
        /// reference counts. Every kind of record hits every block, so
        /// processors fetch from blocks that others load and store: a
        /// block no two processors load or store can still sit in
        /// another cache, and the replay must snoop for it.
        #[test]
        fn replay_matches_the_reference_replay(
            records in proptest::collection::vec((0u16..4, 0u8..4, 0u64..1024), 1..500),
            ways in 1usize..3,
            sets_log in 0u32..4,
        ) {
            use swcc_trace::{Access, AccessKind};
            let kinds = [
                AccessKind::Fetch,
                AccessKind::Load,
                AccessKind::Store,
                AccessKind::Flush,
            ];
            let trace = Trace::from_records(
                records
                    .into_iter()
                    .map(|(cpu, kind, addr)| Access::new(cpu, kinds[usize::from(kind)], addr))
                    .collect(),
            );
            let mut b = SimConfig::builder(ProtocolKind::Dragon);
            b.cache_bytes((16 * ways as u64) << sets_log).ways(ways);
            let config = b.build();
            let (_, counts) = measure_workload_with_counts(&trace, &config);
            proptest::prop_assert_eq!(counts, reference_counts(&trace, &config));
        }
    }
}
