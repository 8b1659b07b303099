//! The trace-driven multiprocessor simulator.
//!
//! This reproduces the validation instrument of the paper's §3: a
//! multiprocessor cache and bus simulator that replays an interleaved
//! address trace and computes miss rates, cycles lost to bus contention,
//! and processor utilization for a configurable coherence protocol,
//! cache geometry, and processor count.
//!
//! ## Engine
//!
//! Each processor has a local clock and replays its own substream of the
//! trace, read in place. The engine always advances the processor with
//! the smallest local time (ties broken by processor id, so runs are
//! deterministic). The pick is a branch-free scan over the processors
//! that still have records, in ascending id order, keeping the first
//! strictly smaller clock, so a tie goes to the lowest id.
//! Bus operations request the bus at the processor's current time; the
//! bus grants in FCFS order (`bus_free` high-water mark), and the
//! difference between request and grant is accounted as contention.
//! Unlike the analytical model — which assumes exponential service — the
//! simulator uses the *fixed* service times of Table 1, which is exactly
//! why the paper observes the model slightly overestimating contention.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use swcc_core::system::{CostModel, NetworkSystemModel, OpCost, Operation};
use swcc_obs::Progress;
use swcc_trace::{Access, AccessKind, Addr, BlockAddr, Trace};

use crate::cache::{Cache, LineState};
use crate::config::{InterconnectKind, ServiceDiscipline, SimConfig};
use crate::metrics::{EV_SIM_BUS_OP, EV_SIM_CACHE_FILL, EV_SIM_EVENTS, EV_SIM_RUN};
use crate::protocol::{base, dragon, no_cache, software_flush, write_invalidate, ProtocolKind};
use crate::report::SimReport;

/// Replayed accesses between progress-heartbeat eligibility checks —
/// cheap enough to leave on permanently, frequent enough that a
/// 256-core run heartbeats well inside the throttle interval.
const PROGRESS_CHECK_EVERY: u64 = 64 * 1024;

/// Per-processor event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct CpuCounters {
    /// Instructions executed (fetch records).
    pub instructions: u64,
    /// Flush records processed (Software-Flush only).
    pub flush_records: u64,
    /// Data loads.
    pub data_reads: u64,
    /// Data stores.
    pub data_writes: u64,
    /// Instruction-fetch misses.
    pub instr_misses: u64,
    /// Data misses (cached references only).
    pub data_misses: u64,
    /// Misses that replaced a dirty block (write-back performed).
    pub dirty_replacements: u64,
    /// Misses supplied by another cache (Dragon).
    pub cache_sourced_misses: u64,
    /// Uncached shared loads (No-Cache).
    pub read_throughs: u64,
    /// Uncached shared stores (No-Cache).
    pub write_throughs: u64,
    /// Flushes of clean/absent lines.
    pub clean_flushes: u64,
    /// Flushes that wrote a dirty line back.
    pub dirty_flushes: u64,
    /// Write-broadcasts issued (Dragon).
    pub broadcasts: u64,
    /// Copies this cache dropped on a snooped invalidation
    /// (Write-Invalidate).
    pub invalidations: u64,
    /// Copies this cache updated in place on a snooped write-broadcast
    /// (Dragon).
    pub updates: u64,
    /// Cache line fills (block insertions on a miss).
    pub fills: u64,
    /// Interconnect transactions this processor won arbitration for.
    pub bus_transactions: u64,
    /// Cycles stolen by the cache controller while snooping (Dragon).
    pub cycle_steals: u64,
    /// Cycles spent waiting for the bus.
    pub contention_cycles: u64,
    /// Final local time in cycles.
    pub cycles: u64,
}

/// The interconnect fabric state.
#[derive(Debug, Clone)]
enum Fabric {
    /// One FCFS bus: a single high-water mark.
    Bus { free: u64 },
    /// Circuit-switched multistage network: per-stage, per-link
    /// busy-until marks, with Table 9 costs.
    Network {
        system: NetworkSystemModel,
        links: Vec<Vec<u64>>,
    },
}

/// The simulated machine: caches, interconnect, clocks, and counters.
#[derive(Debug, Clone)]
pub struct Multiprocessor {
    pub(crate) config: SimConfig,
    pub(crate) caches: Vec<Cache>,
    pub(crate) time: Vec<u64>,
    pub(crate) bus_busy: u64,
    pub(crate) counters: Vec<CpuCounters>,
    fabric: Fabric,
    /// Block of the current access; the network fabric routes it to
    /// its memory module.
    pending_block: BlockAddr,
    /// Processor issuing the current access (network routing source).
    pending_cpu: u32,
    /// RNG for stochastic service disciplines.
    rng: StdRng,
}

impl Multiprocessor {
    /// Creates a machine with `cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(config: SimConfig, cpus: u16) -> Self {
        assert!(cpus > 0, "need at least one processor");
        let caches = (0..cpus)
            .map(|_| Cache::new(config.cache_bytes(), config.ways(), config.block_bits()))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed());
        let fabric = match config.interconnect() {
            InterconnectKind::Bus => Fabric::Bus { free: 0 },
            InterconnectKind::Network { stages } => {
                assert!(
                    u32::from(cpus) == 1u32 << stages,
                    "a {stages}-stage network connects exactly {} processors, got {cpus}",
                    1u32 << stages
                );
                Fabric::Network {
                    system: NetworkSystemModel::new(stages),
                    links: vec![vec![0; usize::from(cpus)]; stages as usize],
                }
            }
        };
        Multiprocessor {
            config,
            caches,
            time: vec![0; usize::from(cpus)],
            bus_busy: 0,
            counters: vec![CpuCounters::default(); usize::from(cpus)],
            fabric,
            pending_block: BlockAddr(0),
            pending_cpu: 0,
            rng,
        }
    }

    /// The configuration this machine runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays a whole trace and returns the report.
    ///
    /// The trace's processor count must not exceed the machine's.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a processor this machine lacks.
    pub fn run(&mut self, trace: &Trace) -> SimReport {
        assert!(
            usize::from(trace.cpus()) <= self.time.len(),
            "trace uses {} cpus, machine has {}",
            trace.cpus(),
            self.time.len()
        );
        let _run_span = if swcc_obs::trace_enabled() {
            swcc_obs::span(
                EV_SIM_RUN,
                &[
                    swcc_obs::Field::text("protocol", self.config.protocol().to_string()),
                    swcc_obs::Field::u64("cpus", self.time.len() as u64),
                    swcc_obs::Field::u64("accesses", trace.len() as u64),
                ],
            )
        } else {
            swcc_obs::span(EV_SIM_RUN, &[])
        };
        let start = Instant::now();
        let mut progress = Progress::new(crate::metrics::EV_SIM_PROGRESS, trace.len() as u64)
            .check_every(PROGRESS_CHECK_EVERY)
            .gauge(crate::metrics::SIM_ACCESSES_PER_SECOND);
        let mut streams = Streams::new(trace, self.time.len());
        // Processors with records left, in ascending id order.
        let mut live: Vec<usize> = (0..self.time.len())
            .filter(|&cpu| streams.has_next(cpu))
            .collect();
        let mut done = 0u64;
        while !live.is_empty() {
            // The smallest (clock, id): a strict `<` over ascending ids
            // keeps the lowest id on a tie, and both selects compile to
            // conditional moves.
            let mut best = 0;
            let mut best_time = self.time[live[0]];
            for (slot, &cpu) in live.iter().enumerate().skip(1) {
                let time = self.time[cpu];
                let earlier = time < best_time;
                best = if earlier { slot } else { best };
                best_time = if earlier { time } else { best_time };
            }
            let cpu = live[best];
            let access = streams.next(cpu);
            if !streams.has_next(cpu) {
                live.remove(best);
            }
            self.step(cpu, access);
            done += 1;
            // The heartbeat only *reads* progress; it cannot perturb the
            // simulated state, so observed and unobserved runs stay
            // bit-identical (tests/sim_observation.rs).
            if progress.due(done) {
                progress.tick(done);
            }
        }
        let report = self.report();
        self.record_run_metrics(&report, done, start);
        report
    }

    /// Publishes one finished run's totals to the swcc-obs dispatch:
    /// coherence-event counters, wall-clock, throughput, and (when a
    /// trace sink is installed) the terminal `sim.events` summary.
    fn record_run_metrics(&self, report: &SimReport, accesses: u64, start: Instant) {
        use crate::metrics as m;
        // Zero totals are skipped so the snapshot only carries the
        // counters the protocol can actually generate (e.g. Dragon
        // never invalidates).
        let add = |name: &'static str, total: u64| {
            if total > 0 {
                swcc_obs::counter_add(name, total);
            }
        };
        swcc_obs::counter_add(m::SIM_RUNS, 1);
        swcc_obs::counter_add(m::SIM_ACCESSES, accesses);
        add(m::SIM_INSTRUCTIONS, report.instructions());
        add(m::SIM_DATA_MISSES, report.data_misses());
        add(m::SIM_INSTR_MISSES, report.instr_misses());
        add(m::SIM_INVALIDATIONS, report.invalidations());
        add(m::SIM_UPDATES, report.updates());
        add(m::SIM_BROADCASTS, report.broadcasts());
        add(m::SIM_WRITE_BACKS, report.write_backs());
        add(m::SIM_FILLS, report.fills());
        add(m::SIM_BUS_TRANSACTIONS, report.bus_transactions());
        add(m::SIM_CLEAN_FLUSHES, report.clean_flushes());
        add(m::SIM_DIRTY_FLUSHES, report.dirty_flushes());
        add(m::SIM_READ_THROUGHS, report.read_throughs());
        add(m::SIM_WRITE_THROUGHS, report.write_throughs());
        add(m::SIM_CYCLE_STEALS, report.cycle_steals());
        add(m::SIM_CONTENTION_CYCLES, report.contention_cycles());
        let wall = start.elapsed().as_secs_f64();
        swcc_obs::observe(m::SIM_RUN_MS, wall * 1e3);
        if wall > 0.0 {
            swcc_obs::gauge_set(m::SIM_ACCESSES_PER_SECOND, accesses as f64 / wall);
        }
        if swcc_obs::trace_enabled() {
            swcc_obs::event(
                EV_SIM_EVENTS,
                &[
                    swcc_obs::Field::text("protocol", report.protocol().to_string()),
                    swcc_obs::Field::u64("accesses", accesses),
                    swcc_obs::Field::u64("invalidations", report.invalidations()),
                    swcc_obs::Field::u64("updates", report.updates()),
                    swcc_obs::Field::u64("broadcasts", report.broadcasts()),
                    swcc_obs::Field::u64("write_backs", report.write_backs()),
                    swcc_obs::Field::u64("fills", report.fills()),
                    swcc_obs::Field::u64("bus_transactions", report.bus_transactions()),
                    swcc_obs::Field::u64(
                        "flushes",
                        report.clean_flushes() + report.dirty_flushes(),
                    ),
                    swcc_obs::Field::u64("cycle_steals", report.cycle_steals()),
                ],
            );
        }
    }

    /// Produces the report for the work simulated so far.
    pub fn report(&self) -> SimReport {
        SimReport::new(
            self.config.protocol(),
            self.counters.clone(),
            self.bus_busy,
            self.time.iter().copied().max().unwrap_or(0),
        )
    }

    /// Processes one record on one processor.
    pub(crate) fn step(&mut self, cpu: usize, access: Access) {
        let block = access.addr.block(self.config.block_bits());
        self.pending_block = block;
        self.pending_cpu = cpu as u32;
        match access.kind {
            AccessKind::Fetch => self.fetch(cpu, block),
            AccessKind::Load | AccessKind::Store => {
                let write = access.kind.is_write();
                if write {
                    self.counters[cpu].data_writes += 1;
                } else {
                    self.counters[cpu].data_reads += 1;
                }
                match self.config.protocol() {
                    ProtocolKind::Base => base::data(self, cpu, write, block),
                    ProtocolKind::NoCache => no_cache::data(self, cpu, write, access.addr, block),
                    ProtocolKind::SoftwareFlush => software_flush::data(self, cpu, write, block),
                    ProtocolKind::Dragon => dragon::data(self, cpu, write, block),
                    ProtocolKind::WriteInvalidate => {
                        write_invalidate::data(self, cpu, write, block)
                    }
                }
            }
            AccessKind::Flush => {
                if self.config.protocol().uses_flushes() {
                    software_flush::flush(self, cpu, block);
                }
                // Other protocols never see flush records: their traces
                // are generated without them; stray ones are skipped.
            }
        }
    }

    /// Instruction fetch, common to all protocols: one execution cycle
    /// plus a memory miss if absent. (Code is per-processor in our
    /// traces, so fetch misses are always memory-sourced.)
    fn fetch(&mut self, cpu: usize, block: BlockAddr) {
        self.counters[cpu].instructions += 1;
        self.bus_op(cpu, Operation::Instruction);
        if self.caches[cpu].touch(block).is_none() {
            self.counters[cpu].instr_misses += 1;
            let dirty = self.fill(cpu, block, LineState::Clean);
            self.miss_op(cpu, dirty, false);
        }
    }

    /// Charges one hardware operation: CPU time always, interconnect
    /// time with FCFS arbitration (bus) or per-link path reservation
    /// (network) and contention accounting.
    pub(crate) fn bus_op(&mut self, cpu: usize, op: Operation) {
        let cost = self.op_cost(op);
        let hold = match self.config.service() {
            ServiceDiscipline::Fixed => u64::from(cost.interconnect()),
            ServiceDiscipline::Exponential if cost.interconnect() > 0 => {
                self.exponential_cycles(f64::from(cost.interconnect()))
            }
            ServiceDiscipline::Exponential => 0,
        };
        if hold > 0 {
            let request = self.time[cpu];
            let grant = self.reserve(request, hold);
            let wait = grant - request;
            self.bus_busy += hold;
            self.counters[cpu].bus_transactions += 1;
            self.counters[cpu].contention_cycles += wait;
            if swcc_obs::trace_enabled() {
                swcc_obs::event_sampled(
                    EV_SIM_BUS_OP,
                    &[
                        swcc_obs::Field::u64("cpu", cpu as u64),
                        swcc_obs::Field::text("op", op.to_string()),
                        swcc_obs::Field::u64("request", request),
                        swcc_obs::Field::u64("wait", wait),
                        swcc_obs::Field::u64("hold", hold),
                    ],
                );
            }
            // The processor holds the operation for its local cycles
            // plus however long the transfer actually took.
            self.time[cpu] = request + wait + u64::from(cost.local()) + hold;
        } else {
            self.time[cpu] += u64::from(cost.cpu());
        }
        self.counters[cpu].cycles = self.time[cpu];
    }

    /// The cost of `op` under the active interconnect's cost table.
    fn op_cost(&self, op: Operation) -> OpCost {
        match &self.fabric {
            Fabric::Bus { .. } => self
                .config
                .system()
                .cost(op)
                .expect("bus system model defines every operation"),
            Fabric::Network { system, .. } => system.cost(op).unwrap_or_else(|| {
                panic!(
                    "operation {op} is snoopy and undefined on a network                      (config validation should have rejected this protocol)"
                )
            }),
        }
    }

    /// Reserves the interconnect for `hold` cycles starting no earlier
    /// than `request`; returns the grant time.
    ///
    /// On the bus this is the single FCFS high-water mark. On the
    /// network the whole source→module path (destination-tag routing)
    /// is reserved at the earliest instant every link is free — a
    /// waiting circuit establishment, the FCFS analogue of the
    /// drop-and-retry fabric in [`crate::network`].
    fn reserve(&mut self, request: u64, hold: u64) -> u64 {
        match &mut self.fabric {
            Fabric::Bus { free } => {
                let grant = request.max(*free);
                *free = grant + hold;
                grant
            }
            Fabric::Network { system, links } => {
                let n = system.stages();
                let src = self.pending_cpu;
                // Memory is block-interleaved across the 2^n modules:
                // the access goes to module block mod 2^n.
                let dst = (self.pending_block.0 & ((1u64 << n) - 1)) as u32;
                let link_id = |i: u32| -> usize {
                    let low = n - i - 1;
                    let mask = (1u32 << low) - 1;
                    (((dst >> low) << low) | (src & mask)) as usize
                };
                let mut grant = request;
                for i in 0..n {
                    grant = grant.max(links[i as usize][link_id(i)]);
                }
                for i in 0..n {
                    links[i as usize][link_id(i)] = grant + hold;
                }
                grant
            }
        }
    }

    /// Samples an exponential service time with the given mean,
    /// stochastically rounded to whole cycles (minimum 1) so the
    /// long-run mean is preserved.
    fn exponential_cycles(&mut self, mean: f64) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let x = (-mean * u.ln()).max(f64::EPSILON);
        let floor = x.floor();
        let frac = x - floor;
        let rounded = floor as u64 + u64::from(self.rng.gen_bool(frac));
        rounded.max(1)
    }

    /// Charges the appropriate miss operation.
    pub(crate) fn miss_op(&mut self, cpu: usize, dirty_victim: bool, from_cache: bool) {
        use swcc_core::system::MissSource;
        let source = if from_cache {
            self.counters[cpu].cache_sourced_misses += 1;
            MissSource::Cache
        } else {
            MissSource::Memory
        };
        let op = if dirty_victim {
            Operation::DirtyMiss(source)
        } else {
            Operation::CleanMiss(source)
        };
        self.bus_op(cpu, op);
    }

    /// Inserts a block, returning whether the victim was dirty (and
    /// counting the write-back).
    pub(crate) fn fill(&mut self, cpu: usize, block: BlockAddr, state: LineState) -> bool {
        let ev = self.caches[cpu].insert(block, state);
        let dirty = ev.victim.is_some_and(|(_, s)| s.is_dirty());
        self.counters[cpu].fills += 1;
        if dirty {
            self.counters[cpu].dirty_replacements += 1;
        }
        if swcc_obs::trace_enabled() {
            swcc_obs::event_sampled(
                EV_SIM_CACHE_FILL,
                &[
                    swcc_obs::Field::u64("cpu", cpu as u64),
                    swcc_obs::Field::u64("block", block.0),
                    swcc_obs::Field::bool("dirty", state.is_dirty()),
                    swcc_obs::Field::bool("dirty_victim", dirty),
                ],
            );
        }
        dirty
    }

    /// Whether the software schemes treat `addr` as shared.
    pub(crate) fn is_shared_addr(&self, addr: Addr) -> bool {
        self.config.shared_policy().is_shared(addr)
    }
}

/// What one snoop of the other caches found for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Snoop {
    /// Other caches holding the block.
    pub(crate) holders: u64,
    /// The lowest-numbered other cache holding it dirty.
    pub(crate) owner: Option<usize>,
}

/// Peeks once into every cache but `cpu`'s for `block`.
pub(crate) fn snoop(caches: &[Cache], cpu: usize, block: BlockAddr) -> Snoop {
    let mut found = Snoop {
        holders: 0,
        owner: None,
    };
    for (o, cache) in caches.iter().enumerate() {
        if o == cpu {
            continue;
        }
        if let Some(state) = cache.peek(block) {
            found.holders += 1;
            if state.is_dirty() && found.owner.is_none() {
                found.owner = Some(o);
            }
        }
    }
    found
}

/// Each processor's substream of a trace, read in place.
///
/// Every record stores the distance to the next record of the same
/// processor, so a processor's cursor steps from record to record
/// without copying the trace. Two bytes per record keep the per-run
/// allocation small: faulting in fresh pages, more than the copy
/// itself, is what made per-processor copies of the trace expensive.
/// Distances saturate at `u16::MAX`; from a saturated one the cursor
/// scans forward for the processor's next record. A distance of zero
/// marks a processor's last record.
struct Streams<'a> {
    records: &'a [Access],
    gaps: Vec<u16>,
    /// Index of each processor's next record, or `records.len()` once
    /// it has none.
    cursors: Vec<usize>,
}

impl<'a> Streams<'a> {
    fn new(trace: &'a Trace, cpus: usize) -> Self {
        let records = trace.records();
        let mut gaps = vec![0u16; records.len()];
        let mut cursors = vec![records.len(); cpus];
        for (at, a) in records.iter().enumerate().rev() {
            let next = &mut cursors[a.cpu.index()];
            if *next < records.len() {
                gaps[at] = u16::try_from(*next - at).unwrap_or(u16::MAX);
            }
            *next = at;
        }
        Streams {
            records,
            gaps,
            cursors,
        }
    }

    fn has_next(&self, cpu: usize) -> bool {
        self.cursors[cpu] < self.records.len()
    }

    /// Takes `cpu`'s next record; `has_next(cpu)` must hold.
    fn next(&mut self, cpu: usize) -> Access {
        let at = self.cursors[cpu];
        let access = self.records[at];
        let gap = self.gaps[at];
        let mut next = if gap == 0 {
            self.records.len()
        } else {
            at + usize::from(gap)
        };
        if gap == u16::MAX {
            while self.records[next].cpu != access.cpu {
                next += 1;
            }
        }
        self.cursors[cpu] = next;
        access
    }
}

/// Runs a trace through a fresh machine — the one-call entry point.
///
/// # Examples
///
/// ```
/// use swcc_sim::{simulate, ProtocolKind, SimConfig};
/// use swcc_trace::synth::pops_like;
///
/// let trace = pops_like(4, 5_000, 1).generate();
/// let report = simulate(&trace, &SimConfig::new(ProtocolKind::Dragon));
/// assert!(report.power() > 1.0);
/// ```
pub fn simulate(trace: &Trace, config: &SimConfig) -> SimReport {
    Multiprocessor::new(config.clone(), trace.cpus().max(1)).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcc_trace::synth::Preset;
    use swcc_trace::CpuId;

    /// The scheduler [`Multiprocessor::run`] replaced, kept as its
    /// reference: per-processor copies of the trace and a linear scan
    /// that takes the first processor with a strictly smaller clock
    /// among those with records left.
    fn run_reference(m: &mut Multiprocessor, trace: &Trace) -> SimReport {
        let mut streams: Vec<Vec<Access>> = vec![Vec::new(); m.time.len()];
        for a in trace {
            streams[a.cpu.index()].push(*a);
        }
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut next: Option<usize> = None;
            for cpu in 0..streams.len() {
                if cursors[cpu] < streams[cpu].len()
                    && next.is_none_or(|best| m.time[cpu] < m.time[best])
                {
                    next = Some(cpu);
                }
            }
            let Some(cpu) = next else { break };
            let access = streams[cpu][cursors[cpu]];
            cursors[cpu] += 1;
            m.step(cpu, access);
        }
        m.report()
    }

    /// Runs `trace` through the engine and the reference on two fresh
    /// machines and requires the same report, caches and clocks.
    fn assert_reference_order(config: &SimConfig, cpus: u16, trace: &Trace) {
        let mut engine = Multiprocessor::new(config.clone(), cpus);
        let mut reference = Multiprocessor::new(config.clone(), cpus);
        let report = engine.run(trace);
        assert_eq!(report, run_reference(&mut reference, trace), "{config:?}");
        assert_eq!(engine.caches, reference.caches);
        assert_eq!(engine.time, reference.time);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// The branch-free pick and the in-place streams replay every
        /// record in the reference order, so every statistic matches:
        /// all five protocols, 1 to 16 processors, direct-mapped and
        /// 2-way caches small enough to evict, fixed and exponential
        /// service, and the 2-stage network fabric.
        #[test]
        fn run_replays_the_reference_order(
            cpus in 0usize..4,
            preset in 0usize..3,
            seed in 0u64..1_000_000,
            ways in 1usize..3,
            kib_log in 0u32..3,
            exponential in proptest::bool::ANY,
            flushes in proptest::bool::ANY,
        ) {
            let synth = |cpus: u16| {
                Preset::ALL[preset]
                    .config(cpus, 500, seed)
                    .to_builder()
                    .emit_flushes(flushes)
                    .build()
                    .generate()
            };
            let service = if exponential {
                ServiceDiscipline::Exponential
            } else {
                ServiceDiscipline::Fixed
            };
            let cpus = [1u16, 3, 8, 16][cpus];
            let trace = synth(cpus);
            for protocol in ProtocolKind::ALL {
                let mut b = SimConfig::builder(protocol);
                b.cache_bytes(1024 << kib_log).ways(ways).service(service).seed(seed);
                assert_reference_order(&b.build(), cpus, &trace);
            }
            let trace = synth(4);
            for protocol in [ProtocolKind::Base, ProtocolKind::NoCache, ProtocolKind::SoftwareFlush] {
                let mut b = SimConfig::builder(protocol);
                b.cache_bytes(1024 << kib_log).ways(ways).service(service).seed(seed).network(2);
                assert_reference_order(&b.build(), 4, &trace);
            }
        }
    }

    #[test]
    fn streams_resume_after_a_saturated_gap() {
        // cpu0's two records lie more than u16::MAX records apart, so
        // its cursor jumps the saturated distance and scans the rest.
        for gap in [usize::from(u16::MAX) - 1, usize::from(u16::MAX), 70_000] {
            let mut records = vec![acc(0, AccessKind::Fetch, 0x0)];
            records
                .extend((0..gap).map(|i| acc(1, AccessKind::Fetch, 0x40000 + 4 * (i as u64 % 64))));
            records.push(acc(0, AccessKind::Store, 0x4000_0000));
            records.push(acc(1, AccessKind::Load, 0x4000_0000));
            let trace = Trace::from_records(records);
            for protocol in [ProtocolKind::Dragon, ProtocolKind::WriteInvalidate] {
                assert_reference_order(&SimConfig::new(protocol), 2, &trace);
            }
            let mut streams = Streams::new(&trace, 2);
            assert_eq!(streams.next(0).addr, Addr(0x0));
            assert_eq!(streams.next(0).addr, Addr(0x4000_0000));
            assert!(!streams.has_next(0));
        }
    }

    fn acc(cpu: u16, kind: AccessKind, addr: u64) -> Access {
        Access::new(CpuId(cpu), kind, Addr(addr))
    }

    fn machine(protocol: ProtocolKind, cpus: u16) -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(protocol), cpus)
    }

    #[test]
    fn single_instruction_costs_one_cycle_plus_miss() {
        let mut m = machine(ProtocolKind::Base, 1);
        m.step(0, acc(0, AccessKind::Fetch, 0x0));
        // 1 (instruction) + 10 (clean miss from memory).
        assert_eq!(m.time[0], 11);
        assert_eq!(m.counters[0].instr_misses, 1);
        // Second fetch of the same block: hit, 1 cycle.
        m.step(0, acc(0, AccessKind::Fetch, 0x4));
        assert_eq!(m.time[0], 12);
    }

    #[test]
    fn bus_contention_is_accounted() {
        let mut m = machine(ProtocolKind::Base, 2);
        // Both cpus miss at time 0: the second waits for the first's
        // 7 bus cycles.
        m.step(0, acc(0, AccessKind::Fetch, 0x0));
        m.step(1, acc(1, AccessKind::Fetch, 0x40000)); // cpu1's code
        assert_eq!(m.counters[0].contention_cycles, 0);
        assert_eq!(m.counters[1].contention_cycles, 7);
        assert_eq!(m.bus_busy, 14);
    }

    #[test]
    fn dirty_replacement_charges_dirty_miss() {
        // Direct-mapped 8-block cache: blocks 0 and 8 conflict.
        let mut b = SimConfig::builder(ProtocolKind::Base);
        b.cache_bytes(8 * 16);
        let mut m = Multiprocessor::new(b.build(), 1);
        m.step(0, acc(0, AccessKind::Store, 0x0)); // miss, fill dirty
        let t_after_first = m.time[0];
        m.step(0, acc(0, AccessKind::Load, 0x80)); // conflict: dirty miss
        assert_eq!(m.counters[0].dirty_replacements, 1);
        // Dirty miss costs 14 cpu cycles.
        assert_eq!(m.time[0] - t_after_first, 14);
    }

    #[test]
    fn run_is_deterministic() {
        let trace = swcc_trace::synth::pops_like(4, 3_000, 5).generate();
        let cfg = SimConfig::new(ProtocolKind::Dragon);
        let a = simulate(&trace, &cfg);
        let b = simulate(&trace, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn report_counts_instructions() {
        let trace = swcc_trace::synth::pops_like(2, 2_000, 5).generate();
        let r = simulate(&trace, &SimConfig::new(ProtocolKind::Base));
        assert_eq!(r.instructions(), 4_000);
    }

    #[test]
    #[should_panic(expected = "machine has")]
    fn run_rejects_oversized_trace() {
        let trace = swcc_trace::synth::pops_like(4, 100, 5).generate();
        let mut m = machine(ProtocolKind::Base, 2);
        let _ = m.run(&trace);
    }

    #[test]
    fn utilization_without_misses_is_one() {
        // Repeatedly fetch the same block: after the first miss, pure
        // 1-cycle instructions.
        let mut m = machine(ProtocolKind::Base, 1);
        for _ in 0..1000 {
            m.step(0, acc(0, AccessKind::Fetch, 0x0));
        }
        let r = m.report();
        assert!(r.utilization(0) > 0.98);
    }

    #[test]
    fn flush_records_are_skipped_by_non_sf_protocols() {
        let mut m = machine(ProtocolKind::Base, 1);
        m.step(0, acc(0, AccessKind::Flush, 0x8000_0000));
        assert_eq!(m.time[0], 0);
        assert_eq!(m.counters[0].flush_records, 0);
    }

    fn network_machine(protocol: ProtocolKind, stages: u32) -> Multiprocessor {
        let mut b = SimConfig::builder(protocol);
        b.network(stages);
        Multiprocessor::new(b.build(), 1 << stages)
    }

    #[test]
    fn network_fabric_uses_table9_costs() {
        // 2 stages: a clean fetch costs 9 + 2n = 13 CPU cycles.
        let mut m = network_machine(ProtocolKind::Base, 2);
        m.step(0, acc(0, AccessKind::Fetch, 0x0));
        assert_eq!(m.time[0], 1 + 13);
    }

    #[test]
    fn network_fabric_allows_disjoint_paths_in_parallel() {
        // cpu0 -> module(block 0) and cpu3 -> module(block 3) share no
        // link in a 2-stage delta, so neither waits.
        let mut m = network_machine(ProtocolKind::Base, 2);
        m.step(0, acc(0, AccessKind::Load, 0x4000_0000)); // block = 0 mod 4
        m.step(3, acc(3, AccessKind::Load, 0x4000_0030)); // block = 3 mod 4
        assert_eq!(m.counters[0].contention_cycles, 0);
        assert_eq!(m.counters[3].contention_cycles, 0);
    }

    #[test]
    fn network_fabric_serializes_same_module_accesses() {
        // Two cpus fetching blocks that map to the same memory module
        // share at least the final-stage link.
        let mut m = network_machine(ProtocolKind::Base, 2);
        m.step(0, acc(0, AccessKind::Load, 0x4000_0000));
        m.step(1, acc(1, AccessKind::Load, 0x4000_0040)); // also module 0
        assert!(m.counters[1].contention_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "snoopy protocol")]
    fn snoopy_protocols_are_rejected_on_networks() {
        let mut b = SimConfig::builder(ProtocolKind::Dragon);
        b.network(2);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "connects exactly")]
    fn network_machine_requires_power_of_two_cpus() {
        let mut b = SimConfig::builder(ProtocolKind::Base);
        b.network(2);
        let _ = Multiprocessor::new(b.build(), 3);
    }

    #[test]
    fn trace_runs_end_to_end_on_the_network_fabric() {
        let trace = swcc_trace::synth::pops_like(4, 3_000, 9).generate();
        let mut b = SimConfig::builder(ProtocolKind::NoCache);
        b.network(2);
        let mut m = Multiprocessor::new(b.build(), 4);
        let r = m.run(&trace);
        assert_eq!(r.instructions(), 12_000);
        assert!(r.power() > 1.0 && r.power() <= 4.0);
    }
}
