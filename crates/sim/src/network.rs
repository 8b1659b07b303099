//! A cycle-level simulator of the circuit-switched multistage network.
//!
//! The paper evaluates its network results purely analytically (Patel's
//! model, §6.2) and lists simulation-based validation of that
//! methodology as future work. This module provides it: an event-free,
//! cycle-by-cycle simulation of an unbuffered, circuit-switched
//! Omega/Delta network of 2×2 crossbars with source retry — the exact
//! machine the analysis assumes.
//!
//! ## Mechanics
//!
//! * `2^n` processors, `n` switch stages; the link leaving stage `i`
//!   for a (source, destination) pair is identified by destination-tag
//!   routing: the top `i+1` bits of the destination concatenated with
//!   the remaining low bits of the source.
//! * Each processor alternates compute phases and network transactions.
//!   The workload is sampled from the *same* per-instruction operation
//!   frequencies (Tables 3–5) and Table 9 costs the analytical model
//!   uses, so the two can be compared point for point.
//! * A transaction picks a uniformly random memory module, then
//!   attempts a full path each cycle; if any link on the path is held,
//!   the attempt is dropped and retried next cycle (randomized
//!   arbitration order between competing processors). On success all
//!   links are held for the transaction's full network time.
//!
//! The headline consumer is the `patel_vs_simulation` experiment, which
//! overlays the model's utilization on this simulator's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use swcc_core::demand::scheme_terms;
use swcc_core::scheme::Scheme;
use swcc_core::system::{NetworkSystemModel, Operation};
use swcc_core::workload::WorkloadParams;
use swcc_core::{ModelError, Result};

/// Configuration of a network simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSimConfig {
    /// Switch stages (`2^stages` processors).
    pub stages: u32,
    /// Instructions each processor executes.
    pub instructions_per_cpu: u64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl NetworkSimConfig {
    /// A configuration with the given stage count and a modest default
    /// instruction budget.
    pub fn new(stages: u32) -> Self {
        NetworkSimConfig {
            stages,
            instructions_per_cpu: 20_000,
            seed: 0x0e11,
        }
    }
}

/// Results of a network simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct NetworkSimReport {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Switch stages.
    pub stages: u32,
    /// Instructions executed across all processors.
    pub instructions: u64,
    /// Network transactions completed.
    pub transactions: u64,
    /// Path-setup attempts that were dropped and retried.
    pub retries: u64,
    /// Sum over processors of their completion times.
    pub cpu_cycles: u64,
    /// The longest processor's completion time.
    pub makespan: u64,
}

impl NetworkSimReport {
    /// Number of processors.
    pub fn processors(&self) -> u32 {
        1 << self.stages
    }

    /// Mean per-processor utilization in instructions per cycle —
    /// directly comparable to the analytical
    /// [`swcc_core::network::NetworkPerformance::utilization`].
    pub fn utilization(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Processing power `n · utilization`.
    pub fn power(&self) -> f64 {
        f64::from(self.processors()) * self.utilization()
    }

    /// Mean retries per completed transaction (network contention).
    pub fn retries_per_transaction(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.retries as f64 / self.transactions as f64
        }
    }
}

/// Records one completed network simulation into the swcc-obs registry
/// and opens-and-closes its trace span. Called after the report is
/// fully assembled, so observation can never perturb the simulated
/// state (the determinism tests assert bit-equality either way).
fn record_network_run(report: &NetworkSimReport, packet: bool) {
    use crate::metrics as m;
    let _span = if swcc_obs::trace_enabled() {
        swcc_obs::span(
            m::EV_SIM_NETWORK_RUN,
            &[
                swcc_obs::Field::text("scheme", report.scheme.to_string()),
                swcc_obs::Field::u64("stages", u64::from(report.stages)),
                swcc_obs::Field::bool("packet", packet),
            ],
        )
    } else {
        swcc_obs::span(m::EV_SIM_NETWORK_RUN, &[])
    };
    swcc_obs::counter_add(m::SIM_NETWORK_RUNS, 1);
    swcc_obs::counter_add(m::SIM_NETWORK_TRANSACTIONS, report.transactions);
    swcc_obs::counter_add(m::SIM_NETWORK_RETRIES, report.retries);
    swcc_obs::counter_add(m::SIM_NETWORK_INSTRUCTIONS, report.instructions);
}

/// What a processor is doing this cycle.
#[derive(Debug, Clone, Copy)]
enum CpuPhase {
    /// Executing local cycles; 0 means ready for the next instruction.
    Computing(u64),
    /// Waiting to win a path to `dst` for a `hold`-cycle transaction.
    Requesting { dst: u32, hold: u64 },
    /// Holding a path until the given cycle.
    Transferring(u64),
}

/// Simulates `scheme` under `workload` on a circuit-switched network.
///
/// The workload is sampled per instruction from the scheme's operation
/// frequencies (Tables 3–5); operation costs come from Table 9. Returns
/// per-run statistics comparable to the analytical model.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedScheme`] for Dragon and propagates
/// [`ModelError::UnsupportedOperation`] if the table has a term Table 9
/// does not define.
///
/// # Examples
///
/// ```
/// use swcc_core::network::analyze_network;
/// use swcc_core::scheme::Scheme;
/// use swcc_core::workload::WorkloadParams;
/// use swcc_sim::{simulate_network, NetworkSimConfig};
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let w = WorkloadParams::default();
/// let mut config = NetworkSimConfig::new(3); // 8 processors
/// config.instructions_per_cpu = 4_000;
/// let sim = simulate_network(Scheme::SoftwareFlush, &w, &config)?;
/// let model = analyze_network(Scheme::SoftwareFlush, &w, 3)?;
/// let err = (model.utilization() - sim.utilization()).abs() / sim.utilization();
/// assert!(err < 0.2, "Patel's model tracks the simulated fabric");
/// # Ok(())
/// # }
/// ```
pub fn simulate_network(
    scheme: Scheme,
    workload: &WorkloadParams,
    config: &NetworkSimConfig,
) -> Result<NetworkSimReport> {
    if scheme.requires_bus() {
        return Err(ModelError::UnsupportedScheme {
            scheme,
            interconnect: "multistage network",
        });
    }
    if config.instructions_per_cpu == 0 {
        return Err(ModelError::InvalidConfig {
            name: "instructions_per_cpu",
            reason: "must be positive",
        });
    }
    let system = NetworkSystemModel::new(config.stages);
    // Per-instruction sampling table: (probability, local cycles,
    // network cycles). The base cycle is charged unconditionally.
    let mut ops: Vec<(f64, u64, u64)> = Vec::new();
    scheme_terms(scheme, workload, &system, |op, freq, cost| {
        if op != Operation::Instruction {
            debug_assert!(freq <= 1.0, "per-instruction op probability");
            ops.push((
                freq,
                u64::from(cost.local()),
                u64::from(cost.interconnect()),
            ));
        }
    })?;

    let n = config.stages;
    let cpus = 1usize << n;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut phase = vec![CpuPhase::Computing(0); cpus];
    let mut queued: Vec<Vec<u64>> = vec![Vec::new(); cpus]; // pending transaction sizes
    let mut done_instr = vec![0u64; cpus];
    let mut finish = vec![0u64; cpus];
    // busy_until per stage per link.
    let mut links = vec![vec![0u64; cpus]; n as usize];
    let mut report = NetworkSimReport {
        scheme,
        stages: n,
        instructions: 0,
        transactions: 0,
        retries: 0,
        cpu_cycles: 0,
        makespan: 0,
    };

    let mut order: Vec<usize> = (0..cpus).collect();
    let mut now: u64 = 0;
    let mut remaining = cpus;
    while remaining > 0 {
        // Randomize arbitration order each cycle.
        order.shuffle(&mut rng);
        for &cpu in &order {
            if done_instr[cpu] >= config.instructions_per_cpu
                && matches!(phase[cpu], CpuPhase::Computing(0))
                && queued[cpu].is_empty()
            {
                continue;
            }
            match phase[cpu] {
                CpuPhase::Computing(0) => {
                    if let Some(hold) = queued[cpu].pop() {
                        // Start arbitration next cycle at the earliest.
                        let dst = rng.gen_range(0..cpus as u32);
                        phase[cpu] = CpuPhase::Requesting { dst, hold };
                        try_setup(
                            cpu,
                            dst,
                            hold,
                            now,
                            &mut links,
                            &mut phase[cpu],
                            &mut report,
                        );
                    } else if done_instr[cpu] < config.instructions_per_cpu {
                        // Issue the next instruction: 1 base cycle plus
                        // sampled op costs.
                        let mut local = 1u64;
                        for &(p, l, net) in &ops {
                            if rng.gen_bool(p.min(1.0)) {
                                local += l;
                                if net > 0 {
                                    queued[cpu].push(net);
                                }
                            }
                        }
                        done_instr[cpu] += 1;
                        report.instructions += 1;
                        phase[cpu] = CpuPhase::Computing(local - 1);
                        if done_instr[cpu] == config.instructions_per_cpu
                            && queued[cpu].is_empty()
                            && local == 1
                        {
                            finish[cpu] = now + 1;
                            remaining -= 1;
                        }
                    }
                }
                CpuPhase::Computing(ref mut c) => {
                    *c -= 1;
                    if *c == 0
                        && done_instr[cpu] >= config.instructions_per_cpu
                        && queued[cpu].is_empty()
                    {
                        finish[cpu] = now + 1;
                        remaining -= 1;
                    }
                }
                CpuPhase::Requesting { dst, hold } => {
                    report.retries += 1;
                    try_setup(
                        cpu,
                        dst,
                        hold,
                        now,
                        &mut links,
                        &mut phase[cpu],
                        &mut report,
                    );
                }
                CpuPhase::Transferring(until) => {
                    if now + 1 >= until {
                        phase[cpu] = CpuPhase::Computing(0);
                        if done_instr[cpu] >= config.instructions_per_cpu && queued[cpu].is_empty()
                        {
                            finish[cpu] = until;
                            remaining -= 1;
                        }
                    }
                }
            }
        }
        now += 1;
        // Defensive bound: a livelock would otherwise spin forever.
        if now
            > config
                .instructions_per_cpu
                .saturating_mul(1_000)
                .max(1_000_000)
        {
            return Err(ModelError::Convergence {
                solver: "network simulation (cycle bound exceeded)",
                residual: remaining as f64,
            });
        }
    }
    report.cpu_cycles = finish.iter().sum();
    report.makespan = finish.iter().copied().max().unwrap_or(0);
    record_network_run(&report, false);
    Ok(report)
}

/// The link leaving stage `stage` of a `stages`-stage network on the
/// path from processor `src` to memory module `dst`, by
/// destination-tag routing: the top `stage + 1` destination bits above
/// the remaining low source bits.
pub(crate) fn link_id(stages: u32, stage: u32, src: u32, dst: u32) -> usize {
    let low = stages - stage - 1;
    let mask = (1u32 << low) - 1;
    (((dst >> low) << low) | (src & mask)) as usize
}

/// Attempts to reserve the whole path; on success transitions the
/// processor to `Transferring`.
fn try_setup(
    cpu: usize,
    dst: u32,
    hold: u64,
    now: u64,
    links: &mut [Vec<u64>],
    phase: &mut CpuPhase,
    report: &mut NetworkSimReport,
) {
    let n = links.len() as u32;
    let link = |i: u32| link_id(n, i, cpu as u32, dst);
    for i in 0..n {
        if links[i as usize][link(i)] > now {
            return; // blocked: stay Requesting, retry next cycle
        }
    }
    let until = now + hold;
    for i in 0..n {
        links[i as usize][link(i)] = until;
    }
    report.transactions += 1;
    *phase = CpuPhase::Transferring(until);
}

/// Simulates `scheme` on the **buffered packet-switched** variant of
/// the network (virtual cut-through), the machine assumed by
/// [`swcc_core::network::packet`].
///
/// Each transaction's header pipelines one stage per cycle while the
/// payload streams behind it; every output link is an FCFS queue held
/// for the payload duration. The processor blocks for the transaction's
/// completion (the response path is symmetric and independently
/// provisioned, so one traversal is charged — matching the model).
///
/// This simulation is event-driven per transaction rather than
/// cycle-stepped, so it runs in O(records), not O(cycles).
///
/// # Errors
///
/// As for [`simulate_network`].
pub fn simulate_network_packet(
    scheme: Scheme,
    workload: &WorkloadParams,
    config: &NetworkSimConfig,
) -> Result<NetworkSimReport> {
    if scheme.requires_bus() {
        return Err(ModelError::UnsupportedScheme {
            scheme,
            interconnect: "packet-switched network",
        });
    }
    if config.instructions_per_cpu == 0 {
        return Err(ModelError::InvalidConfig {
            name: "instructions_per_cpu",
            reason: "must be positive",
        });
    }
    let system = NetworkSystemModel::new(config.stages);
    let round_trip = u64::from(system.round_trip());
    // (probability, local cycles, payload cycles) per op.
    let mut ops: Vec<(f64, u64, u64)> = Vec::new();
    scheme_terms(scheme, workload, &system, |op, freq, cost| {
        if op != Operation::Instruction {
            let payload = u64::from(cost.interconnect())
                .saturating_sub(round_trip)
                .max(u64::from(cost.interconnect() > 0));
            ops.push((freq, u64::from(cost.local()), payload));
        }
    })?;

    let n = config.stages;
    let cpus = 1usize << n;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut time = vec![0u64; cpus];
    let mut done = vec![0u64; cpus];
    let mut links = vec![vec![0u64; cpus]; n as usize];
    let mut report = NetworkSimReport {
        scheme,
        stages: n,
        instructions: 0,
        transactions: 0,
        retries: 0, // packet switching never drops; queueing is in time
        cpu_cycles: 0,
        makespan: 0,
    };

    loop {
        // Event-driven: always advance the least-advanced processor so
        // link queue reservations happen in global time order.
        let mut next: Option<usize> = None;
        for cpu in 0..cpus {
            if done[cpu] < config.instructions_per_cpu
                && next.is_none_or(|best| time[cpu] < time[best])
            {
                next = Some(cpu);
            }
        }
        let Some(cpu) = next else { break };
        // One instruction: base cycle + sampled local work, then any
        // sampled transactions, serially (the processor blocks).
        let mut local = 1u64;
        let mut payloads: Vec<u64> = Vec::new();
        for &(p, l, payload) in &ops {
            if rng.gen_bool(p.min(1.0)) {
                local += l;
                if payload > 0 {
                    payloads.push(payload);
                }
            }
        }
        time[cpu] += local;
        for payload in payloads {
            let dst = rng.gen_range(0..cpus as u32);
            let mut arrival = time[cpu]; // header at stage 0 input
            for i in 0..n {
                let lid = link_id(n, i, cpu as u32, dst);
                let start = arrival.max(links[i as usize][lid]);
                links[i as usize][lid] = start + payload;
                arrival = start + 1; // header forwards to the next stage
            }
            // Completion: last stage started at arrival - 1, streams the
            // payload.
            let completion = arrival - 1 + payload;
            time[cpu] = completion;
            report.transactions += 1;
        }
        done[cpu] += 1;
        report.instructions += 1;
    }
    report.cpu_cycles = time.iter().sum();
    report.makespan = time.iter().copied().max().unwrap_or(0);
    record_network_run(&report, true);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcc_core::network::analyze_network;
    use swcc_core::workload::{Level, ParamId};

    fn quick(stages: u32) -> NetworkSimConfig {
        NetworkSimConfig {
            stages,
            instructions_per_cpu: 4_000,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let w = WorkloadParams::default();
        let a = simulate_network(Scheme::SoftwareFlush, &w, &quick(3)).unwrap();
        let b = simulate_network(Scheme::SoftwareFlush, &w, &quick(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dragon_is_rejected() {
        let w = WorkloadParams::default();
        assert!(matches!(
            simulate_network(Scheme::Dragon, &w, &quick(3)),
            Err(ModelError::UnsupportedScheme { .. })
        ));
    }

    #[test]
    fn instruction_budget_is_met() {
        let w = WorkloadParams::default();
        let r = simulate_network(Scheme::Base, &w, &quick(3)).unwrap();
        assert_eq!(r.instructions, 8 * 4_000);
        assert!(r.makespan > 4_000);
    }

    #[test]
    fn utilization_is_bounded() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            for s in [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush] {
                let r = simulate_network(s, &w, &quick(3)).unwrap();
                let u = r.utilization();
                assert!(u > 0.0 && u <= 1.0, "{s}@{level}: {u}");
            }
        }
    }

    #[test]
    fn simulated_utilization_tracks_patel_model() {
        // The headline validation: model and simulation agree on
        // utilization within a modest tolerance at moderate load.
        let w = WorkloadParams::default();
        for s in [Scheme::Base, Scheme::SoftwareFlush] {
            let sim = simulate_network(s, &w, &quick(4)).unwrap();
            let model = analyze_network(s, &w, 4).unwrap();
            let err = (model.utilization() - sim.utilization()).abs() / sim.utilization();
            assert!(
                err < 0.20,
                "{s}: model {:.4} vs sim {:.4} ({:.1}%)",
                model.utilization(),
                sim.utilization(),
                err * 100.0
            );
        }
    }

    #[test]
    fn heavier_sharing_increases_retries() {
        let light = WorkloadParams::at_level(Level::Low);
        let heavy = WorkloadParams::at_level(Level::High);
        let r_light = simulate_network(Scheme::NoCache, &light, &quick(4)).unwrap();
        let r_heavy = simulate_network(Scheme::NoCache, &heavy, &quick(4)).unwrap();
        assert!(
            r_heavy.retries_per_transaction() > r_light.retries_per_transaction(),
            "heavy {} vs light {}",
            r_heavy.retries_per_transaction(),
            r_light.retries_per_transaction()
        );
    }

    #[test]
    fn zero_traffic_workload_runs_at_full_speed() {
        let mut b = WorkloadParams::builder();
        b.msdat(0.0).mains(0.0).shd(0.0);
        let w = b.build().unwrap();
        let r = simulate_network(Scheme::Base, &w, &quick(2)).unwrap();
        assert!(
            (r.utilization() - 1.0).abs() < 1e-3,
            "u = {}",
            r.utilization()
        );
        assert_eq!(r.transactions, 0);
    }

    #[test]
    fn packet_simulation_tracks_packet_model() {
        use swcc_core::network::analyze_network_packet;
        let w = WorkloadParams::default();
        for s in [Scheme::Base, Scheme::SoftwareFlush, Scheme::NoCache] {
            let sim = simulate_network_packet(s, &w, &quick(4)).unwrap();
            let model = analyze_network_packet(s, &w, 4).unwrap();
            let err = (model.utilization() - sim.utilization()).abs() / sim.utilization();
            assert!(
                err < 0.20,
                "{s}: model {:.4} vs sim {:.4} ({:.1}%)",
                model.utilization(),
                sim.utilization(),
                err * 100.0
            );
        }
    }

    #[test]
    fn packet_simulation_is_deterministic_and_budgeted() {
        let w = WorkloadParams::default();
        let a = simulate_network_packet(Scheme::NoCache, &w, &quick(3)).unwrap();
        let b = simulate_network_packet(Scheme::NoCache, &w, &quick(3)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.instructions, 8 * 4_000);
        assert_eq!(a.retries, 0, "packet switching never drops");
    }

    #[test]
    fn packet_switching_helps_no_cache_more_than_software_flush() {
        // The simulated counterpart of the ext_packet model finding.
        let w = WorkloadParams::default();
        let ratio =
            |f: fn(Scheme, &WorkloadParams, &NetworkSimConfig) -> Result<NetworkSimReport>| {
                let nc = f(Scheme::NoCache, &w, &quick(4)).unwrap().utilization();
                let sf = f(Scheme::SoftwareFlush, &w, &quick(4))
                    .unwrap()
                    .utilization();
                nc / sf
            };
        assert!(ratio(simulate_network_packet) > ratio(simulate_network));
    }

    #[test]
    fn packet_rejects_dragon_and_zero_budget() {
        let w = WorkloadParams::default();
        assert!(simulate_network_packet(Scheme::Dragon, &w, &quick(3)).is_err());
        let mut cfg = quick(3);
        cfg.instructions_per_cpu = 0;
        assert!(simulate_network_packet(Scheme::Base, &w, &cfg).is_err());
    }

    #[test]
    fn no_sharing_means_no_throughs_for_no_cache() {
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 0.0)
            .unwrap();
        let base = simulate_network(Scheme::Base, &w, &quick(3)).unwrap();
        let nc = simulate_network(Scheme::NoCache, &w, &quick(3)).unwrap();
        // Identical op distribution: utilizations must be very close.
        assert!((base.utilization() - nc.utilization()).abs() < 0.02);
    }
}
