//! Metric and trace-event names emitted by the simulator, and their
//! registration.
//!
//! The trace-driven simulator reports what it *did* — coherence events
//! per protocol, trace records replayed, wall-clock throughput —
//! through the `swcc-obs` dispatch functions. Nothing is recorded
//! unless a recorder is installed ([`swcc_obs::install`]) or a capture
//! span is active ([`swcc_obs::capture`]); observation never changes a
//! [`crate::SimReport`] (the per-CPU counters are part of the
//! simulation state and are updated identically either way — the
//! registry only receives their totals after the run).
//!
//! [`register`] adds every name to a [`RegistryBuilder`] so binaries
//! (e.g. `repro --metrics` or `repro sim-report`) can build a registry
//! covering the simulator:
//!
//! ```
//! let registry = swcc_sim::metrics::register(swcc_obs::RegistryBuilder::new()).build();
//! assert_eq!(registry.counter_value(swcc_sim::metrics::SIM_RUNS), Some(0));
//! ```

use swcc_obs::RegistryBuilder;

/// Trace replays completed ([`crate::simulate`] / `Multiprocessor::run`).
pub const SIM_RUNS: &str = "sim.runs";
/// Trace records replayed across all runs (fetches, loads, stores, and
/// flush records).
pub const SIM_ACCESSES: &str = "sim.accesses";
/// Instructions executed (fetch records).
pub const SIM_INSTRUCTIONS: &str = "sim.instructions";
/// Data misses (cached references only).
pub const SIM_DATA_MISSES: &str = "sim.data_misses";
/// Instruction-fetch misses.
pub const SIM_INSTR_MISSES: &str = "sim.instr_misses";
/// Copies dropped by snooped invalidation broadcasts (Write-Invalidate).
pub const SIM_INVALIDATIONS: &str = "sim.invalidations";
/// Copies updated in place by snooped write-broadcasts (Dragon).
pub const SIM_UPDATES: &str = "sim.updates";
/// Write-broadcasts issued on the bus (Dragon updates and
/// Write-Invalidate upgrade invalidations).
pub const SIM_BROADCASTS: &str = "sim.broadcasts";
/// Dirty blocks written back to memory (dirty replacements plus dirty
/// software flushes).
pub const SIM_WRITE_BACKS: &str = "sim.write_backs";
/// Cache line fills (block insertions on a miss).
pub const SIM_FILLS: &str = "sim.fills";
/// Interconnect transactions arbitrated (bus grants / network circuit
/// establishments).
pub const SIM_BUS_TRANSACTIONS: &str = "sim.bus_transactions";
/// Software flushes of clean or absent lines (Software-Flush).
pub const SIM_CLEAN_FLUSHES: &str = "sim.clean_flushes";
/// Software flushes that wrote a dirty line back (Software-Flush).
pub const SIM_DIRTY_FLUSHES: &str = "sim.dirty_flushes";
/// Uncached shared loads (No-Cache).
pub const SIM_READ_THROUGHS: &str = "sim.read_throughs";
/// Uncached shared stores (No-Cache).
pub const SIM_WRITE_THROUGHS: &str = "sim.write_throughs";
/// Processor cycles stolen by snooping cache controllers.
pub const SIM_CYCLE_STEALS: &str = "sim.cycle_steals";
/// Processor cycles spent waiting for the interconnect.
pub const SIM_CONTENTION_CYCLES: &str = "sim.contention_cycles";
/// Distribution of per-run wall-clock times, in milliseconds.
pub const SIM_RUN_MS: &str = "sim.run_ms";
/// Trace records replayed per wall-clock second by the most recent run.
pub const SIM_ACCESSES_PER_SECOND: &str = "sim.accesses_per_second";

/// Stochastic network-fabric simulations completed
/// ([`crate::simulate_network`] / [`crate::simulate_network_packet`]).
pub const SIM_NETWORK_RUNS: &str = "sim.network.runs";
/// Memory transactions completed across network-fabric simulations.
pub const SIM_NETWORK_TRANSACTIONS: &str = "sim.network.transactions";
/// Blocked-and-retried circuit attempts (circuit-switched fabric only).
pub const SIM_NETWORK_RETRIES: &str = "sim.network.retries";
/// Instructions executed across network-fabric simulations.
pub const SIM_NETWORK_INSTRUCTIONS: &str = "sim.network.instructions";

// --- Trace event names (see `swcc_obs::trace`) -------------------------
//
// Counters above answer "how much"; the span/point events below answer
// "in what order and with what intermediate values". Nothing is emitted
// unless a trace sink is installed ([`swcc_obs::install_sink`]).

/// Span around one whole trace replay (`Multiprocessor::run`).
/// Fields: `protocol`, `cpus`, `accesses`.
pub const EV_SIM_RUN: &str = "sim.run";
/// Sampled per-transaction interconnect arbitration event. Fields:
/// `cpu`, `op`, `request`, `wait`, `hold`.
pub const EV_SIM_BUS_OP: &str = "sim.bus_op";
/// Sampled cache fill (line transition) event. Fields: `cpu`, `block`,
/// `dirty` (the inserted state), `dirty_victim` (a write-back happened).
pub const EV_SIM_CACHE_FILL: &str = "sim.cache_fill";
/// Terminal per-run coherence-event summary, emitted when the replay
/// finishes. Fields: `protocol`, `accesses`, `invalidations`,
/// `updates`, `broadcasts`, `write_backs`, `fills`, `bus_transactions`,
/// `flushes`, `cycle_steals`.
pub const EV_SIM_EVENTS: &str = "sim.events";
/// Span around one stochastic network-fabric simulation. Fields:
/// `scheme`, `stages`, `packet` (event-driven packet fabric vs
/// cycle-stepped circuit fabric).
pub const EV_SIM_NETWORK_RUN: &str = "sim.network_run";

/// Registers every simulator metric on the builder.
#[must_use]
pub fn register(builder: RegistryBuilder) -> RegistryBuilder {
    const MS_BOUNDS: &[f64] = &[
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
        5000.0, 10000.0,
    ];
    builder
        .counter(SIM_RUNS)
        .counter(SIM_ACCESSES)
        .counter(SIM_INSTRUCTIONS)
        .counter(SIM_DATA_MISSES)
        .counter(SIM_INSTR_MISSES)
        .counter(SIM_INVALIDATIONS)
        .counter(SIM_UPDATES)
        .counter(SIM_BROADCASTS)
        .counter(SIM_WRITE_BACKS)
        .counter(SIM_FILLS)
        .counter(SIM_BUS_TRANSACTIONS)
        .counter(SIM_CLEAN_FLUSHES)
        .counter(SIM_DIRTY_FLUSHES)
        .counter(SIM_READ_THROUGHS)
        .counter(SIM_WRITE_THROUGHS)
        .counter(SIM_CYCLE_STEALS)
        .counter(SIM_CONTENTION_CYCLES)
        .histogram(SIM_RUN_MS, MS_BOUNDS)
        .gauge(SIM_ACCESSES_PER_SECOND)
        .counter(SIM_NETWORK_RUNS)
        .counter(SIM_NETWORK_TRANSACTIONS)
        .counter(SIM_NETWORK_RETRIES)
        .counter(SIM_NETWORK_INSTRUCTIONS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::simulate;
    use crate::protocol::ProtocolKind;
    use swcc_trace::synth::pops_like;

    #[test]
    fn registry_covers_every_name() {
        let registry = register(RegistryBuilder::new()).build();
        for name in [
            SIM_RUNS,
            SIM_ACCESSES,
            SIM_INSTRUCTIONS,
            SIM_DATA_MISSES,
            SIM_INSTR_MISSES,
            SIM_INVALIDATIONS,
            SIM_UPDATES,
            SIM_BROADCASTS,
            SIM_WRITE_BACKS,
            SIM_FILLS,
            SIM_BUS_TRANSACTIONS,
            SIM_CLEAN_FLUSHES,
            SIM_DIRTY_FLUSHES,
            SIM_READ_THROUGHS,
            SIM_WRITE_THROUGHS,
            SIM_CYCLE_STEALS,
            SIM_CONTENTION_CYCLES,
            SIM_NETWORK_RUNS,
            SIM_NETWORK_TRANSACTIONS,
            SIM_NETWORK_RETRIES,
            SIM_NETWORK_INSTRUCTIONS,
        ] {
            assert_eq!(registry.counter_value(name), Some(0), "{name}");
        }
        assert!(registry.histogram(SIM_RUN_MS).is_some());
        assert_eq!(registry.gauge_value(SIM_ACCESSES_PER_SECOND), Some(0.0));
    }

    #[test]
    fn bus_run_attributes_event_counters() {
        let trace = pops_like(4, 4_000, 7).generate();
        let (report, span) =
            swcc_obs::capture(|| simulate(&trace, &SimConfig::new(ProtocolKind::Dragon)));
        assert_eq!(span.counter(SIM_RUNS), Some(1));
        assert_eq!(span.counter(SIM_ACCESSES), Some(trace.len() as u64));
        assert_eq!(span.counter(SIM_INSTRUCTIONS), Some(report.instructions()));
        assert_eq!(span.counter(SIM_DATA_MISSES), Some(report.data_misses()));
        assert_eq!(span.counter(SIM_FILLS), Some(report.fills()));
        assert_eq!(span.counter(SIM_BROADCASTS), Some(report.broadcasts()));
        assert_eq!(span.counter(SIM_UPDATES), Some(report.updates()));
        assert_eq!(
            span.counter(SIM_BUS_TRANSACTIONS),
            Some(report.bus_transactions())
        );
        // Dragon updates; it never invalidates.
        assert_eq!(span.counter(SIM_INVALIDATIONS), None);
        let ms = span.histogram(SIM_RUN_MS).expect("run time observed");
        assert_eq!(ms.count, 1);
    }

    #[test]
    fn write_invalidate_run_attributes_invalidations() {
        let trace = pops_like(4, 4_000, 7).generate();
        let (report, span) =
            swcc_obs::capture(|| simulate(&trace, &SimConfig::new(ProtocolKind::WriteInvalidate)));
        assert!(report.invalidations() > 0, "sharing workload invalidates");
        assert_eq!(
            span.counter(SIM_INVALIDATIONS),
            Some(report.invalidations())
        );
        assert_eq!(span.counter(SIM_UPDATES), None, "no snooped updates");
    }

    #[test]
    fn network_runs_attribute_transactions() {
        use crate::network::{simulate_network, NetworkSimConfig};
        use swcc_core::scheme::Scheme;
        use swcc_core::workload::WorkloadParams;
        let workload = WorkloadParams::default();
        let mut config = NetworkSimConfig::new(2);
        config.instructions_per_cpu = 2_000;
        let (report, span) = swcc_obs::capture(|| {
            simulate_network(Scheme::Base, &workload, &config).expect("converges")
        });
        assert_eq!(span.counter(SIM_NETWORK_RUNS), Some(1));
        assert_eq!(
            span.counter(SIM_NETWORK_TRANSACTIONS),
            Some(report.transactions)
        );
        assert_eq!(
            span.counter(SIM_NETWORK_INSTRUCTIONS),
            Some(report.instructions)
        );
    }
}
