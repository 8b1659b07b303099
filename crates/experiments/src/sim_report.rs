//! The `repro sim-report` artifact: model-vs-sim divergence analytics.
//!
//! The validation figures (Figures 1–3) plot model and simulation
//! processing power side by side; this module reports the *residuals*
//! — per validation point, how far the analytical model sits from the
//! trace-driven simulation on power, miss rates, and bus utilization —
//! plus the per-protocol coherence-event breakdowns and the raw
//! [`MeasurementCounts`] the measurement pipeline computes (previously
//! exposed "for diagnostics" but dropped by every caller).
//!
//! The JSON document (schema [`SIM_REPORT_SCHEMA`]) is what CI gates
//! with `jq`; [`render`] produces the human table.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use swcc_sim::measure::MeasurementCounts;
use swcc_sim::SimReport;

use crate::validation::{curves, run_curve, ValidationOptions};

/// Schema identifier written into every sim-report document.
pub const SIM_REPORT_SCHEMA: &str = "swcc-sim-report/v1";

/// One validation point's model-vs-sim residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResidual {
    /// Validation figure this point belongs to (`"fig1"`, ...).
    pub figure: String,
    /// Trace preset (`"POPS"`, `"PERO"`).
    pub preset: String,
    /// Coherence protocol simulated.
    pub protocol: String,
    /// Cache size in KiB.
    pub cache_kib: u64,
    /// Processor count.
    pub n: u32,
    /// Simulated processing power.
    pub sim_power: f64,
    /// Model-predicted processing power.
    pub model_power: f64,
    /// `|model − sim| / sim` on power — the paper's Fig 1 gap.
    pub power_rel_error: f64,
    /// Data miss rate measured by the timed simulation.
    pub sim_msdat: f64,
    /// Data miss rate the model was fed (measured from the largest
    /// trace, the paper's nearly-constant-in-n assumption).
    pub model_msdat: f64,
    /// Instruction miss rate measured by the timed simulation.
    pub sim_mains: f64,
    /// Instruction miss rate the model was fed.
    pub model_mains: f64,
    /// Simulated bus utilization.
    pub sim_bus_utilization: f64,
    /// Model-predicted bus utilization.
    pub model_bus_utilization: f64,
}

/// Coherence-event totals summed over every simulation of one
/// protocol in the report's matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolEvents {
    /// Coherence protocol.
    pub protocol: String,
    /// Simulation runs summed over.
    pub runs: u64,
    /// Trace records replayed.
    pub accesses: u64,
    /// Cache misses (data + instruction).
    pub misses: u64,
    /// Copies dropped by snooped invalidations.
    pub invalidations: u64,
    /// Copies updated in place by snooped write-broadcasts.
    pub updates: u64,
    /// Write-broadcasts issued on the bus.
    pub broadcasts: u64,
    /// Dirty blocks written back to memory.
    pub write_backs: u64,
    /// Cache line fills.
    pub fills: u64,
    /// Interconnect transactions arbitrated.
    pub bus_transactions: u64,
    /// Software flushes (clean + dirty).
    pub flushes: u64,
    /// Processor cycles stolen by snooping controllers.
    pub cycle_steals: u64,
}

impl ProtocolEvents {
    fn new(protocol: String) -> ProtocolEvents {
        ProtocolEvents {
            protocol,
            runs: 0,
            accesses: 0,
            misses: 0,
            invalidations: 0,
            updates: 0,
            broadcasts: 0,
            write_backs: 0,
            fills: 0,
            bus_transactions: 0,
            flushes: 0,
            cycle_steals: 0,
        }
    }

    fn absorb(&mut self, report: &SimReport) {
        self.runs += 1;
        self.accesses += report.accesses();
        self.misses += report.data_misses() + report.instr_misses();
        self.invalidations += report.invalidations();
        self.updates += report.updates();
        self.broadcasts += report.broadcasts();
        self.write_backs += report.write_backs();
        self.fills += report.fills();
        self.bus_transactions += report.bus_transactions();
        self.flushes += report.clean_flushes() + report.dirty_flushes();
        self.cycle_steals += report.cycle_steals();
    }
}

/// The raw measurement counters behind one validation curve's workload
/// parameters — the [`MeasurementCounts`] diagnostics surfaced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CurveMeasurement {
    /// Validation figure the curve belongs to.
    pub figure: String,
    /// Trace preset.
    pub preset: String,
    /// Cache size in KiB.
    pub cache_kib: u64,
    /// Processors in the measured (largest) trace.
    pub cpus: u32,
    /// The raw counters of the measurement replay.
    pub counts: MeasurementCounts,
}

/// Whole-report totals: the lines CI gates with `jq`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReportTotals {
    /// Validation points compared.
    pub points: u64,
    /// Trace records replayed across every timed simulation.
    pub accesses: u64,
    /// Wall-clock milliseconds the whole report took.
    pub wall_ms: f64,
    /// Replay throughput: `accesses / wall` (nonzero on any real run).
    pub accesses_per_second: f64,
    /// Worst power residual across every point.
    pub max_power_rel_error: f64,
}

/// The whole `swcc-sim-report/v1` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReportDoc {
    /// Always [`SIM_REPORT_SCHEMA`].
    pub schema: String,
    /// Whether the `--quick` validation profile was used.
    pub quick: bool,
    /// Per-validation-point residuals, in matrix order.
    pub points: Vec<PointResidual>,
    /// Per-protocol coherence-event breakdowns, sorted by protocol.
    pub protocols: Vec<ProtocolEvents>,
    /// Raw measurement counters, one per validation curve.
    pub measurements: Vec<CurveMeasurement>,
    /// Whole-report totals.
    pub totals: SimReportTotals,
}

/// Runs the validation matrix behind Figures 1–3 and assembles the
/// report document.
pub fn generate(quick: bool, opts: &ValidationOptions) -> SimReportDoc {
    let start = Instant::now();
    let mut points = Vec::new();
    let mut protocols: Vec<ProtocolEvents> = Vec::new();
    let mut measurements = Vec::new();
    let mut accesses = 0u64;

    for curve in curves() {
        let run = run_curve(&curve, opts);
        measurements.push(CurveMeasurement {
            figure: curve.figure.to_string(),
            preset: curve.preset.to_string(),
            cache_kib: curve.cache_kib,
            cpus: u32::from(curve.max_cpus),
            counts: run.counts,
        });
        let protocol = curve.protocol.to_string();
        let events = match protocols.iter().position(|p| p.protocol == protocol) {
            Some(i) => i,
            None => {
                protocols.push(ProtocolEvents::new(protocol.clone()));
                protocols.len() - 1
            }
        };
        for point in &run.points {
            accesses += point.sim.accesses();
            protocols[events].absorb(&point.sim);
            points.push(PointResidual {
                figure: curve.figure.to_string(),
                preset: curve.preset.to_string(),
                protocol: protocol.clone(),
                cache_kib: curve.cache_kib,
                n: u32::from(point.n),
                sim_power: point.sim.power(),
                model_power: point.model.power(),
                power_rel_error: point.power_rel_error(),
                sim_msdat: point.sim.msdat(),
                model_msdat: run.workload.msdat(),
                sim_mains: point.sim.mains(),
                model_mains: run.workload.mains(),
                sim_bus_utilization: point.sim.bus_utilization(),
                model_bus_utilization: point.model.bus_utilization(),
            });
        }
    }

    protocols.sort_by(|a, b| a.protocol.cmp(&b.protocol));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let max_power_rel_error = points
        .iter()
        .map(|p| p.power_rel_error)
        .fold(0.0f64, f64::max);
    SimReportDoc {
        schema: SIM_REPORT_SCHEMA.to_string(),
        quick,
        totals: SimReportTotals {
            points: points.len() as u64,
            accesses,
            wall_ms,
            accesses_per_second: accesses as f64 / (wall_ms / 1e3).max(1e-12),
            max_power_rel_error,
        },
        points,
        protocols,
        measurements,
    }
}

/// Renders the human-readable tables of a sim-report document.
pub fn render(doc: &SimReportDoc) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sim report ({}, {} profile)",
        doc.schema,
        if doc.quick { "quick" } else { "full" }
    );
    out.push_str("\nmodel-vs-sim residuals per validation point:\n");
    let _ = writeln!(
        out,
        "  {:<5} {:<5} {:<16} {:>5} {:>2} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "fig",
        "trace",
        "protocol",
        "cache",
        "n",
        "sim pwr",
        "mdl pwr",
        "err%",
        "sim msd",
        "mdl msd",
        "sim bus",
        "mdl bus"
    );
    for p in &doc.points {
        let _ = writeln!(
            out,
            "  {:<5} {:<5} {:<16} {:>4}K {:>2} {:>8.3} {:>8.3} {:>6.2}% {:>8.4} {:>8.4} {:>8.3} {:>8.3}",
            p.figure,
            p.preset,
            p.protocol,
            p.cache_kib,
            p.n,
            p.sim_power,
            p.model_power,
            p.power_rel_error * 100.0,
            p.sim_msdat,
            p.model_msdat,
            p.sim_bus_utilization,
            p.model_bus_utilization,
        );
    }
    out.push_str("\ncoherence events per protocol:\n");
    let _ = writeln!(
        out,
        "  {:<16} {:>4} {:>10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10} {:>8}",
        "protocol",
        "runs",
        "accesses",
        "misses",
        "inval",
        "updates",
        "bcast",
        "wbacks",
        "fills",
        "bus txn",
        "steals"
    );
    for p in &doc.protocols {
        let _ = writeln!(
            out,
            "  {:<16} {:>4} {:>10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10} {:>8}",
            p.protocol,
            p.runs,
            p.accesses,
            p.misses,
            p.invalidations,
            p.updates,
            p.broadcasts,
            p.write_backs,
            p.fills,
            p.bus_transactions,
            p.cycle_steals,
        );
    }
    out.push_str("\nmeasurement counts per validation curve:\n");
    let _ = writeln!(
        out,
        "  {:<5} {:<5} {:>5} {:>4} {:>10} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "fig",
        "trace",
        "cache",
        "cpus",
        "data refs",
        "misses",
        "shared",
        "shd other",
        "bcast st",
        "dirty rp"
    );
    for m in &doc.measurements {
        let _ = writeln!(
            out,
            "  {:<5} {:<5} {:>4}K {:>4} {:>10} {:>9} {:>9} {:>10} {:>10} {:>9}",
            m.figure,
            m.preset,
            m.cache_kib,
            m.cpus,
            m.counts.data_refs,
            m.counts.data_misses + m.counts.instr_misses,
            m.counts.shared_refs,
            m.counts.shared_refs_other_present,
            m.counts.broadcast_stores,
            m.counts.dirty_replacements,
        );
    }
    let _ = writeln!(
        out,
        "\ntotals: {} points, {} accesses replayed in {:.1} ms ({:.2e} accesses/s), worst power residual {:.2}%",
        doc.totals.points,
        doc.totals.accesses,
        doc.totals.wall_ms,
        doc.totals.accesses_per_second,
        doc.totals.max_power_rel_error * 100.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcc_sim::measure::measure_workload_with_counts;
    use swcc_sim::{ProtocolKind, SimConfig};
    use swcc_trace::synth::pops_like;

    fn quick() -> ValidationOptions {
        ValidationOptions {
            instructions_per_cpu: 4_000,
            seed: 0xA7,
        }
    }

    #[test]
    fn report_covers_the_full_validation_matrix() {
        let doc = generate(true, &quick());
        assert_eq!(doc.schema, SIM_REPORT_SCHEMA);
        // fig1: 2 curves x 4, fig2: 3 x 4, fig3: 3 x 8.
        assert_eq!(doc.points.len(), 2 * 4 + 3 * 4 + 3 * 8);
        assert_eq!(doc.totals.points, doc.points.len() as u64);
        assert_eq!(doc.measurements.len(), 8);
        assert!(doc.totals.accesses > 0);
        assert!(doc.totals.accesses_per_second > 0.0);
        for p in &doc.points {
            assert!(p.sim_power > 0.0, "{p:?}");
            assert!(p.model_power > 0.0, "{p:?}");
        }
        assert!(doc.totals.max_power_rel_error > 0.0);
        assert!(
            doc.totals.max_power_rel_error < 0.5,
            "worst residual {:.3}",
            doc.totals.max_power_rel_error
        );
    }

    #[test]
    fn protocol_breakdowns_reflect_protocol_semantics() {
        let doc = generate(true, &quick());
        assert_eq!(doc.protocols.len(), 2, "Base and Dragon");
        let base = doc.protocols.iter().find(|p| p.protocol == "Base").unwrap();
        let dragon = doc
            .protocols
            .iter()
            .find(|p| p.protocol == "Dragon")
            .unwrap();
        assert_eq!(base.broadcasts, 0, "Base never broadcasts");
        assert_eq!(base.updates, 0);
        assert!(dragon.broadcasts > 0, "Dragon broadcasts on shared stores");
        assert!(dragon.updates > 0, "snoopers update in place");
        assert_eq!(dragon.invalidations, 0, "Dragon never invalidates");
        for p in &doc.protocols {
            assert!(p.fills >= p.misses, "{p:?}");
            assert!(p.bus_transactions > 0, "{p:?}");
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = generate(true, &quick());
        let json = serde_json::to_string(&doc).unwrap();
        let parsed: SimReportDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, doc);
        let rendered = render(&doc);
        assert!(rendered.contains("model-vs-sim residuals"));
        assert!(rendered.contains("coherence events per protocol"));
        assert!(rendered.contains("measurement counts"));
        assert!(rendered.contains("Dragon"));
    }

    /// Golden values for the measurement pipeline on a fixed synthetic
    /// trace: `measure_workload_with_counts` is deterministic, so any
    /// change here means the measured Table 2 parameters changed too.
    #[test]
    fn measurement_counts_are_golden_on_a_fixed_trace() {
        let trace = pops_like(2, 5_000, 11).generate();
        let config = SimConfig::new(ProtocolKind::Dragon);
        let (_, counts) = measure_workload_with_counts(&trace, &config);
        let again = measure_workload_with_counts(&trace, &config).1;
        assert_eq!(counts, again, "measurement is deterministic");
        insta_like_assert(&counts);
    }

    /// The pinned golden values (kept in one place so a legitimate
    /// change updates a single function).
    fn insta_like_assert(counts: &MeasurementCounts) {
        assert_eq!(counts.instructions, 10_000);
        assert_eq!(counts.data_refs, 2_980);
        assert_eq!(counts.data_misses, 288);
        assert_eq!(counts.instr_misses, 90);
        assert_eq!(counts.dirty_replacements, 28);
        assert_eq!(counts.shared_misses, 84);
        assert_eq!(counts.shared_misses_other_dirty, 24);
        assert_eq!(counts.shared_refs, 317);
        assert_eq!(counts.shared_refs_other_present, 175);
        assert_eq!(counts.broadcast_stores, 40);
        assert_eq!(counts.broadcast_holders, 40);
    }
}
