//! The run record's model-vs-simulation section, and the
//! `repro sim-report` text that renders it.
//!
//! The fig1–fig3 experiments hand their curve runs to the run record
//! ([`crate::history`]), which keeps them as one [`Validation`]: a
//! [`PointResidual`] row per validation point — how far the analytical
//! model sits from the trace-driven simulation on power, miss rates and
//! bus utilization — plus per-protocol coherence-event sums and the raw
//! [`MeasurementCounts`] of each curve's workload measurement. A
//! figure's accuracy is the largest `power_rel_error` among its rows.
//! [`render`] prints a record's section as tables; nothing here runs a
//! simulation.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use swcc_sim::measure::MeasurementCounts;
use swcc_sim::SimReport;

use crate::history::RecordedRun;
use crate::validation::{curves, CurveRun};

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
/// protocol among the validation points.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
/// parameters.
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

/// The model-vs-simulation section of a run record: what the run's
/// fig1–fig3 experiments compared. Empty when the run ran none of them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Validation {
    /// Per-validation-point residuals, in matrix order.
    pub rows: Vec<PointResidual>,
    /// Per-protocol coherence-event sums, sorted by protocol.
    pub protocols: Vec<ProtocolEvents>,
    /// Raw measurement counters, one per validation curve.
    pub measurements: Vec<CurveMeasurement>,
}

impl Validation {
    /// The section of the given curve runs, kept in their order.
    pub(crate) fn from_runs<'a>(runs: impl IntoIterator<Item = &'a CurveRun>) -> Validation {
        let mut section = Validation::default();
        let mut protocols = BTreeMap::new();
        for run in runs {
            let curve = &run.curve;
            section.measurements.push(CurveMeasurement {
                figure: curve.figure.to_string(),
                preset: curve.preset.to_string(),
                cache_kib: curve.cache_kib,
                cpus: u32::from(curve.max_cpus),
                counts: run.counts,
            });
            let protocol = curve.protocol.to_string();
            let events = protocols
                .entry(protocol.clone())
                .or_insert_with(|| ProtocolEvents {
                    protocol: protocol.clone(),
                    ..ProtocolEvents::default()
                });
            for point in &run.points {
                events.absorb(&point.sim);
                section.rows.push(PointResidual {
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
        section.protocols = protocols.into_values().collect();
        section
    }

    /// Worst power residual among `figure`'s rows, or among every row
    /// with `None`; 0 without rows.
    pub(crate) fn max_power_rel_error(&self, figure: Option<&str>) -> f64 {
        self.rows
            .iter()
            .filter(|p| figure.is_none_or(|f| p.figure == f))
            .map(|p| p.power_rel_error)
            .fold(0.0, f64::max)
    }

    /// Trace records replayed across every simulated validation point.
    pub fn accesses(&self) -> u64 {
        self.protocols.iter().map(|p| p.accesses).sum()
    }

    /// What a complete section lacks for the validation figures that
    /// `ran` says ran; see `RecordedRun::validation_gaps`. Rows are
    /// compared by trace, protocol, cache and `n`, in matrix order.
    pub(crate) fn gaps(&self, ran: impl Fn(&str) -> bool) -> Vec<String> {
        let matrix = curves();
        let mut figures: Vec<&str> = matrix.iter().map(|c| c.figure).filter(|f| ran(f)).collect();
        figures.dedup();
        let mut gaps = Vec::new();
        for figure in &figures {
            let have: Vec<(String, String, u64, u32)> = self
                .rows
                .iter()
                .filter(|p| p.figure == *figure)
                .map(|p| (p.preset.clone(), p.protocol.clone(), p.cache_kib, p.n))
                .collect();
            let want: Vec<_> = matrix
                .iter()
                .filter(|c| c.figure == *figure)
                .flat_map(|c| {
                    (1..=u32::from(c.max_cpus))
                        .map(|n| (c.preset.to_string(), c.protocol.to_string(), c.cache_kib, n))
                })
                .collect();
            if have != want {
                gaps.push(format!(
                    "{figure}: {} validation rows do not match its {} matrix points",
                    have.len(),
                    want.len()
                ));
            }
        }
        if !figures.is_empty() && self.accesses() == 0 {
            gaps.push("the validation simulations replayed no accesses".to_string());
        }
        gaps
    }
}

/// Renders a record's model-vs-simulation section as the
/// `repro sim-report` tables. The totals' timing is the summed run time
/// of the figures that contributed rows.
pub fn render(record: &RecordedRun) -> String {
    use std::fmt::Write as _;
    let section = &record.validation;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sim report ({}, {} profile)",
        record.schema,
        if record.quick { "quick" } else { "full" }
    );
    out.push_str("\nmodel-vs-sim residuals per validation point:\n");
    out.push_str(
        "  fig   trace protocol         cache  n  sim pwr  mdl pwr    err%  sim msd  mdl msd  sim bus  mdl bus\n",
    );
    for p in &section.rows {
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
    out.push_str(
        "  protocol         runs   accesses    misses    inval  updates    bcast    wbacks     fills    bus txn   steals\n",
    );
    for p in &section.protocols {
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
    out.push_str(
        "  fig   trace cache cpus  data refs    misses    shared  shd other   bcast st  dirty rp\n",
    );
    for m in &section.measurements {
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
    let figures: BTreeSet<&str> = section.rows.iter().map(|p| p.figure.as_str()).collect();
    let wall_ms: f64 = figures
        .iter()
        .filter_map(|f| record.experiment(f))
        .map(|e| e.duration_ms)
        .sum();
    let accesses = section.accesses();
    let _ = writeln!(
        out,
        "\ntotals: {} points, {} accesses replayed in {:.1} ms ({:.2e} accesses/s), worst power residual {:.2}%",
        section.rows.len(),
        accesses,
        wall_ms,
        accesses as f64 / (wall_ms / 1e3).max(1e-12),
        section.max_power_rel_error(None) * 100.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;
    use std::sync::OnceLock;

    use super::*;
    use crate::registry::{find, RunOptions};
    use crate::runner::run_selected;
    use crate::validation::ValidationOptions;
    use swcc_obs::MetricsSnapshot;
    use swcc_sim::measure::measure_workload_with_counts;
    use swcc_sim::{ProtocolKind, SimConfig};
    use swcc_trace::synth::pops_like;

    /// The record of one short fig1–fig3 run, made once per test binary.
    fn record() -> &'static RecordedRun {
        static RECORD: OnceLock<RecordedRun> = OnceLock::new();
        RECORD.get_or_init(|| {
            let opts = RunOptions {
                validation: ValidationOptions {
                    instructions_per_cpu: 4_000,
                    seed: 0xA7,
                },
                ..RunOptions::quick()
            };
            let batch: Vec<_> = ["fig1", "fig2", "fig3"]
                .iter()
                .map(|id| find(id).unwrap())
                .collect();
            let runs = run_selected(&batch, &opts, NonZeroUsize::new(1).unwrap());
            RecordedRun::from_run(true, 1, &runs, 1.0, &MetricsSnapshot::default())
        })
    }

    #[test]
    fn report_covers_the_full_validation_matrix() {
        let section = &record().validation;
        // fig1: 2 curves x 4, fig2: 3 x 4, fig3: 3 x 8.
        assert_eq!(section.rows.len(), 2 * 4 + 3 * 4 + 3 * 8);
        assert_eq!(section.measurements.len(), 8);
        assert!(section.accesses() > 0);
        assert!(section.gaps(|_| true).is_empty());
        for p in &section.rows {
            assert!(p.sim_power > 0.0, "{p:?}");
            assert!(p.model_power > 0.0, "{p:?}");
        }
        let worst = section.max_power_rel_error(None);
        assert!(worst > 0.0);
        assert!(worst < 0.5, "worst residual {worst:.3}");
        // Each figure's accuracy is the worst of its own rows.
        for entry in &record().accuracy {
            assert_eq!(
                entry.max_rel_error.to_bits(),
                section.max_power_rel_error(Some(&entry.figure)).to_bits()
            );
        }
        // A row gone, or a figure's rows missing entirely, is a gap.
        let mut short = section.clone();
        short.rows.remove(9);
        assert_eq!(short.gaps(|_| true).len(), 1);
        assert!(short.gaps(|f| f == "fig1").is_empty());
        assert_eq!(Validation::default().gaps(|f| f == "fig3").len(), 2);
        assert!(Validation::default().gaps(|_| false).is_empty());
    }

    #[test]
    fn protocol_breakdowns_reflect_protocol_semantics() {
        let section = &record().validation;
        assert_eq!(section.protocols.len(), 2, "Base and Dragon");
        let base = section
            .protocols
            .iter()
            .find(|p| p.protocol == "Base")
            .unwrap();
        let dragon = section
            .protocols
            .iter()
            .find(|p| p.protocol == "Dragon")
            .unwrap();
        assert_eq!(base.runs, 4);
        assert_eq!(dragon.runs, 40);
        assert_eq!(base.broadcasts, 0, "Base never broadcasts");
        assert_eq!(base.updates, 0);
        assert!(dragon.broadcasts > 0, "Dragon broadcasts on shared stores");
        assert!(dragon.updates > 0, "snoopers update in place");
        assert_eq!(dragon.invalidations, 0, "Dragon never invalidates");
        for p in &section.protocols {
            assert!(p.fills >= p.misses, "{p:?}");
            assert!(p.bus_transactions > 0, "{p:?}");
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let record = record();
        let parsed = RecordedRun::from_jsonl(&record.to_jsonl()).unwrap();
        assert_eq!(&parsed, record);
        let rendered = render(record);
        assert!(rendered.starts_with("sim report (swcc-run/v2, quick profile)"));
        assert!(rendered.contains("model-vs-sim residuals"));
        assert!(rendered.contains("coherence events per protocol"));
        assert!(rendered.contains("measurement counts"));
        assert!(rendered.contains("Dragon"));
        assert!(rendered.contains("totals: 44 points"));
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
