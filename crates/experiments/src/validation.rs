//! Model validation against trace-driven simulation (Figures 1–3).
//!
//! The paper's §3 compares model predictions to simulations of ATUM-2
//! traces for the Base and Dragon schemes at 16K/64K/256K cache sizes
//! and 1–8 processors. We reproduce the experiment with synthetic
//! POPS/THOR/PERO-like traces (see DESIGN.md §4): for each processor
//! count a trace is generated, the Table 2 parameters are *measured*
//! from it (trace statistics + Dragon-state cache replay), the model is
//! evaluated at those parameters, and both processing powers are
//! plotted.
//!
//! Expected shape (and what the tests assert): model and simulation
//! power stay within the per-figure ceilings of
//! `baselines/accuracy.json`. The paper attributes its model's
//! contention overestimate to the exponential bus service it assumes,
//! against the simulator's fixed Table 1 times; this repo's numbers do
//! not support that explanation. In `repro_output.txt` the
//! exponential-service simulation of `ext_service` lands farther from
//! the model than the fixed-service one at 2, 4 and 8 CPUs, and at 8
//! CPUs the model's contention is below both. Fig 1's note prints the
//! signed model-minus-simulation power gap of each of its points.
//!
//! Each figure hands its curve runs to the run record (see
//! [`crate::sim_report`]), which keeps one row per validation point and
//! derives the figure's accuracy from them.

use swcc_core::prelude::*;
use swcc_sim::measure::{measure_workload_with_counts, MeasurementCounts};
use swcc_sim::{simulate, ProtocolKind, SimConfig, SimReport};
use swcc_trace::synth::Preset;

use crate::artifact::{Artifact, Figure, Series};
use crate::registry::{Comparison, Output};

/// Options shared by the simulation-backed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOptions {
    /// Instructions per processor in each generated trace.
    pub instructions_per_cpu: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            instructions_per_cpu: 60_000,
            seed: 0xA7u64,
        }
    }
}

/// One model-vs-simulation curve of Figures 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Curve {
    /// Validation figure the curve belongs to (`"fig1"`, ...).
    pub figure: &'static str,
    /// Synthetic trace preset.
    pub preset: Preset,
    /// Coherence protocol simulated and modeled.
    pub protocol: ProtocolKind,
    /// Cache size in KiB.
    pub cache_kib: u64,
    /// Largest processor count; the curve runs `1..=max_cpus`.
    pub max_cpus: u16,
}

/// The validation matrix behind Figures 1–3, in figure order: Fig 1
/// (Base and Dragon, 64K, ≤4), Fig 2 (Dragon, 16/64/256K, ≤4), Fig 3
/// (Dragon on PERO, 16/64/256K, ≤8).
pub(crate) fn curves() -> Vec<Curve> {
    use Preset::{Pero, Pops};
    use ProtocolKind::{Base, Dragon};
    let curve = |figure, preset, protocol, cache_kib, max_cpus| Curve {
        figure,
        preset,
        protocol,
        cache_kib,
        max_cpus,
    };
    vec![
        curve("fig1", Pops, Base, 64, 4),
        curve("fig1", Pops, Dragon, 64, 4),
        curve("fig2", Pops, Dragon, 16, 4),
        curve("fig2", Pops, Dragon, 64, 4),
        curve("fig2", Pops, Dragon, 256, 4),
        curve("fig3", Pero, Dragon, 16, 8),
        curve("fig3", Pero, Dragon, 64, 8),
        curve("fig3", Pero, Dragon, 256, 8),
    ]
}

/// `|model − sim| / sim`, or 0 when the simulation made no progress:
/// the one accuracy formula of every model-vs-simulation comparison.
pub(crate) fn rel_error(model: f64, sim: f64) -> f64 {
    if sim > 0.0 {
        (model - sim).abs() / sim
    } else {
        0.0
    }
}

/// One processor count of a validation curve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CurvePoint {
    /// Processor count.
    pub n: u16,
    /// The trace-driven simulation of an `n`-processor trace.
    pub sim: SimReport,
    /// The bus model at the curve's measured workload and `n` processors.
    pub model: BusPerformance,
}

impl CurvePoint {
    /// [`rel_error`] on processing power — the paper's Fig 1 gap.
    pub(crate) fn power_rel_error(&self) -> f64 {
        rel_error(self.model.power(), self.sim.power())
    }
}

/// One validation curve, compared point by point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CurveRun {
    /// The curve that ran.
    pub curve: Curve,
    /// The workload measured from the curve's largest trace, which the
    /// model is fed at every processor count.
    pub workload: WorkloadParams,
    /// The raw counters behind `workload`.
    pub counts: MeasurementCounts,
    /// One point per processor count, `1..=max_cpus`.
    pub points: Vec<CurvePoint>,
}

/// Compares model and simulation along one curve: measures the workload
/// once, from the largest trace (the paper's parameters are "expected to
/// be nearly constant" in n; it also notes the resulting small
/// single-processor discrepancy), then simulates each processor count
/// and evaluates the bus model there.
pub(crate) fn run_curve(curve: &Curve, opts: &ValidationOptions) -> CurveRun {
    let mut config_b = SimConfig::builder(curve.protocol);
    config_b.cache_bytes(curve.cache_kib * 1024);
    let config = config_b.build();
    let trace = |n| {
        curve
            .preset
            .config(n, opts.instructions_per_cpu, opts.seed)
            .generate()
    };
    // The parameters come from the largest machine's trace, which also
    // drives the last simulated point.
    let full = trace(curve.max_cpus);
    let (workload, counts) = measure_workload_with_counts(&full, &config);
    let scheme = curve
        .protocol
        .scheme()
        .expect("validation runs the paper's protocols");
    let points = (1..=curve.max_cpus)
        .map(|n| CurvePoint {
            n,
            sim: if n == curve.max_cpus {
                simulate(&full, &config)
            } else {
                simulate(&trace(n), &config)
            },
            model: analyze_bus(scheme, &workload, config.system(), u32::from(n))
                .expect("bus analysis cannot fail for valid workloads"),
        })
        .collect();
    CurveRun {
        curve: *curve,
        workload,
        counts,
        points,
    }
}

/// A validation figure: each of its curves as a `"{label} sim"` and
/// `"{label} model"` processing-power series pair, and the curve runs
/// behind them.
fn figure(
    id: &str,
    title: &str,
    label: fn(&Curve) -> String,
    opts: &ValidationOptions,
) -> (Figure, Vec<CurveRun>) {
    let mut fig = Figure::new(title, "processors", "processing power");
    let runs: Vec<CurveRun> = curves()
        .iter()
        .filter(|c| c.figure == id)
        .map(|c| run_curve(c, opts))
        .collect();
    for run in &runs {
        let series = |kind: &str, power: fn(&CurvePoint) -> f64| {
            let points = run.points.iter().map(|p| (f64::from(p.n), power(p)));
            Series::new(format!("{} {kind}", label(&run.curve)), points.collect())
        };
        fig.push_series(series("sim", |p| p.sim.power()));
        fig.push_series(series("model", |p| p.model.power()));
    }
    (fig, runs)
}

fn output((fig, runs): (Figure, Vec<CurveRun>)) -> Output {
    Output {
        artifact: Artifact::Figure(fig),
        comparison: Comparison::Curves(runs),
    }
}

/// Figure 1: model vs simulation for Base and Dragon, 64 KiB caches,
/// 1–4 processors, on a POPS-like trace. Its note gives each point's
/// signed power gap, `(model − sim) / sim`.
pub fn fig1(opts: &ValidationOptions) -> Output {
    let label = |c: &Curve| format!("{} {}", c.preset, c.protocol);
    let (mut fig, runs) = figure(
        "fig1",
        "Figure 1: model versus simulation, 64KB caches (POPS-like trace)",
        label,
        opts,
    );
    let gaps: Vec<String> = runs
        .iter()
        .map(|run| {
            let signed = run.points.iter().map(|p| {
                let sim = p.sim.power();
                format!("{:+.1}%", (p.model.power() - sim) / sim * 100.0)
            });
            format!(
                "{} {}",
                label(&run.curve),
                signed.collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    fig.notes.push(format!(
        "model minus simulated power, relative to the simulation, at 1 to {} processors: {}",
        runs.iter().map(|r| r.curve.max_cpus).max().unwrap_or(0),
        gaps.join("; ")
    ));
    output((fig, runs))
}

/// Figure 2: impact of cache size (16K/64K/256K) on Dragon, model vs
/// simulation, 1–4 processors.
pub fn fig2(opts: &ValidationOptions) -> Output {
    output(figure(
        "fig2",
        "Figure 2: cache-size impact on Dragon, <=4 processors (POPS-like trace)",
        |c| format!("{}K", c.cache_kib),
        opts,
    ))
}

/// Figure 3: the same comparison carried to 8 processors (PERO-like
/// trace, as in the paper's 8-processor PERO run).
pub fn fig3(opts: &ValidationOptions) -> Output {
    output(figure(
        "fig3",
        "Figure 3: cache-size impact on Dragon, <=8 processors (PERO-like trace)",
        |c| format!("{}K", c.cache_kib),
        opts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ValidationOptions {
        ValidationOptions {
            instructions_per_cpu: 20_000,
            seed: 0xA7,
        }
    }

    /// The figure and its worst power error over every curve point.
    fn run(fig: fn(&ValidationOptions) -> Output) -> (Figure, f64) {
        let out = fig(&quick());
        let Comparison::Curves(runs) = &out.comparison else {
            panic!("a validation figure hands over its curve runs");
        };
        let worst = runs
            .iter()
            .flat_map(|r| &r.points)
            .map(CurvePoint::power_rel_error)
            .fold(0.0, f64::max);
        (out.artifact.as_figure().unwrap().clone(), worst)
    }

    #[test]
    fn fig1_model_tracks_simulation() {
        let (f, err) = run(fig1);
        assert_eq!(f.series.len(), 4);
        assert!(err < 0.25, "worst model-vs-sim error {err:.3}");
    }

    #[test]
    fn fig1_dragon_does_not_beat_base_in_simulation() {
        let (f, _) = run(fig1);
        let base = f.series_named("POPS Base sim").unwrap().final_y().unwrap();
        let dragon = f
            .series_named("POPS Dragon sim")
            .unwrap()
            .final_y()
            .unwrap();
        assert!(
            dragon <= base * 1.02,
            "dragon {dragon:.3} vs base {base:.3}"
        );
    }

    #[test]
    fn fig2_bigger_caches_do_better() {
        let (f, err) = run(fig2);
        let small = f.series_named("16K sim").unwrap().final_y().unwrap();
        let large = f.series_named("256K sim").unwrap().final_y().unwrap();
        assert!(large > small, "256K {large:.3} vs 16K {small:.3}");
        assert!(err < 0.3);
    }

    #[test]
    fn fig3_scales_to_eight_processors() {
        let (f, err) = run(fig3);
        let s = f.series_named("64K sim").unwrap();
        assert_eq!(s.points.len(), 8);
        assert!(s.final_y().unwrap() > s.points[0].1, "power grows with n");
        assert!(err < 0.35);
    }
}
