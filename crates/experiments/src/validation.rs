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
//! track each other closely, with the model *overestimating contention*
//! (hence slightly underestimating power) at higher processor counts,
//! because it assumes exponential bus service while the simulator uses
//! Table 1's fixed times.

use swcc_core::prelude::*;
use swcc_sim::measure::{measure_workload_with_counts, MeasurementCounts};
use swcc_sim::{simulate, ProtocolKind, SimConfig, SimReport};
use swcc_trace::synth::Preset;

use crate::artifact::{Figure, Series};

/// Model-vs-simulation comparison point, one per processor count of each
/// validation curve. Fields: `preset`, `protocol`, `cache_bytes`, `n`,
/// `sim_power`, `model_power`, `rel_error`. The `trace-report`
/// subcommand aggregates these into its accuracy delta table (the Fig 1
/// gap, paper §3).
pub const EV_VALIDATION_POINT: &str = "validation.point";

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
    /// `|model − sim| / sim` on processing power (0 when the simulation
    /// made no progress) — the paper's Fig 1 gap.
    pub(crate) fn power_rel_error(&self) -> f64 {
        let sim = self.sim.power();
        if sim > 0.0 {
            (self.model.power() - sim).abs() / sim
        } else {
            0.0
        }
    }
}

/// One validation curve, compared point by point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CurveRun {
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
    let (workload, counts) = measure_workload_with_counts(&trace(curve.max_cpus), &config);
    let scheme = curve
        .protocol
        .scheme()
        .expect("validation runs the paper's protocols");
    let points = (1..=curve.max_cpus)
        .map(|n| {
            let point = CurvePoint {
                n,
                sim: simulate(&trace(n), &config),
                model: analyze_bus(scheme, &workload, config.system(), u32::from(n))
                    .expect("bus analysis cannot fail for valid workloads"),
            };
            if swcc_obs::trace_enabled() {
                swcc_obs::event(
                    EV_VALIDATION_POINT,
                    &[
                        swcc_obs::Field::text("preset", curve.preset.to_string()),
                        swcc_obs::Field::text("protocol", curve.protocol.to_string()),
                        swcc_obs::Field::u64("cache_bytes", curve.cache_kib * 1024),
                        swcc_obs::Field::u64("n", u64::from(n)),
                        swcc_obs::Field::f64("sim_power", point.sim.power()),
                        swcc_obs::Field::f64("model_power", point.model.power()),
                        swcc_obs::Field::f64("rel_error", point.power_rel_error()),
                    ],
                );
            }
            point
        })
        .collect();
    CurveRun {
        workload,
        counts,
        points,
    }
}

/// A validation figure: each of its curves as a `"{label} sim"` and
/// `"{label} model"` processing-power series pair.
fn figure(id: &str, title: &str, label: fn(&Curve) -> String, opts: &ValidationOptions) -> Figure {
    let mut fig = Figure::new(title, "processors", "processing power");
    for curve in curves().iter().filter(|c| c.figure == id) {
        let run = run_curve(curve, opts);
        let series = |kind: &str, power: fn(&CurvePoint) -> f64| {
            let points = run.points.iter().map(|p| (f64::from(p.n), power(p)));
            Series::new(format!("{} {kind}", label(curve)), points.collect())
        };
        fig.push_series(series("sim", |p| p.sim.power()));
        fig.push_series(series("model", |p| p.model.power()));
    }
    fig
}

/// Figure 1: model vs simulation for Base and Dragon, 64 KiB caches,
/// 1–4 processors, on a POPS-like trace.
pub fn fig1(opts: &ValidationOptions) -> Figure {
    let mut fig = figure(
        "fig1",
        "Figure 1: model versus simulation, 64KB caches (POPS-like trace)",
        |c| format!("{} {}", c.preset, c.protocol),
        opts,
    );
    fig.notes.push(
        "the analytic bus model assumes exponential service and overestimates contention \
         relative to the fixed-service-time simulation (paper §3)"
            .into(),
    );
    fig
}

/// Figure 2: impact of cache size (16K/64K/256K) on Dragon, model vs
/// simulation, 1–4 processors.
pub fn fig2(opts: &ValidationOptions) -> Figure {
    figure(
        "fig2",
        "Figure 2: cache-size impact on Dragon, <=4 processors (POPS-like trace)",
        |c| format!("{}K", c.cache_kib),
        opts,
    )
}

/// Figure 3: the same comparison carried to 8 processors (PERO-like
/// trace, as in the paper's 8-processor PERO run).
pub fn fig3(opts: &ValidationOptions) -> Figure {
    figure(
        "fig3",
        "Figure 3: cache-size impact on Dragon, <=8 processors (PERO-like trace)",
        |c| format!("{}K", c.cache_kib),
        opts,
    )
}

/// Maximum relative error between the matching model and simulation
/// series of a validation figure. Used by the tests and recorded in
/// EXPERIMENTS.md.
pub fn max_relative_error(fig: &Figure) -> f64 {
    let mut worst: f64 = 0.0;
    for s in &fig.series {
        let Some(model_name) = s.name.strip_suffix(" sim").map(|b| format!("{b} model")) else {
            continue;
        };
        let model = fig
            .series_named(&model_name)
            .expect("every sim series has a model partner");
        for (&(_, sim_y), &(_, model_y)) in s.points.iter().zip(&model.points) {
            if sim_y > 0.0 {
                worst = worst.max((model_y - sim_y).abs() / sim_y);
            }
        }
    }
    worst
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

    #[test]
    fn fig1_model_tracks_simulation() {
        let f = fig1(&quick());
        assert_eq!(f.series.len(), 4);
        let err = max_relative_error(&f);
        assert!(err < 0.25, "worst model-vs-sim error {err:.3}");
    }

    #[test]
    fn fig1_dragon_does_not_beat_base_in_simulation() {
        let f = fig1(&quick());
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
        let f = fig2(&quick());
        let small = f.series_named("16K sim").unwrap().final_y().unwrap();
        let large = f.series_named("256K sim").unwrap().final_y().unwrap();
        assert!(large > small, "256K {large:.3} vs 16K {small:.3}");
        assert!(max_relative_error(&f) < 0.3);
    }

    #[test]
    fn fig3_scales_to_eight_processors() {
        let f = fig3(&quick());
        let s = f.series_named("64K sim").unwrap();
        assert_eq!(s.points.len(), 8);
        assert!(s.final_y().unwrap() > s.points[0].1, "power grows with n");
        assert!(max_relative_error(&f) < 0.35);
    }
}
