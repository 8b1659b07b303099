//! Reproduction of the paper's model-driven figures (4–11).
//!
//! Figures 1–3 (model-vs-simulation validation) live in
//! [`crate::validation`]; everything here is pure analytical model and
//! runs in microseconds.

use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver};
use swcc_core::network::{analyze_network, network_power_curves};
use swcc_core::prelude::*;

use crate::artifact::{Figure, Series};

/// Maximum processor count on the bus figures (matches the paper's
/// plots, which run to 16).
pub const BUS_MAX_PROCESSORS: u32 = 16;

/// `(processors, power)` of `scheme` on `workload`, from one processor
/// sweep of the bus.
fn power_points(scheme: Scheme, workload: &WorkloadParams, max_processors: u32) -> Vec<(f64, f64)> {
    analyze_bus_sweep(scheme, workload, &BusSystemModel::new(), max_processors)
        .expect("every scheme is defined on a bus")
        .iter()
        .map(|p| (f64::from(p.processors()), p.power()))
        .collect()
}

fn bus_figure(title: &str, workload: &WorkloadParams) -> Figure {
    let mut fig = Figure::new(title, "processors", "processing power");
    let ideal: Vec<(f64, f64)> = (1..=BUS_MAX_PROCESSORS)
        .map(|n| (f64::from(n), f64::from(n)))
        .collect();
    fig.push_series(Series::new("ideal", ideal));
    for scheme in Scheme::ALL {
        fig.push_series(Series::new(
            scheme.to_string(),
            power_points(scheme, workload, BUS_MAX_PROCESSORS),
        ));
    }
    fig
}

/// Figure 4: processing power of the four schemes with **low** `shd`
/// and `ls`, all other parameters at middle values.
pub fn fig4() -> Figure {
    let w = low_sharing_workload();
    let mut f = bus_figure(
        "Figure 4: cache-coherence schemes with low shd and ls (bus)",
        &w,
    );
    f.notes
        .push("shd and ls at Table 7 low; all other parameters middle".into());
    f
}

/// Figure 5: the same with **middle** `shd` and `ls`.
pub fn fig5() -> Figure {
    let w = WorkloadParams::default();
    let mut f = bus_figure(
        "Figure 5: cache-coherence schemes with medium shd and ls (bus)",
        &w,
    );
    f.notes.push("all parameters at Table 7 middle".into());
    f
}

/// Figure 6: the same with **high** `shd` and `ls`.
pub fn fig6() -> Figure {
    let w = high_sharing_workload();
    let mut f = bus_figure(
        "Figure 6: cache-coherence schemes with high shd and ls (bus)",
        &w,
    );
    f.notes
        .push("shd and ls at Table 7 high; all other parameters middle".into());
    f
}

/// The workload with `shd`/`ls` low and everything else middle.
pub fn low_sharing_workload() -> WorkloadParams {
    WorkloadParams::default()
        .with_param(ParamId::Shd, 0.08)
        .and_then(|w| w.with_param(ParamId::Ls, 0.2))
        .expect("Table 7 values are in-domain")
}

/// The workload with `shd`/`ls` high and everything else middle.
pub fn high_sharing_workload() -> WorkloadParams {
    WorkloadParams::default()
        .with_param(ParamId::Shd, 0.42)
        .and_then(|w| w.with_param(ParamId::Ls, 0.4))
        .expect("Table 7 values are in-domain")
}

/// Figure 7: effect of varying `apl` on Software-Flush, with Dragon and
/// No-Cache as reference curves; other parameters at middle values.
pub fn fig7() -> Figure {
    let w = WorkloadParams::default();
    let mut fig = Figure::new(
        "Figure 7: effect of varying apl (bus, middle parameters)",
        "processors",
        "processing power",
    );
    // Six apl variants plus two reference schemes.
    for apl in [1.0, 2.0, 4.0, 8.0, 25.0, 100.0] {
        let workload = w.with_param(ParamId::Apl, apl).expect("apl >= 1");
        fig.push_series(Series::new(
            format!("Software-Flush apl={apl}"),
            power_points(Scheme::SoftwareFlush, &workload, BUS_MAX_PROCESSORS),
        ));
    }
    for scheme in [Scheme::Dragon, Scheme::NoCache] {
        fig.push_series(Series::new(
            scheme.to_string(),
            power_points(scheme, &w, BUS_MAX_PROCESSORS),
        ));
    }
    fig
}

fn apl_sweep_figure(title: &str, shd: f64) -> Figure {
    let system = BusSystemModel::new();
    let base = WorkloadParams::default()
        .with_param(ParamId::Shd, shd)
        .expect("shd is a probability");
    // The 50 apl operating points share one demand computation and one
    // batch MVA grid per processor count; each lane is bit-identical to
    // the pointwise analyze_bus call it replaces.
    let demands: Vec<Demand> = (1..=50u32)
        .map(|apl_i| {
            let w = base
                .with_param(ParamId::Apl, f64::from(apl_i))
                .expect("apl >= 1");
            scheme_demand(Scheme::SoftwareFlush, &w, &system).expect("software-flush runs on a bus")
        })
        .collect();
    let services: Vec<f64> = demands.iter().map(Demand::interconnect).collect();
    let thinks: Vec<f64> = demands.iter().map(Demand::think_time).collect();
    let mut fig = Figure::new(title, "apl", "processing power");
    for n in [4u32, 8, 16] {
        let grid = machine_repairman_grid(n, &services, &thinks).expect("valid queueing inputs");
        let points = demands
            .iter()
            .zip(&grid)
            .enumerate()
            .map(|(i, (demand, mva))| {
                let power = f64::from(n) / (demand.cpu() + mva.waiting());
                (f64::from(i as u32 + 1), power)
            })
            .collect();
        fig.push_series(Series::new(format!("{n} processors"), points));
    }
    fig
}

/// Figure 8: Software-Flush power versus `apl` with **low** sharing.
pub fn fig8() -> Figure {
    let mut f = apl_sweep_figure("Figure 8: effect of apl with low sharing (bus)", 0.08);
    f.notes
        .push("performance saturates quickly in apl when sharing is low".into());
    f
}

/// Figure 9: Software-Flush power versus `apl` with **medium** sharing.
pub fn fig9() -> Figure {
    let mut f = apl_sweep_figure("Figure 9: effect of apl with medium sharing (bus)", 0.25);
    f.notes
        .push("with medium sharing, power is sensitive to apl even at high apl".into());
    f
}

/// Figure 10: buses versus networks in the small scale (middle
/// parameters): bus curves for all four schemes, network curves for the
/// three schemes that work without a snoopy bus.
pub fn fig10() -> Figure {
    let w = WorkloadParams::default();
    let mut fig = Figure::new(
        "Figure 10: buses versus networks in the small scale (middle parameters)",
        "processors",
        "processing power",
    );
    for scheme in Scheme::ALL {
        fig.push_series(Series::new(
            format!("{scheme} (bus)"),
            power_points(scheme, &w, 64),
        ));
    }
    let net_schemes = [Scheme::Base, Scheme::SoftwareFlush, Scheme::NoCache];
    let net_curves =
        network_power_curves(&net_schemes, &w, 6).expect("software schemes run on networks");
    for (scheme, curve) in net_schemes.into_iter().zip(&net_curves) {
        fig.push_series(Series::new(
            format!("{scheme} (network)"),
            curve
                .iter()
                .map(|p| (f64::from(p.processors()), p.power()))
                .collect(),
        ));
    }
    fig.notes
        .push("network points at power-of-two processor counts (1..64)".into());
    fig
}

/// The message sizes (in words) of Figure 11's curves.
pub const FIG11_MESSAGE_WORDS: [u32; 5] = [1, 2, 4, 8, 16];

/// Figure 11: processor utilization versus request rate on a
/// 256-processor (8-stage) network, one curve per message size, with
/// the nine scheme/range operating points (B/S/N × l/m/h) marked.
pub fn fig11() -> Figure {
    let stages = 8;
    let round_trip = f64::from(2 * stages);
    let mut fig = Figure::new(
        "Figure 11: network utilization vs request rate (256 processors)",
        "request rate (transactions/cycle)",
        "processor utilization",
    );
    // All five curves (5 message sizes × 60 rates) solve as one
    // 300-lane lockstep batch.
    let mut rates = Vec::with_capacity(FIG11_MESSAGE_WORDS.len() * 60);
    let mut sizes = Vec::with_capacity(FIG11_MESSAGE_WORDS.len() * 60);
    for words in FIG11_MESSAGE_WORDS {
        let t = f64::from(words) + round_trip;
        for i in 1..=60u32 {
            rates.push(f64::from(i) / 60.0);
            sizes.push(t);
        }
    }
    let batch = BatchPatelSolver::new()
        .solve(&rates, &sizes, stages)
        .expect("valid rates and sizes");
    for (w, words) in FIG11_MESSAGE_WORDS.iter().enumerate() {
        let points = (0..60)
            .map(|i| {
                let lane = w * 60 + i;
                (rates[lane], batch.points()[lane].think_fraction())
            })
            .collect();
        fig.push_series(Series::new(format!("{words}-word messages"), points));
    }
    // The nine marked points.
    for scheme in [Scheme::Base, Scheme::SoftwareFlush, Scheme::NoCache] {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let perf =
                analyze_network(scheme, &w, stages).expect("software schemes run on networks");
            let op = perf.operating_point();
            let code = scheme.code().expect("network schemes have codes");
            fig.push_series(Series::new(
                format!("{code}{}", level.code()),
                vec![(op.rate(), op.think_fraction())],
            ));
        }
    }
    fig.notes.push(
        "curve y-values are the Patel think fraction U; scheme points use (m, t) = (1/(c-b), b) \
         from the Table 9 demand"
            .into(),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_figures_have_five_series() {
        for f in [fig4(), fig5(), fig6()] {
            assert_eq!(f.series.len(), 5); // ideal + 4 schemes
            for s in &f.series {
                assert_eq!(s.points.len(), BUS_MAX_PROCESSORS as usize);
            }
        }
    }

    #[test]
    fn fig4_low_sharing_keeps_schemes_close() {
        // §5.2: at low ls/shd there is "not much difference" between
        // Base, Dragon, and Software-Flush.
        let f = fig4();
        let base = f.series_named("Base").unwrap().final_y().unwrap();
        let sf = f.series_named("Software-Flush").unwrap().final_y().unwrap();
        assert!(sf > 0.75 * base, "sf {sf:.2} vs base {base:.2}");
    }

    #[test]
    fn fig6_no_cache_saturates_below_two() {
        let f = fig6();
        let nc = f.series_named("No-Cache").unwrap().final_y().unwrap();
        assert!(nc < 2.0, "no-cache power {nc}");
        let dragon = f.series_named("Dragon").unwrap().final_y().unwrap();
        assert!(dragon > 8.0, "dragon still performs well: {dragon}");
    }

    #[test]
    fn fig7_apl_one_is_worse_than_no_cache() {
        let f = fig7();
        let apl1 = f
            .series_named("Software-Flush apl=1")
            .unwrap()
            .final_y()
            .unwrap();
        let nc = f.series_named("No-Cache").unwrap().final_y().unwrap();
        assert!(
            apl1 < nc,
            "apl=1 ({apl1:.2}) must underperform No-Cache ({nc:.2})"
        );
    }

    #[test]
    fn fig7_high_apl_approaches_dragon() {
        let f = fig7();
        let apl100 = f
            .series_named("Software-Flush apl=100")
            .unwrap()
            .final_y()
            .unwrap();
        let dragon = f.series_named("Dragon").unwrap().final_y().unwrap();
        assert!(
            apl100 > 0.9 * dragon,
            "apl=100 {apl100:.2} vs dragon {dragon:.2}"
        );
    }

    #[test]
    fn fig8_low_sharing_saturates_quickly_in_apl() {
        let f = fig8();
        let s = f.series_named("16 processors").unwrap();
        let at = |apl: f64| s.points.iter().find(|p| p.0 == apl).unwrap().1;
        // By apl = 10 we are within 10% of the apl = 50 plateau.
        assert!(at(10.0) > 0.9 * at(50.0));
    }

    #[test]
    fn fig9_medium_sharing_stays_sensitive() {
        let f = fig9();
        let s = f.series_named("16 processors").unwrap();
        let at = |apl: f64| s.points.iter().find(|p| p.0 == apl).unwrap().1;
        // Still gaining noticeably between apl = 10 and 50.
        assert!(at(50.0) > 1.1 * at(10.0));
    }

    #[test]
    fn fig10_network_overtakes_bus_for_software_schemes() {
        let f = fig10();
        let bus = f
            .series_named("Software-Flush (bus)")
            .unwrap()
            .final_y()
            .unwrap();
        let net = f
            .series_named("Software-Flush (network)")
            .unwrap()
            .final_y()
            .unwrap();
        assert!(
            net > bus,
            "network {net:.2} must beat saturated bus {bus:.2} at 64 cpus"
        );
    }

    #[test]
    fn fig11_has_curves_and_nine_points() {
        let f = fig11();
        assert_eq!(f.series.len(), 5 + 9);
        for code in ["Bl", "Bm", "Bh", "Sl", "Sm", "Sh", "Nl", "Nm", "Nh"] {
            let s = f
                .series_named(code)
                .unwrap_or_else(|| panic!("missing {code}"));
            assert_eq!(s.points.len(), 1);
        }
    }

    #[test]
    fn fig11_base_low_beats_no_cache_high() {
        let f = fig11();
        let bl = f.series_named("Bl").unwrap().points[0].1;
        let nh = f.series_named("Nh").unwrap().points[0].1;
        assert!(bl > 2.0 * nh, "Bl {bl:.2} vs Nh {nh:.2}");
    }

    #[test]
    fn fig11_larger_messages_lower_utilization() {
        let f = fig11();
        let u_at = |name: &str| {
            let s = f.series_named(name).unwrap();
            s.points
                .iter()
                .find(|p| (p.0 - 0.05).abs() < 1e-9)
                .map(|p| p.1)
        };
        // At the same rate, bigger messages mean lower utilization.
        let u1 = u_at("1-word messages");
        let u16 = u_at("16-word messages");
        if let (Some(u1), Some(u16)) = (u1, u16) {
            assert!(u1 > u16);
        }
    }
}
