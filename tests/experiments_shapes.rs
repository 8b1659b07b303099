//! Shape checks on the reproduced artifacts: every experiment in the
//! registry runs, and the figures exhibit the qualitative results the
//! paper reports (who wins, where saturation happens, where crossovers
//! fall).

use swcc_experiments::registry::{find, RunOptions, EXPERIMENTS};
use swcc_experiments::{figures, Artifact};

fn run(id: &str) -> Artifact {
    let opts = RunOptions::quick();
    (find(id).unwrap_or_else(|| panic!("{id} registered")).run)(&opts).artifact
}

#[test]
fn every_registered_experiment_produces_a_nonempty_artifact() {
    let opts = RunOptions::quick();
    for e in EXPERIMENTS {
        let artifact = (e.run)(&opts).artifact;
        let rendered = artifact.render();
        assert!(!rendered.trim().is_empty(), "{} rendered empty", e.id);
        assert!(rendered.len() > 40, "{} suspiciously small", e.id);
    }
}

#[test]
fn tables_have_expected_dimensions() {
    assert_eq!(run("table1").as_table().unwrap().rows.len(), 11);
    assert_eq!(run("table2").as_table().unwrap().rows.len(), 11);
    assert_eq!(run("table7").as_table().unwrap().rows.len(), 11);
    assert_eq!(run("table8").as_table().unwrap().rows.len(), 11);
    assert_eq!(run("table9").as_table().unwrap().rows.len(), 7);
}

#[test]
fn figure_4_to_6_power_ordering_degrades_with_sharing() {
    // As shd/ls rise from fig4 to fig6, every non-Base scheme loses
    // power; Base loses little.
    let power = |id: &str, name: &str| {
        run(id)
            .as_figure()
            .unwrap()
            .series_named(name)
            .unwrap_or_else(|| panic!("{id} has series {name}"))
            .final_y()
            .unwrap()
    };
    for scheme in ["No-Cache", "Software-Flush", "Dragon"] {
        let low = power("fig4", scheme);
        let high = power("fig6", scheme);
        assert!(
            high < low,
            "{scheme}: fig6 ({high:.2}) must be below fig4 ({low:.2})"
        );
    }
    // No-Cache falls off a cliff; Dragon barely moves.
    let nc_drop = power("fig4", "No-Cache") / power("fig6", "No-Cache");
    let dragon_drop = power("fig4", "Dragon") / power("fig6", "Dragon");
    assert!(nc_drop > 3.0, "no-cache drop factor {nc_drop:.1}");
    assert!(dragon_drop < 2.0, "dragon drop factor {dragon_drop:.1}");
}

#[test]
fn figure5_matches_paper_saturation_claims() {
    // §5.2 (middle values): Dragon performs very well even with 16
    // processors; Software-Flush does well to 8-10 and then flattens.
    let fig = run("fig5");
    let f = fig.as_figure().unwrap();
    let dragon = f.series_named("Dragon").unwrap();
    let ideal16 = 16.0;
    assert!(dragon.final_y().unwrap() > 0.75 * ideal16);
    // "Software-Flush does well with up to 8-10 processors; from then
    // on, adding processors only slightly increases processing power."
    let sf = f.series_named("Software-Flush").unwrap();
    let sf10 = sf.points[9].1;
    let sf16 = sf.points[15].1;
    assert!(
        sf16 - sf10 < 0.25 * sf10,
        "SF must flatten past 10 cpus: {sf10:.2} -> {sf16:.2}"
    );
}

#[test]
fn figure7_apl_orders_the_curves() {
    let fig = run("fig7");
    let f = fig.as_figure().unwrap();
    let final_power = |apl: u32| {
        f.series_named(&format!("Software-Flush apl={apl}"))
            .unwrap()
            .final_y()
            .unwrap()
    };
    let mut last = 0.0;
    for apl in [1u32, 2, 4, 8, 25, 100] {
        let p = final_power(apl);
        assert!(p > last, "power must increase with apl (apl={apl})");
        last = p;
    }
}

#[test]
fn figure10_shows_crossover_from_bus_to_network() {
    let fig = run("fig10");
    let f = fig.as_figure().unwrap();
    let bus = f.series_named("No-Cache (bus)").unwrap();
    let net = f.series_named("No-Cache (network)").unwrap();
    // Small scale: bus is competitive; large scale: network wins.
    let bus_at = |n: f64| bus.points.iter().find(|p| p.0 == n).unwrap().1;
    let net_at = |n: f64| net.points.iter().find(|p| p.0 == n).unwrap().1;
    assert!(net_at(64.0) > bus_at(64.0), "network must win at 64 cpus");
}

#[test]
fn figure11_separates_the_two_performance_classes() {
    // §6.3: {B*, Sl, Sm, Nl} form the reasonable class; the rest are
    // much poorer.
    let fig = run("fig11");
    let f = fig.as_figure().unwrap();
    let u = |code: &str| f.series_named(code).unwrap().points[0].1;
    let reasonable = ["Bl", "Bm", "Bh", "Sl", "Sm", "Nl"];
    let poor = ["Sh", "Nm", "Nh"];
    let min_reasonable = reasonable
        .iter()
        .map(|c| u(c))
        .fold(f64::INFINITY, f64::min);
    let max_poor = poor.iter().map(|c| u(c)).fold(0.0, f64::max);
    assert!(
        min_reasonable > max_poor,
        "classes must separate: min reasonable {min_reasonable:.3} vs max poor {max_poor:.3}"
    );
}

#[test]
fn validation_figures_carry_model_and_sim_pairs() {
    for id in ["fig1", "fig2", "fig3"] {
        let fig = run(id);
        let f = fig.as_figure().unwrap();
        let sims = f.series.iter().filter(|s| s.name.ends_with(" sim")).count();
        let models = f
            .series
            .iter()
            .filter(|s| s.name.ends_with(" model"))
            .count();
        assert_eq!(sims, models, "{id}");
        assert!(sims >= 2, "{id} has {sims} sim series");
    }
}

#[test]
fn low_and_high_sharing_workload_helpers_are_consistent() {
    let low = figures::low_sharing_workload();
    let high = figures::high_sharing_workload();
    assert!(low.shd() < high.shd());
    assert!(low.ls() < high.ls());
    // Other parameters stay at middle.
    assert_eq!(low.msdat(), high.msdat());
    assert_eq!(low.apl(), high.apl());
}
