//! Cross-module integration tests of the analytical model: the paper's
//! qualitative claims, checked end-to-end through the public API.

use swcc_core::network::{analyze_network, network_power_curve};
use swcc_core::prelude::*;
use swcc_core::sensitivity::sensitivity_table;

fn system() -> BusSystemModel {
    BusSystemModel::new()
}

#[test]
fn base_dominates_every_scheme_at_every_level_and_size() {
    // §5.1: "Base performs best as long as shd > 0."
    for level in Level::ALL {
        let w = WorkloadParams::at_level(level);
        for n in [1u32, 2, 4, 8, 16] {
            let base = analyze_bus(Scheme::Base, &w, &system(), n).unwrap().power();
            for s in [Scheme::NoCache, Scheme::SoftwareFlush, Scheme::Dragon] {
                let p = analyze_bus(s, &w, &system(), n).unwrap().power();
                assert!(p <= base + 1e-9, "{s} at {level}/{n}: {p} > base {base}");
            }
        }
    }
}

#[test]
fn dragon_beats_both_software_schemes_under_stress() {
    for level in [Level::Middle, Level::High] {
        let w = WorkloadParams::at_level(level);
        for n in [4u32, 8, 16] {
            let dragon = analyze_bus(Scheme::Dragon, &w, &system(), n)
                .unwrap()
                .power();
            let sf = analyze_bus(Scheme::SoftwareFlush, &w, &system(), n)
                .unwrap()
                .power();
            let nc = analyze_bus(Scheme::NoCache, &w, &system(), n)
                .unwrap()
                .power();
            assert!(dragon >= sf && dragon >= nc, "at {level}/{n}");
        }
    }
}

#[test]
fn software_flush_brackets_between_dragon_and_no_cache_at_middle_apl() {
    // §5.1: "Software-Flush's performance is usually between Dragon and
    // No-Cache" — at middle apl.
    let w = WorkloadParams::default();
    for n in [4u32, 8, 16] {
        let dragon = analyze_bus(Scheme::Dragon, &w, &system(), n)
            .unwrap()
            .power();
        let sf = analyze_bus(Scheme::SoftwareFlush, &w, &system(), n)
            .unwrap()
            .power();
        let nc = analyze_bus(Scheme::NoCache, &w, &system(), n)
            .unwrap()
            .power();
        assert!(nc <= sf && sf <= dragon, "n={n}: {nc} <= {sf} <= {dragon}");
    }
}

#[test]
fn software_flush_can_beat_dragon_with_generous_apl_and_low_mdshd() {
    // §5.3: "Software-Flush can perform as well as Dragon, or even
    // better" at very high apl. High apl + rarely-dirty shared data
    // removes almost all coherence traffic; Dragon still broadcasts.
    let w = WorkloadParams::default()
        .with_param(ParamId::Apl, 1000.0)
        .unwrap()
        .with_param(ParamId::Mdshd, 0.0)
        .unwrap();
    let dragon = analyze_bus(Scheme::Dragon, &w, &system(), 16)
        .unwrap()
        .power();
    let sf = analyze_bus(Scheme::SoftwareFlush, &w, &system(), 16)
        .unwrap()
        .power();
    assert!(
        sf > dragon,
        "sf {sf:.3} should exceed dragon {dragon:.3} at apl=1000, mdshd=0"
    );
}

#[test]
fn bus_saturation_flattens_the_power_curve() {
    // Under heavy sharing, the bus saturates: power stops growing.
    let w = WorkloadParams::at_level(Level::High);
    let curve = analyze_bus_sweep(Scheme::NoCache, &w, &system(), 32).unwrap();
    let p8 = curve[7].power();
    let p32 = curve[31].power();
    assert!(
        (p32 - p8) / p8 < 0.05,
        "no-cache gains {:.1}% from 8 to 32 cpus — should be saturated",
        (p32 - p8) / p8 * 100.0
    );
}

#[test]
fn network_power_grows_where_bus_power_stalls() {
    // §6.3: network bandwidth scales with processors, so past bus
    // saturation the network wins.
    let w = WorkloadParams::default();
    let bus = analyze_bus_sweep(Scheme::SoftwareFlush, &w, &system(), 64).unwrap();
    let net = network_power_curve(Scheme::SoftwareFlush, &w, 6).unwrap();
    let bus64 = bus.last().unwrap().power();
    let net64 = net.last().unwrap().power();
    assert!(
        net64 > bus64,
        "network {net64:.2} vs saturated bus {bus64:.2}"
    );
}

#[test]
fn network_keeps_software_flush_above_no_cache_at_realistic_apl() {
    // §6.3: Software-Flush does considerably better than No-Cache on a
    // network — provided flushes are not degenerate. At apl = 1 (the
    // Table 7 high value) every shared reference costs a flush plus a
    // miss, and No-Cache wins instead; both directions are asserted.
    let middle_apl = WorkloadParams::default().apl();
    for level in Level::ALL {
        let w = WorkloadParams::at_level(level)
            .with_param(ParamId::Apl, middle_apl)
            .unwrap();
        for stages in [4u32, 8] {
            let sf = analyze_network(Scheme::SoftwareFlush, &w, stages)
                .unwrap()
                .power();
            let nc = analyze_network(Scheme::NoCache, &w, stages)
                .unwrap()
                .power();
            assert!(sf >= nc, "{level}/{stages}: sf {sf:.2} vs nc {nc:.2}");
        }
    }
    let degenerate = WorkloadParams::at_level(Level::High); // apl = 1
    let sf = analyze_network(Scheme::SoftwareFlush, &degenerate, 8)
        .unwrap()
        .power();
    let nc = analyze_network(Scheme::NoCache, &degenerate, 8)
        .unwrap()
        .power();
    assert!(
        sf < nc,
        "at apl = 1, flush+miss must cost more than throughs"
    );
}

#[test]
fn uniprocessor_has_no_contention_under_any_scheme() {
    for level in Level::ALL {
        let w = WorkloadParams::at_level(level);
        for s in Scheme::ALL {
            let p = analyze_bus(s, &w, &system(), 1).unwrap();
            assert!(p.waiting() < 1e-12, "{s} at {level}");
        }
    }
}

#[test]
fn utilization_decreases_monotonically_in_processor_count() {
    let w = WorkloadParams::default();
    for s in Scheme::ALL {
        let curve = analyze_bus_sweep(s, &w, &system(), 24).unwrap();
        for pair in curve.windows(2) {
            assert!(
                pair[1].utilization() <= pair[0].utilization() + 1e-12,
                "{s}: utilization must not increase with contention"
            );
        }
    }
}

#[test]
fn sensitivity_matches_figures() {
    // The parameters the sensitivity analysis flags as dominant are the
    // ones the figures vary: ls, shd (figs 4-6) and apl (figs 7-9).
    let t = sensitivity_table(16).unwrap();
    let sf_ranking = t.ranking(Scheme::SoftwareFlush);
    let top: Vec<ParamId> = sf_ranking.iter().take(3).map(|&(p, _)| p).collect();
    assert!(top.contains(&ParamId::Apl));
    assert!(top.contains(&ParamId::Shd));
}

#[test]
fn demand_is_consistent_between_scheme_mix_and_bus_analysis() {
    let w = WorkloadParams::default();
    for s in Scheme::ALL {
        let d = scheme_demand(s, &w, &system()).unwrap();
        let p = analyze_bus(s, &w, &system(), 4).unwrap();
        assert_eq!(d.cpu(), p.demand().cpu());
        assert_eq!(d.interconnect(), p.demand().interconnect());
    }
}

#[test]
fn custom_hardware_shifts_all_schemes_consistently() {
    // A machine with slower memory hurts miss-heavy schemes more.
    let slow_memory = BusSystemModel::from_hardware(4, 10, 3);
    let w = WorkloadParams::default();
    for s in Scheme::ALL {
        let fast = analyze_bus(s, &w, &system(), 8).unwrap().power();
        let slow = analyze_bus(s, &w, &slow_memory, 8).unwrap().power();
        assert!(slow < fast, "{s}: slower memory must cost performance");
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let w = WorkloadParams::default();
    assert!(matches!(
        analyze_network(Scheme::Dragon, &w, 4),
        Err(ModelError::UnsupportedScheme { .. })
    ));
    assert!(analyze_bus(Scheme::Base, &w, &system(), 0).is_err());
    assert!(w.with_param(ParamId::Shd, 2.0).is_err());
}
