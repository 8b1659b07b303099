//! Experiments beyond the paper's artifacts: the extensions and
//! future-work items DESIGN.md §7 commits to.
//!
//! * [`packet_vs_circuit`] — quantifies §7's conjecture that packet
//!   switching favors No-Cache.
//! * [`directory_vs_software`] — quantifies §6.3's remark that
//!   Software-Flush at the low range approximates directory hardware.
//! * [`patel_vs_simulation`] — validates Patel's analytical network
//!   model against the cycle-level circuit-switched simulator (the
//!   paper's stated future work).

use swcc_core::directory::analyze_directory;
use swcc_core::network::{analyze_network, analyze_network_packet};
use swcc_core::prelude::*;
use swcc_sim::measure::measure_workload;
use swcc_sim::{
    simulate, simulate_network, NetworkSimConfig, ProtocolKind, ServiceDiscipline, SimConfig,
};
use swcc_trace::synth::Preset;

use crate::artifact::{Artifact, Figure, Series, Table};
use crate::registry::{Comparison, Output};
use crate::validation::rel_error;

/// Network schemes (Dragon needs a bus).
const NETWORK_SCHEMES: [Scheme; 3] = [Scheme::Base, Scheme::SoftwareFlush, Scheme::NoCache];

/// Extension: circuit- versus packet-switched processing power, by
/// scheme and network size (middle workload).
pub fn packet_vs_circuit() -> Figure {
    let w = WorkloadParams::default();
    let mut fig = Figure::new(
        "Extension: packet vs circuit switching (middle workload)",
        "processors",
        "processing power",
    );
    for scheme in NETWORK_SCHEMES {
        let mut circuit = Vec::new();
        let mut packet = Vec::new();
        for stages in 1..=9u32 {
            let c = analyze_network(scheme, &w, stages).expect("network schemes");
            let p = analyze_network_packet(scheme, &w, stages).expect("network schemes");
            circuit.push((f64::from(c.processors()), c.power()));
            packet.push((f64::from(p.processors()), p.power()));
        }
        fig.push_series(Series::new(format!("{scheme} circuit"), circuit));
        fig.push_series(Series::new(format!("{scheme} packet"), packet));
    }
    fig.notes.push(
        "paper §7: \"Use of packet-switching would be more favorable to No-Cache\" — \
         compare the No-Cache gain against Software-Flush's"
            .into(),
    );
    fig
}

/// Extension: directory hardware versus the software schemes on the
/// network, across the Table 7 levels.
pub fn directory_vs_software() -> Table {
    let mut t = Table::new(
        "Extension: directory hardware vs software schemes (256-processor network)",
        vec![
            "workload".into(),
            "Base".into(),
            "Directory".into(),
            "Software-Flush".into(),
            "No-Cache".into(),
            "SF / Dir".into(),
        ],
    );
    for level in Level::ALL {
        let w = WorkloadParams::at_level(level);
        let base = analyze_network(Scheme::Base, &w, 8).expect("base").power();
        let dir = analyze_directory(&w, 8).expect("directory").power();
        let sf = analyze_network(Scheme::SoftwareFlush, &w, 8)
            .expect("software-flush")
            .power();
        let nc = analyze_network(Scheme::NoCache, &w, 8)
            .expect("no-cache")
            .power();
        t.push_row(vec![
            level.to_string(),
            format!("{base:.1}"),
            format!("{dir:.1}"),
            format!("{sf:.1}"),
            format!("{nc:.1}"),
            format!("{:.2}", sf / dir),
        ]);
    }
    t.notes.push(
        "paper §6.3: Software-Flush in the low range approximates hardware directory \
         schemes — the SF/Dir column should be near 1.0 on the low row"
            .into(),
    );
    t
}

/// Extension: Patel's analytical model versus the cycle-level
/// circuit-switched network simulator. The run record keeps the worst
/// utilization gap as the figure's accuracy.
pub fn patel_vs_simulation(instructions_per_cpu: u64, seed: u64) -> Output {
    let mut fig = Figure::new(
        "Extension: Patel model vs circuit-switched network simulation",
        "stages",
        "processor utilization",
    );
    let mut worst: f64 = 0.0;
    for scheme in NETWORK_SCHEMES {
        let mut model_pts = Vec::new();
        let mut sim_pts = Vec::new();
        for stages in 2..=6u32 {
            let w = WorkloadParams::default();
            let model = analyze_network(scheme, &w, stages).expect("network schemes");
            let sim = simulate_network(
                scheme,
                &w,
                &NetworkSimConfig {
                    stages,
                    instructions_per_cpu,
                    seed,
                },
            )
            .expect("simulation succeeds");
            worst = worst.max(rel_error(model.utilization(), sim.utilization()));
            model_pts.push((f64::from(stages), model.utilization()));
            sim_pts.push((f64::from(stages), sim.utilization()));
        }
        fig.push_series(Series::new(format!("{scheme} model"), model_pts));
        fig.push_series(Series::new(format!("{scheme} sim"), sim_pts));
    }
    fig.notes.push(
        "validating the paper's §6.2 methodology by simulation was its stated future work".into(),
    );
    Output {
        artifact: Artifact::Figure(fig),
        comparison: Comparison::Worst(worst),
    }
}

/// Extension: tests the model's exponential-service assumption.
///
/// Runs the same trace through the simulator twice — once with the
/// paper's fixed Table 1 bus service times, once with exponential
/// service of the same means — and compares both contention figures
/// (`w`, cycles per instruction) against the analytical model's. The
/// paper attributes its consistent contention overestimate to exactly
/// this assumption, but the exponential-service run does not confirm
/// it: in `repro_output.txt` it lands farther from the model than the
/// fixed-service run at every processor count (at 2, 4 and 8 CPUs `w`
/// is 0.1310 / 0.4807 / 1.5692 exponential, 0.1005 / 0.3860 / 1.3433
/// model, 0.0785 / 0.3756 / 1.4314 fixed). The model overestimates the
/// fixed-service contention at 2–4 CPUs and underestimates it at 8.
/// The table's note orders the three `w` of each row and names the
/// rows where exponential service lands farther from the model.
pub fn service_discipline(instructions_per_cpu: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: bus service-time discipline vs model contention (w per instruction)",
        vec![
            "cpus".into(),
            "sim w (fixed)".into(),
            "sim w (exponential)".into(),
            "model w".into(),
        ],
    );
    // Per processor count: the three w from lowest to highest, and
    // whether exponential service lands farther from the model.
    let (mut orders, mut farther) = (Vec::new(), Vec::new());
    for cpus in [2u16, 4, 8] {
        let trace = Preset::Pero
            .config(cpus, instructions_per_cpu, seed)
            .generate();
        let fixed_cfg = SimConfig::new(ProtocolKind::Dragon);
        let mut b = SimConfig::builder(ProtocolKind::Dragon);
        b.service(ServiceDiscipline::Exponential).seed(seed);
        let exp_cfg = b.build();
        let fixed = simulate(&trace, &fixed_cfg).contention_per_instruction();
        let exponential = simulate(&trace, &exp_cfg).contention_per_instruction();
        let workload = measure_workload(&trace, &fixed_cfg);
        let model = analyze_bus(
            Scheme::Dragon,
            &workload,
            fixed_cfg.system(),
            u32::from(cpus),
        )
        .expect("bus analysis")
        .waiting();
        let mut order = [
            ("fixed", fixed),
            ("model", model),
            ("exponential", exponential),
        ];
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        orders.push(format!(
            "{cpus} CPUs {}",
            order.map(|(name, _)| name).join(" < ")
        ));
        if (exponential - model).abs() > (fixed - model).abs() {
            farther.push(cpus.to_string());
        }
        t.push_row(vec![
            cpus.to_string(),
            format!("{fixed:.4}"),
            format!("{exponential:.4}"),
            format!("{model:.4}"),
        ]);
    }
    t.notes.push(format!(
        "w from lowest to highest: {}; exponential service lands farther from the model \
         than fixed service at {} CPUs",
        orders.join(", "),
        if farther.is_empty() {
            "no".to_string()
        } else {
            farther.join(", ")
        }
    ));
    t
}

/// Extension: write-update (Dragon) versus write-invalidate (MESI-like)
/// snoopy hardware across the sharing-granularity spectrum.
///
/// The paper models only Dragon. Sweeping `apl` exposes the classic
/// trade: at `apl = 1` (ping-pong sharing) updates win — invalidation
/// forces a miss per handoff — while at large `apl` (migratory sharing)
/// invalidation wins because Dragon keeps broadcasting every write to
/// data that stays resident elsewhere. Software-Flush is plotted for
/// context: invalidation hardware is its "free-flush" analogue.
pub fn update_vs_invalidate() -> Figure {
    use swcc_core::invalidate::bus_performance_invalidate;
    let system = BusSystemModel::new();
    let base = WorkloadParams::default();
    let mut fig = Figure::new(
        "Extension: write-update (Dragon) vs write-invalidate (MESI-like), 16-cpu bus",
        "apl",
        "processing power",
    );
    let mut dragon = Vec::new();
    let mut mesi = Vec::new();
    let mut sf = Vec::new();
    for apl_i in 1..=40u32 {
        let apl = f64::from(apl_i);
        let w = base.with_param(ParamId::Apl, apl).expect("apl >= 1");
        dragon.push((
            apl,
            analyze_bus(Scheme::Dragon, &w, &system, 16)
                .expect("bus")
                .power(),
        ));
        mesi.push((
            apl,
            bus_performance_invalidate(&w, &system, 16)
                .expect("bus")
                .power(),
        ));
        sf.push((
            apl,
            analyze_bus(Scheme::SoftwareFlush, &w, &system, 16)
                .expect("bus")
                .power(),
        ));
    }
    fig.push_series(Series::new("Dragon (update)", dragon));
    fig.push_series(Series::new("Write-Invalidate", mesi));
    fig.push_series(Series::new("Software-Flush", sf));
    fig.notes.push(
        "Dragon's power is apl-independent (it never re-misses on shared data); \
         invalidation trades broadcasts for coherence misses and crosses over"
            .into(),
    );
    fig
}

/// Extension: the software schemes *trace-driven* at network scale.
///
/// The paper's network results are purely analytical (a synthetic
/// workload fed to Patel's model). Here the trace-driven cache
/// simulator runs over the circuit-switched network fabric, and the
/// analytical model is evaluated at parameters measured from the same
/// trace — closing the §3 validation loop for §6's network claims.
pub fn trace_driven_network(instructions_per_cpu: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: trace-driven network simulation vs analytical model (power)",
        vec![
            "scheme".into(),
            "cpus".into(),
            "sim".into(),
            "model".into(),
            "err %".into(),
        ],
    );
    const STAGES: [u32; 2] = [2, 3];
    // One workload family for all schemes: identical generator settings,
    // with flush records only for Software-Flush, so Base and No-Cache
    // share each stage count's plain trace.
    let traces: Vec<[swcc_trace::Trace; 2]> = STAGES
        .iter()
        .map(|&stages| {
            [false, true].map(|flushes| {
                let mut gen = swcc_trace::synth::SynthConfig::builder();
                gen.cpus(1u16 << stages)
                    .instructions_per_cpu(instructions_per_cpu)
                    .seed(seed)
                    .emit_flushes(flushes);
                gen.build().generate()
            })
        })
        .collect();
    for protocol in [
        ProtocolKind::Base,
        ProtocolKind::SoftwareFlush,
        ProtocolKind::NoCache,
    ] {
        for (stages, pair) in STAGES.into_iter().zip(&traces) {
            let cpus = 1u16 << stages;
            let trace = &pair[usize::from(protocol.uses_flushes())];
            let mut b = SimConfig::builder(protocol);
            b.network(stages);
            let config = b.build();
            let report = simulate(trace, &config);
            let workload = measure_workload(trace, &config);
            let scheme = protocol.scheme().expect("software schemes");
            let model = analyze_network(scheme, &workload, stages).expect("network schemes");
            let err = (model.power() - report.power()) / report.power() * 100.0;
            t.push_row(vec![
                protocol.to_string(),
                cpus.to_string(),
                format!("{:.3}", report.power()),
                format!("{:.3}", model.power()),
                format!("{err:+.1}"),
            ]);
        }
    }
    t.notes.push(
        "simulator: waiting circuit establishment over per-link reservations; model: \
         Patel drop-and-retry fixed point — agreement within tens of percent is the \
         success criterion, direction of scheme ranking must match"
            .into(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_vs_circuit_shifts_the_balance_toward_no_cache() {
        let f = packet_vs_circuit();
        let at_max = |name: &str| f.series_named(name).unwrap().final_y().unwrap();
        let circuit_ratio = at_max("No-Cache circuit") / at_max("Software-Flush circuit");
        let packet_ratio = at_max("No-Cache packet") / at_max("Software-Flush packet");
        assert!(packet_ratio > circuit_ratio);
    }

    #[test]
    fn directory_table_shows_sf_parity_and_shared_collapse() {
        let t = directory_vs_software();
        // SF approximates the directory at the low range (§6.3) and
        // never beats it; notably both *collapse together* at the high
        // range, because the dominant cost — one coherence re-fetch per
        // apl references — is intrinsic to invalidation, not to the
        // software flush instructions.
        let ratio = |level: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == level).unwrap()[5]
                .parse()
                .unwrap()
        };
        assert!(
            (0.95..=1.005).contains(&ratio("low")),
            "low: {}",
            ratio("low")
        );
        for level in ["low", "middle", "high"] {
            let r = ratio(level);
            assert!((0.85..=1.005).contains(&r), "{level}: {r}");
        }
        let power = |level: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == level).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(
            power("high") < 0.2 * power("low"),
            "directory collapses at apl = 1"
        );
    }

    #[test]
    fn exponential_service_contends_more_and_the_model_lies_between() {
        let t = service_discipline(20_000, 0xD15C);
        let get = |cpus: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == cpus).unwrap()[col]
                .parse()
                .unwrap()
        };
        // Service variability always increases queueing: the
        // exponential-service run must show more contention than the
        // fixed-service run on every row.
        for cpus in ["2", "4", "8"] {
            assert!(
                get(cpus, 2) > get(cpus, 1),
                "{cpus} cpus: exponential {} <= fixed {}",
                get(cpus, 2),
                get(cpus, 1)
            );
        }
        // At 2 and 4 CPUs the model's w lies between the two
        // disciplines: it overestimates the fixed-service machine, as §3
        // reports, and underestimates the exponential one. Neither
        // assertion says exponential service lands closer to the model;
        // at `repro all`'s settings it lands farther.
        for cpus in ["2", "4"] {
            let (fixed, exponential, model) = (get(cpus, 1), get(cpus, 2), get(cpus, 3));
            assert!(
                model > fixed && model < exponential,
                "{cpus} cpus: expected fixed {fixed} < model {model} < exponential {exponential}"
            );
        }
    }

    #[test]
    fn update_invalidate_crossover_exists() {
        let f = update_vs_invalidate();
        let dragon = f.series_named("Dragon (update)").unwrap();
        let mesi = f.series_named("Write-Invalidate").unwrap();
        let at =
            |s: &crate::artifact::Series, apl: f64| s.points.iter().find(|p| p.0 == apl).unwrap().1;
        // Ping-pong sharing: update wins.
        assert!(at(dragon, 1.0) > at(mesi, 1.0));
        // Migratory sharing: invalidate wins.
        assert!(at(mesi, 40.0) > at(dragon, 40.0));
        // At degenerate apl = 1 the invalidate hardware still clearly
        // beats Software-Flush (no flush instructions, cache-sourced
        // fills). Note SF can edge ahead at large apl only because the
        // paper's Table 5 never charges ordinary capacity misses on
        // shared data — an accounting asymmetry we inherit deliberately.
        let sf = f.series_named("Software-Flush").unwrap();
        assert!(at(mesi, 1.0) > at(sf, 1.0));
        assert!(at(mesi, 2.0) > at(sf, 2.0));
    }

    #[test]
    fn write_invalidate_simulation_tracks_its_model() {
        use swcc_core::invalidate::bus_performance_invalidate;
        // Run the MESI protocol on a synthetic trace and compare the
        // simulated power with the invalidate model evaluated at the
        // measured workload parameters.
        let trace = Preset::Pops.config(4, 30_000, 0x3e51).generate();
        let config = SimConfig::new(ProtocolKind::WriteInvalidate);
        let report = simulate(&trace, &config);
        let workload = measure_workload(&trace, &config);
        let model = bus_performance_invalidate(&workload, config.system(), 4).unwrap();
        let err = (model.power() - report.power()).abs() / report.power();
        assert!(
            err < 0.25,
            "model {:.3} vs sim {:.3} ({:.1}%)",
            model.power(),
            report.power(),
            err * 100.0
        );
    }

    #[test]
    fn simulated_update_vs_invalidate_matches_model_direction() {
        // On a fine-grained-sharing trace (short runs), the simulator
        // should agree with the model that Dragon beats MESI.
        let mut b = swcc_trace::synth::SynthConfig::builder();
        b.cpus(4)
            .instructions_per_cpu(30_000)
            .run_length(2.0)
            .hot_regions(4)
            .region_blocks(2)
            .shd(0.3)
            .seed(0x1234);
        let trace = b.build().generate();
        let dragon = simulate(&trace, &SimConfig::new(ProtocolKind::Dragon));
        let mesi = simulate(&trace, &SimConfig::new(ProtocolKind::WriteInvalidate));
        assert!(
            dragon.power() > mesi.power(),
            "ping-pong trace: dragon {:.3} vs mesi {:.3}",
            dragon.power(),
            mesi.power()
        );
    }

    #[test]
    fn trace_driven_network_tracks_model() {
        let t = trace_driven_network(15_000, 0x7ace);
        // Every row's relative error stays within a generous envelope
        // (the simulator's waiting circuits vs the model's drop-retry
        // discipline), and Base dominates in both worlds at each size.
        for row in &t.rows {
            let err: f64 = row[4].parse().unwrap();
            assert!(err.abs() < 40.0, "{} at {} cpus: {err}%", row[0], row[1]);
        }
        for cpus in ["4", "8"] {
            let power = |scheme: &str, col: usize| -> f64 {
                t.rows
                    .iter()
                    .find(|r| r[0] == scheme && r[1] == cpus)
                    .unwrap()[col]
                    .parse()
                    .unwrap()
            };
            for col in [2, 3] {
                assert!(power("Base", col) >= power("Software-Flush", col));
                assert!(power("Base", col) >= power("No-Cache", col));
            }
        }
    }

    #[test]
    fn patel_validation_pairs_track_each_other() {
        let out = patel_vs_simulation(3_000, 42);
        let f = out.artifact.as_figure().unwrap();
        for scheme in ["Base", "Software-Flush", "No-Cache"] {
            let model = f.series_named(&format!("{scheme} model")).unwrap();
            let sim = f.series_named(&format!("{scheme} sim")).unwrap();
            for (&(s, m), &(_, v)) in model.points.iter().zip(&sim.points) {
                let err = (m - v).abs() / v;
                assert!(
                    err < 0.25,
                    "{scheme} at {s} stages: model {m:.3} sim {v:.3}"
                );
            }
        }
    }
}
