//! End-to-end validation: the analytical model against the trace-driven
//! simulator, for every protocol and several workload shapes — the
//! paper's §3 experiment plus the software schemes the authors could
//! not validate (their traces came from a hardware-coherent machine;
//! our synthetic traces carry the flush annotations Software-Flush
//! needs, so we can close that gap).

use swcc_core::prelude::*;
use swcc_sim::measure::measure_workload;
use swcc_sim::{simulate, ProtocolKind, SimConfig};
use swcc_trace::synth::{Preset, SynthConfig};
use swcc_trace::Trace;

const INSTRUCTIONS: usize = 40_000;

fn trace_for(protocol: ProtocolKind, cpus: u16, seed: u64) -> Trace {
    if protocol.uses_flushes() {
        let mut b = SynthConfig::builder();
        b.cpus(cpus)
            .instructions_per_cpu(INSTRUCTIONS)
            .seed(seed)
            .emit_flushes(true);
        b.build().generate()
    } else {
        Preset::Pops.config(cpus, INSTRUCTIONS, seed).generate()
    }
}

/// Model-vs-simulation relative error for one configuration.
fn relative_error(protocol: ProtocolKind, cpus: u16, seed: u64) -> f64 {
    let trace = trace_for(protocol, cpus, seed);
    let config = SimConfig::new(protocol);
    let workload = measure_workload(&trace, &config);
    let report = simulate(&trace, &config);
    let scheme = protocol.scheme().expect("paper protocol");
    let model = analyze_bus(scheme, &workload, config.system(), u32::from(cpus))
        .expect("bus analysis succeeds for measured workloads");
    (model.power() - report.power()) / report.power()
}

#[test]
fn base_model_tracks_simulation_within_15_percent() {
    for cpus in [1u16, 2, 4] {
        let err = relative_error(ProtocolKind::Base, cpus, 101);
        assert!(err.abs() < 0.15, "base at {cpus} cpus: {:.1}%", err * 100.0);
    }
}

#[test]
fn dragon_model_tracks_simulation_within_20_percent() {
    for cpus in [1u16, 2, 4] {
        let err = relative_error(ProtocolKind::Dragon, cpus, 103);
        assert!(
            err.abs() < 0.20,
            "dragon at {cpus} cpus: {:.1}%",
            err * 100.0
        );
    }
}

#[test]
fn no_cache_model_tracks_simulation_within_25_percent() {
    for cpus in [1u16, 2, 4] {
        let err = relative_error(ProtocolKind::NoCache, cpus, 107);
        assert!(
            err.abs() < 0.25,
            "no-cache at {cpus} cpus: {:.1}%",
            err * 100.0
        );
    }
}

#[test]
fn software_flush_model_tracks_simulation_within_30_percent() {
    // The Software-Flush workload model is the roughest (the paper
    // could not validate it at all); we hold it to 30%.
    for cpus in [1u16, 2, 4] {
        let err = relative_error(ProtocolKind::SoftwareFlush, cpus, 109);
        assert!(
            err.abs() < 0.30,
            "sw-flush at {cpus} cpus: {:.1}%",
            err * 100.0
        );
    }
}

#[test]
fn dragon_model_power_stays_below_1_08x_simulation_at_8_cpus() {
    // At 8 processors on a sharing-heavy (PERO-like) trace, Dragon's
    // model power must stay below 1.08 times the simulated power. This
    // bounds the model's optimism and names no cause for its error: the
    // paper (§3) blames its contention overestimate on the exponential
    // bus service the model assumes, but `ext_service` runs the
    // simulator with exponential service and lands farther from the
    // model than the fixed-service run does.
    let trace = Preset::Pero.config(8, INSTRUCTIONS, 113).generate();
    let config = SimConfig::new(ProtocolKind::Dragon);
    let workload = measure_workload(&trace, &config);
    let report = simulate(&trace, &config);
    let model = analyze_bus(Scheme::Dragon, &workload, config.system(), 8).unwrap();
    assert!(
        model.power() < report.power() * 1.08,
        "model {:.3} should not exceed sim {:.3} by more than noise",
        model.power(),
        report.power()
    );
}

#[test]
fn simulated_scheme_ordering_matches_model_ordering() {
    // The central sanity check: on one 4-cpu sharing workload, the
    // simulator and the model agree on who wins.
    let seed = 127;
    let mut powers_sim = Vec::new();
    let mut powers_model = Vec::new();
    for protocol in [
        ProtocolKind::Base,
        ProtocolKind::Dragon,
        ProtocolKind::NoCache,
    ] {
        let trace = trace_for(protocol, 4, seed);
        let config = SimConfig::new(protocol);
        let report = simulate(&trace, &config);
        let workload = measure_workload(&trace, &config);
        let scheme = protocol.scheme().expect("paper protocol");
        let model = analyze_bus(scheme, &workload, config.system(), 4).unwrap();
        powers_sim.push((protocol, report.power()));
        powers_model.push((protocol, model.power()));
    }
    let order = |v: &[(ProtocolKind, f64)]| -> Vec<ProtocolKind> {
        let mut v = v.to_vec();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v.into_iter().map(|(p, _)| p).collect()
    };
    assert_eq!(order(&powers_sim), order(&powers_model));
    assert_eq!(order(&powers_sim)[0], ProtocolKind::Base);
}

#[test]
fn measured_parameters_are_stable_across_processor_counts() {
    // §3: model parameters should be "nearly constant as the number of
    // processors increases" — the property that makes one measurement
    // usable for the whole curve.
    let config = SimConfig::new(ProtocolKind::Dragon);
    let w2 = measure_workload(
        &Preset::Pops.config(2, INSTRUCTIONS, 131).generate(),
        &config,
    );
    let w4 = measure_workload(
        &Preset::Pops.config(4, INSTRUCTIONS, 131).generate(),
        &config,
    );
    assert!((w2.ls() - w4.ls()).abs() < 0.02);
    assert!((w2.msdat() - w4.msdat()).abs() < 0.02);
    assert!((w2.mains() - w4.mains()).abs() < 0.02);
}

#[test]
fn calibrated_workload_closes_the_full_loop() {
    // The full tool chain: ask the generator for a workload with given
    // Table 2 parameters, verify the trace measures back on target,
    // then check model and simulator agree on that workload.
    use swcc_trace::synth::{calibrate, CalibrationTarget, SynthConfig};

    let mut builder = SynthConfig::builder();
    builder.cpus(4).instructions_per_cpu(30_000).seed(0x100b);
    let calibration = calibrate(
        &builder,
        CalibrationTarget {
            ls: Some(0.3),
            shd: Some(0.25),
            apl: Some(6.0),
            ..CalibrationTarget::default()
        },
        0.15,
    );
    assert!((calibration.measured_ls - 0.3).abs() < 0.03);
    assert!((calibration.measured_shd - 0.25).abs() < 0.05);
    let apl = calibration.measured_apl.expect("4-cpu trace has runs");
    assert!((apl - 6.0).abs() / 6.0 < 0.25, "apl {apl}");

    let trace = calibration.generate();
    let config = SimConfig::new(ProtocolKind::Dragon);
    let workload = measure_workload(&trace, &config);
    let report = simulate(&trace, &config);
    let model = analyze_bus(Scheme::Dragon, &workload, config.system(), 4).unwrap();
    let err = (model.power() - report.power()).abs() / report.power();
    assert!(err < 0.2, "calibrated loop error {:.1}%", err * 100.0);
}

#[test]
fn flush_traces_change_software_flush_but_not_base() {
    // Base ignores flush records entirely; Software-Flush pays for them.
    let mut b = SynthConfig::builder();
    b.cpus(2)
        .instructions_per_cpu(20_000)
        .seed(137)
        .emit_flushes(true);
    let with_flushes = b.build().generate();

    let base = simulate(&with_flushes, &SimConfig::new(ProtocolKind::Base));
    let sf = simulate(&with_flushes, &SimConfig::new(ProtocolKind::SoftwareFlush));
    assert_eq!(base.clean_flushes() + base.dirty_flushes(), 0);
    assert!(sf.clean_flushes() + sf.dirty_flushes() > 0);
    assert!(sf.power() < base.power());
}
