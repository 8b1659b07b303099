//! Property-based tests: model invariants over the whole legal
//! parameter space, and simulator data-structure invariants over
//! arbitrary access patterns.

use proptest::prelude::*;

use swcc_core::network::{propagate, solve, SolveOptions};
use swcc_core::prelude::*;
use swcc_core::queue::{machine_repairman, machine_repairman_sweep};
use swcc_sim::cache::{Cache, LineState};
use swcc_trace::BlockAddr;

/// A strategy over in-domain workloads.
fn workloads() -> impl Strategy<Value = WorkloadParams> {
    (
        0.0..=1.0f64,   // ls
        0.0..=0.2f64,   // msdat
        0.0..=0.05f64,  // mains
        0.0..=1.0f64,   // md
        0.0..=1.0f64,   // shd
        0.0..=1.0f64,   // wr
        1.0..=200.0f64, // apl
        0.0..=1.0f64,   // mdshd
        (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=16.0f64),
    )
        .prop_map(
            |(ls, msdat, mains, md, shd, wr, apl, mdshd, (oclean, opres, nshd))| {
                let mut b = WorkloadParams::builder();
                b.ls(ls)
                    .msdat(msdat)
                    .mains(mains)
                    .md(md)
                    .shd(shd)
                    .wr(wr)
                    .apl(apl)
                    .mdshd(mdshd)
                    .oclean(oclean)
                    .opres(opres)
                    .nshd(nshd);
                b.build().expect("strategy stays in-domain")
            },
        )
}

/// A strategy over workloads confined to the paper's Table 7
/// low..high envelope.
fn table7_workloads() -> impl Strategy<Value = WorkloadParams> {
    let r = |id: ParamId| {
        let range = swcc_core::workload::TABLE7_RANGES.range(id);
        range.low.min(range.high)..=range.low.max(range.high)
    };
    (
        r(ParamId::Ls),
        r(ParamId::Msdat),
        r(ParamId::Mains),
        r(ParamId::Md),
        r(ParamId::Shd),
        r(ParamId::Wr),
        r(ParamId::Apl),
        r(ParamId::Mdshd),
        (r(ParamId::Oclean), r(ParamId::Opres), r(ParamId::Nshd)),
    )
        .prop_map(
            |(ls, msdat, mains, md, shd, wr, apl, mdshd, (oclean, opres, nshd))| {
                let mut b = WorkloadParams::builder();
                b.ls(ls)
                    .msdat(msdat)
                    .mains(mains)
                    .md(md)
                    .shd(shd)
                    .wr(wr)
                    .apl(apl)
                    .mdshd(mdshd)
                    .oclean(oclean)
                    .opres(opres)
                    .nshd(nshd);
                b.build().expect("Table 7 envelope is in-domain")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frequencies_are_finite_and_nonnegative(w in workloads()) {
        for s in Scheme::ALL {
            for (op, f) in s.mix(&w).iter() {
                prop_assert!(f.is_finite() && f >= 0.0, "{s}/{op}: {f}");
            }
        }
    }

    #[test]
    fn demand_has_cpu_at_least_one_and_bus_below_cpu(w in workloads()) {
        let sys = BusSystemModel::new();
        for s in Scheme::ALL {
            let d = scheme_demand(s, &w, &sys).unwrap();
            prop_assert!(d.cpu() >= 1.0, "{s}: c = {}", d.cpu());
            prop_assert!(d.interconnect() < d.cpu(), "{s}");
        }
    }

    #[test]
    fn base_dominates_all_schemes_within_table7_ranges(w in table7_workloads(), n in 1u32..24) {
        // Only within the Table 7 envelope — outside it the paper's
        // model lets coherence "win": Dragon's cache-to-cache misses
        // are a cycle cheaper than memory (visible when oclean → 0 with
        // wr → 0), Software-Flush books shared-data misses only through
        // the flush-refetch term (visible when apl >> 1/msdat), and at
        // extreme miss rates No-Cache's 2-cycle write-throughs beat
        // caching outright. Within the observed ranges, Base is the
        // upper bound the paper claims.
        let sys = BusSystemModel::new();
        let base = analyze_bus(Scheme::Base, &w, &sys, n).unwrap().power();
        for s in [Scheme::NoCache, Scheme::SoftwareFlush, Scheme::Dragon] {
            let p = analyze_bus(s, &w, &sys, n).unwrap().power();
            prop_assert!(p <= base + 1e-9, "{s}: {p} > {base}");
        }
    }

    #[test]
    fn utilization_and_power_are_bounded(w in workloads(), n in 1u32..64) {
        let sys = BusSystemModel::new();
        for s in Scheme::ALL {
            let p = analyze_bus(s, &w, &sys, n).unwrap();
            prop_assert!(p.utilization() > 0.0 && p.utilization() <= 1.0);
            prop_assert!(p.power() <= f64::from(n) + 1e-9);
            prop_assert!((0.0..=1.0).contains(&p.bus_utilization()));
        }
    }

    #[test]
    fn bus_sweep_matches_pointwise_analysis(w in workloads(), n in 1u32..48) {
        // The batched sweep must agree with the pointwise API within
        // 1e-12 at every population. (It is in fact bit-identical — the
        // sweep performs the same f64 operations in the same order — so
        // the comparison below is exact, which is stronger.)
        let sys = BusSystemModel::new();
        for s in Scheme::ALL {
            let sweep = analyze_bus_sweep(s, &w, &sys, n).unwrap();
            prop_assert_eq!(sweep.len(), n as usize);
            for (k, swept) in (1..=n).zip(&sweep) {
                let pointwise = analyze_bus(s, &w, &sys, k).unwrap();
                prop_assert!(
                    (swept.power() - pointwise.power()).abs() <= 1e-12,
                    "{s} at n={k}: swept {} vs pointwise {}",
                    swept.power(),
                    pointwise.power()
                );
                prop_assert_eq!(swept, &pointwise, "{} at n={}", s, k);
            }
        }
    }

    #[test]
    fn mva_sweep_matches_pointwise_solutions(
        n in 1u32..64,
        service in 0.0..5.0f64,
        think in 0.5..50.0f64,
    ) {
        let sweep = machine_repairman_sweep(n, service, think).unwrap();
        for k in 1..=n {
            let point = machine_repairman(k, service, think).unwrap();
            prop_assert_eq!(sweep.get(k).unwrap(), &point, "k = {}", k);
        }
    }

    #[test]
    fn warm_patel_solves_match_cold_within_tolerance(
        rate in 0.001..1.0f64,
        size in 0.0..40.0f64,
        stages in 0u32..10,
        hint in 0.0..=1.0f64,
    ) {
        // A warm start (any hint, even a bad one) must land on the same
        // fixed point as a cold solve, within the shared tolerance.
        let cold = solve(rate, size, stages).unwrap();
        let opts = SolveOptions {
            hint: Some(hint),
            ..SolveOptions::default()
        };
        let warm = swcc_core::network::solve_with(rate, size, stages, opts).unwrap();
        prop_assert!(
            (warm.think_fraction() - cold.think_fraction()).abs() <= 1e-9,
            "hinted {} vs cold {}",
            warm.think_fraction(),
            cold.think_fraction()
        );
        // A hint chain: the same point hinted with its own cold root.
        let rehinted = SolveOptions {
            hint: Some(cold.think_fraction()),
            ..SolveOptions::default()
        };
        let again = swcc_core::network::solve_with(rate, size, stages, rehinted).unwrap();
        prop_assert!((again.think_fraction() - cold.think_fraction()).abs() <= 1e-9);
    }

    #[test]
    fn mva_waiting_monotone_in_population(service in 0.01..5.0f64, think in 0.5..50.0f64) {
        let mut prev = -1.0f64;
        for n in 1..=16u32 {
            let s = machine_repairman(n, service, think).unwrap();
            prop_assert!(s.waiting() >= prev - 1e-9);
            prev = s.waiting();
        }
    }

    #[test]
    fn mva_population_is_conserved(n in 1u32..32, service in 0.01..5.0f64, think in 0.5..50.0f64) {
        let s = machine_repairman(n, service, think).unwrap();
        let total = s.queue_len() + s.throughput() * think;
        prop_assert!((total - f64::from(n)).abs() < 1e-6);
    }

    #[test]
    fn patel_propagation_never_creates_load(m0 in 0.0..=1.0f64, stages in 0u32..12) {
        let out = propagate(m0, stages);
        prop_assert!(out <= m0 + 1e-12);
        prop_assert!(out >= 0.0);
    }

    #[test]
    fn patel_fixed_point_is_consistent(rate in 0.001..1.0f64, size in 0.0..40.0f64, stages in 0u32..10) {
        let op = solve(rate, size, stages).unwrap();
        let u = op.think_fraction();
        prop_assert!((0.0..=1.0).contains(&u));
        if rate * size > 0.0 {
            let residual = propagate(1.0 - u, stages) - u * rate * size;
            prop_assert!(residual.abs() < 1e-6, "residual {residual}");
        }
    }

    #[test]
    fn network_utilization_monotone_in_demand(stages in 1u32..10) {
        let mut prev = f64::INFINITY;
        for i in 1..=20 {
            let u = solve(f64::from(i) * 0.01, 20.0, stages).unwrap().think_fraction();
            prop_assert!(u <= prev + 1e-12);
            prev = u;
        }
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        ops in prop::collection::vec((0u64..64, prop::bool::ANY), 1..200)
    ) {
        let mut cache = Cache::new(16 * 16, 2, 4); // 16 blocks, 8 sets, 2-way
        for (block, write) in ops {
            let b = BlockAddr(block);
            if cache.touch(b).is_none() {
                cache.insert(b, if write { LineState::Dirty } else { LineState::Clean });
            } else if write {
                cache.set_state(b, LineState::Dirty);
            }
            prop_assert!(cache.occupancy() <= 16);
        }
    }

    #[test]
    fn trace_io_round_trips_arbitrary_traces(
        records in prop::collection::vec(
            (0u16..8, 0u8..4, 0u64..u64::MAX / 2),
            0..200,
        ),
        idle in 0u16..4,
    ) {
        use swcc_trace::io::{read_binary, read_text, write_binary, write_text};
        use swcc_trace::{Access, AccessKind, Trace};
        let kinds = [
            AccessKind::Fetch,
            AccessKind::Load,
            AccessKind::Store,
            AccessKind::Flush,
        ];
        let inferred = Trace::from_records(
            records
                .into_iter()
                .map(|(cpu, k, addr)| Access::new(cpu, kinds[k as usize], addr))
                .collect(),
        );
        // The same records pushed into a trace that declares `idle`
        // more processors than they use.
        let mut declared = Trace::new(inferred.cpus() + idle);
        for &access in inferred.records() {
            declared.push(access);
        }
        for trace in [&inferred, &declared] {
            let mut text = Vec::new();
            write_text(trace, &mut text).unwrap();
            prop_assert_eq!(&read_text(text.as_slice()).unwrap(), trace);
            let mut bin = Vec::new();
            write_binary(trace, &mut bin).unwrap();
            prop_assert_eq!(&read_binary(bin.as_slice()).unwrap(), trace);
        }
    }

    #[test]
    fn trace_readers_never_panic_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        lines in prop::collection::vec(
            // Processor ids over the whole u16 range, with its top end
            // and small ids drawn often.
            ((0u8..4, any::<u16>()).prop_map(|(edge, id)| match edge {
                0 => u16::MAX - id % 2,
                1 => id % 8,
                _ => id,
            }), 0u8..4, any::<u64>()),
            0..8,
        ),
        header in (any::<bool>(), 0u16..16),
    ) {
        // Malformed input must surface as Err, never as a panic.
        let _ = swcc_trace::io::read_binary(bytes.as_slice());
        // Well-formed lines, with or without a processor-count header:
        // whatever parses keeps every record below the trace's count.
        let mut text = String::new();
        if header.0 {
            text.push_str(&format!("# swcc trace: {} cpus, {} records\n", header.1, lines.len()));
        }
        for (cpu, kind, addr) in &lines {
            let kind = ["i", "r", "w", "f"][*kind as usize];
            text.push_str(&format!("{cpu} {kind} {addr:#x}\n"));
        }
        for input in [bytes.as_slice(), text.as_bytes()] {
            if let Ok(trace) = swcc_trace::io::read_text(input) {
                prop_assert!(
                    trace.records().iter().all(|a| a.cpu.0 < trace.cpus()),
                    "a record at or above the {}-processor count",
                    trace.cpus()
                );
            }
        }
    }

    #[test]
    fn corrupting_one_byte_never_panics_the_binary_reader(
        corrupt_at in 0usize..100,
        value in any::<u8>(),
    ) {
        use swcc_trace::io::{read_binary, write_binary};
        let trace = swcc_trace::synth::pops_like(2, 50, 1).generate();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let idx = corrupt_at % buf.len();
        buf[idx] = value;
        // Either it still parses (the byte was benign) or it errors.
        let _ = read_binary(buf.as_slice());
    }

    #[test]
    fn cache_hits_after_insert_until_evicted(block in 0u64..1024) {
        let mut cache = Cache::new(64 * 16, 4, 4);
        let b = BlockAddr(block);
        cache.insert(b, LineState::Clean);
        prop_assert_eq!(cache.touch(b), Some(LineState::Clean));
        prop_assert_eq!(cache.invalidate(b), Some(LineState::Clean));
        prop_assert_eq!(cache.touch(b), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simulator_conserves_instruction_counts(seed in 0u64..1000) {
        use swcc_sim::{simulate, ProtocolKind, SimConfig};
        let mut b = swcc_trace::synth::SynthConfig::builder();
        b.cpus(2).instructions_per_cpu(2_000).seed(seed);
        let trace = b.build().generate();
        let fetches = trace
            .iter()
            .filter(|a| a.kind == swcc_trace::AccessKind::Fetch)
            .count() as u64;
        for p in [ProtocolKind::Base, ProtocolKind::Dragon] {
            let r = simulate(&trace, &SimConfig::new(p));
            prop_assert_eq!(r.instructions(), fetches);
            prop_assert!(r.power() <= 2.0);
        }
    }
}
