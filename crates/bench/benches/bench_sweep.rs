//! Sweep-engine benchmarks: the batched MVA/bus sweep against the
//! pointwise API it replaces, and warm-started Patel solves against
//! cold ones.
//!
//! The headline comparison is the 1..=64-processor bus power curve:
//! `pointwise` recomputes the MVA recurrence from population 1 for
//! every point (O(N²) total work), while `swept` extends one
//! recurrence across all populations (O(N)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use swcc_core::bus::{analyze_bus, analyze_bus_sweep};
use swcc_core::network::{network_power_curve, solve, solve_with, SolveOptions};
use swcc_core::queue::{machine_repairman, machine_repairman_sweep};
use swcc_core::scheme::Scheme;
use swcc_core::system::BusSystemModel;
use swcc_core::workload::WorkloadParams;

const CURVE_POINTS: u32 = 64;

fn bus_curve(c: &mut Criterion) {
    let w = WorkloadParams::default();
    let sys = BusSystemModel::new();
    let mut group = c.benchmark_group("bus_curve_64");
    group.throughput(Throughput::Elements(u64::from(CURVE_POINTS)));
    for scheme in [Scheme::Base, Scheme::Dragon] {
        group.bench_with_input(
            BenchmarkId::new("pointwise", scheme.to_string()),
            &scheme,
            |b, &s| {
                b.iter(|| {
                    (1..=CURVE_POINTS)
                        .map(|n| analyze_bus(s, &w, &sys, black_box(n)).unwrap())
                        .collect::<Vec<_>>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("swept", scheme.to_string()),
            &scheme,
            |b, &s| b.iter(|| analyze_bus_sweep(s, &w, &sys, black_box(CURVE_POINTS)).unwrap()),
        );
    }
    group.finish();
}

fn mva_curve(c: &mut Criterion) {
    let mut group = c.benchmark_group("mva_curve_64");
    group.throughput(Throughput::Elements(u64::from(CURVE_POINTS)));
    group.bench_function("pointwise", |b| {
        b.iter(|| {
            (1..=CURVE_POINTS)
                .map(|n| machine_repairman(black_box(n), 0.37, 1.2).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("swept", |b| {
        b.iter(|| machine_repairman_sweep(black_box(CURVE_POINTS), 0.37, 1.2).unwrap())
    });
    group.finish();
}

fn patel_warm_start(c: &mut Criterion) {
    const SOLVES: u32 = 50;
    let mut group = c.benchmark_group("patel_rate_sweep_50");
    group.throughput(Throughput::Elements(u64::from(SOLVES)));
    // Newton from the light-load guess every time (the cold solve).
    group.bench_function("cold_newton", |b| {
        b.iter(|| {
            (1..=SOLVES)
                .map(|i| solve(f64::from(i) * 0.002, 20.0, 8).unwrap())
                .collect::<Vec<_>>()
        })
    });
    // Newton seeded with the previous sweep point's root.
    group.bench_function("warm_newton", |b| {
        b.iter(|| {
            let mut hint = None;
            (1..=SOLVES)
                .map(|i| {
                    let options = SolveOptions {
                        hint,
                        ..SolveOptions::default()
                    };
                    let op = solve_with(f64::from(i) * 0.002, 20.0, 8, options).unwrap();
                    hint = Some(op.think_fraction());
                    op
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    let w = WorkloadParams::default();
    c.bench_function("network_power_curve_10_stages", |b| {
        b.iter(|| network_power_curve(Scheme::SoftwareFlush, &w, black_box(10)).unwrap())
    });
}

criterion_group!(benches, bus_curve, mva_curve, patel_warm_start);
criterion_main!(benches);
