//! Property-based equivalence suite for the batch solver engine.
//!
//! The contract under test: every batch entry point in
//! `swcc_core::batch` is **bit-for-bit identical** to mapping its
//! scalar counterpart over the lanes — not "close", identical. Lanes
//! are independent, so interleaving and active-lane compaction must
//! never change any lane's float-op sequence. These properties pin
//! that down over random batches (including width 0, width 1, and
//! non-power-of-two widths) so codegen changes that would silently
//! reorder arithmetic fail loudly.

use proptest::prelude::*;

use swcc_core::batch::{
    machine_repairman_grid, machine_repairman_sweep_grid, BatchPatelSolver, Stages, COLD,
};
use swcc_core::bus::{analyze_bus_sweep, bus_power_curve_set, bus_power_curves};
use swcc_core::metrics::SOLVER_RESIDUAL_EVALS;
use swcc_core::network::{solve_with, OperatingPoint, SolveOptions};
use swcc_core::prelude::*;
use swcc_core::queue::{machine_repairman, machine_repairman_sweep};
use swcc_core::system::BusSystemModel;

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// A cold scalar solve and the residual evaluations it reported.
fn scalar_solve(rate: f64, size: f64, stages: u32) -> (OperatingPoint, u64) {
    let (point, span) =
        swcc_obs::capture(|| solve_with(rate, size, stages, SolveOptions::default()).unwrap());
    (point, span.counter(SOLVER_RESIDUAL_EVALS).unwrap_or(0))
}

/// A strategy over Patel lanes: rates span idle through saturated,
/// sizes include exact zero (zero-demand lanes retire immediately).
fn patel_lanes() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (0.0..=0.05f64, 0.0..=24.0f64).prop_map(|(rate, size)| {
            // Snap a slice of the range to exactly zero so the
            // zero-demand fast path is exercised, not just approached.
            let size = if size < 0.5 { 0.0 } else { size };
            (rate, size)
        }),
        0..48,
    )
}

/// A strategy over MVA lanes; `think` stays positive so `service == 0`
/// lanes remain in-domain, and small services snap to exactly zero to
/// hit the closed-form path.
fn mva_lanes() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (0.0..=2.0f64, 0.1..=6.0f64).prop_map(|(service, think)| {
            let service = if service < 0.05 { 0.0 } else { service };
            (service, think)
        }),
        0..32,
    )
}

/// A strategy over in-domain workloads (same envelope as the model
/// invariant suite).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold batch Patel solves match per-lane scalar solves bitwise,
    /// and per-lane iteration counts match the residual evaluations
    /// each scalar solve reports.
    #[test]
    fn batch_patel_matches_scalar_bitwise(lanes in patel_lanes(), stages in 1u32..12) {
        let rates: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let sizes: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let batch = BatchPatelSolver::new().solve(&rates, &sizes, stages).unwrap();
        prop_assert_eq!(batch.len(), lanes.len());
        for i in 0..lanes.len() {
            let (point, iterations) = scalar_solve(rates[i], sizes[i], stages);
            prop_assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(point.think_fraction())
            );
            prop_assert_eq!(
                bits(batch.points()[i].accepted_rate()),
                bits(point.accepted_rate())
            );
            prop_assert_eq!(u64::from(batch.iterations()[i]), iterations);
        }
    }

    /// Warm-started batches match scalar hinted solves, including
    /// cold ([`COLD`]) and out-of-range hints, which must cost at most
    /// iterations, never correctness.
    #[test]
    fn hinted_batch_matches_scalar_hinted(
        lanes in prop::collection::vec(
            (0.001..=0.05f64, 1.0..=24.0f64, 0.0..=1.0f64, 0u32..4),
            0..32,
        ),
        stages in 1u32..10,
    ) {
        let rates: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let sizes: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let hints: Vec<f64> = lanes
            .iter()
            .map(|&(_, _, guess, kind)| match kind {
                0 => guess,  // plausible warm hint
                1 => COLD,   // explicitly cold lane
                2 => 2.0,    // out of range high: treated as cold
                _ => -0.25,  // out of range low: treated as cold
            })
            .collect();
        let batch = BatchPatelSolver::new()
            .solve_hinted(&rates, &sizes, stages, &hints)
            .unwrap();
        for i in 0..lanes.len() {
            let scalar = solve_with(
                rates[i],
                sizes[i],
                stages,
                SolveOptions {
                    hint: Some(hints[i]),
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            prop_assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction())
            );
            prop_assert!(batch.converged()[i]);
        }
    }

    /// Per-lane stage counts (the general `solve_grid` form) match
    /// scalar solves at each lane's own stage count.
    #[test]
    fn per_lane_stage_batches_match_scalar(
        lanes in prop::collection::vec((0.0..=0.05f64, 0.0..=24.0f64, 0u32..12), 0..32),
    ) {
        let rates: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let sizes: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let stages: Vec<u32> = lanes.iter().map(|l| l.2).collect();
        let batch = BatchPatelSolver::new()
            .solve_grid(&rates, &sizes, &Stages::PerLane(&stages), None)
            .unwrap();
        for i in 0..lanes.len() {
            let scalar =
                solve_with(rates[i], sizes[i], stages[i], SolveOptions::default()).unwrap();
            prop_assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction())
            );
            prop_assert_eq!(batch.points()[i].stages(), stages[i]);
        }
    }

    /// The lockstep MVA grid equals pointwise machine-repairman solves
    /// exactly (structural equality covers every solution field).
    #[test]
    fn mva_grid_matches_scalar(lanes in mva_lanes(), customers in 1u32..48) {
        let services: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let thinks: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let grid = machine_repairman_grid(customers, &services, &thinks).unwrap();
        prop_assert_eq!(grid.len(), lanes.len());
        for i in 0..lanes.len() {
            let scalar = machine_repairman(customers, services[i], thinks[i]).unwrap();
            prop_assert_eq!(grid[i], scalar);
        }
    }

    /// The lockstep MVA sweep grid equals per-lane scalar sweeps
    /// point-for-point, including the empty population (0 customers).
    #[test]
    fn mva_sweep_grid_matches_scalar(lanes in mva_lanes(), max_customers in 0u32..24) {
        let services: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let thinks: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let grid = machine_repairman_sweep_grid(max_customers, &services, &thinks).unwrap();
        for i in 0..lanes.len() {
            let scalar = machine_repairman_sweep(max_customers, services[i], thinks[i]).unwrap();
            prop_assert_eq!(&grid[i], &scalar);
        }
    }

    /// Batched bus power curves equal per-scheme scalar sweeps for
    /// arbitrary in-domain workloads, through both the uniform-workload
    /// and per-case entry points.
    #[test]
    fn bus_curves_match_scalar_sweeps(
        workload in workloads(),
        other in workloads(),
        max_processors in 0u32..32,
    ) {
        let system = BusSystemModel::new();
        let curves = bus_power_curves(&Scheme::ALL, &workload, &system, max_processors).unwrap();
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            let scalar = analyze_bus_sweep(scheme, &workload, &system, max_processors).unwrap();
            prop_assert_eq!(&curves[i], &scalar);
        }
        // Mixed-workload lanes through the general entry point.
        let cases = [
            (Scheme::ALL[0], workload),
            (Scheme::ALL[2], other),
            (Scheme::ALL[0], other),
        ];
        let set = bus_power_curve_set(&cases, &system, max_processors).unwrap();
        for (i, (scheme, w)) in cases.iter().enumerate() {
            let scalar = analyze_bus_sweep(*scheme, w, &system, max_processors).unwrap();
            prop_assert_eq!(&set[i], &scalar);
        }
    }
}

/// Batch widths the engine must treat uniformly: empty, single-lane
/// (the scalar special case), and assorted non-power-of-two widths
/// that leave remainders for the lane-blocked stage loop.
#[test]
fn batch_widths_zero_one_and_ragged_match_scalar() {
    for width in [0usize, 1, 3, 7, 13, 29, 100] {
        let rates: Vec<f64> = (0..width).map(|i| 5.0e-4 * (i as f64 + 1.0)).collect();
        let sizes: Vec<f64> = (0..width).map(|i| 12.0 + (i % 5) as f64 * 3.0).collect();
        let batch = BatchPatelSolver::new().solve(&rates, &sizes, 8).unwrap();
        assert_eq!(batch.len(), width);
        for i in 0..width {
            let scalar = solve_with(rates[i], sizes[i], 8, SolveOptions::default()).unwrap();
            assert_eq!(
                bits(batch.points()[i].think_fraction()),
                bits(scalar.think_fraction()),
                "width {width} lane {i}"
            );
        }
    }
}

/// Convergence masking: lanes retire at different iterations, each at
/// exactly the iteration its scalar counterpart would, and retired
/// lanes never perturb the lanes still active.
#[test]
fn convergence_mask_retires_lanes_at_scalar_iteration_counts() {
    // A log-scale spread from near-idle to saturated produces a wide
    // range of convergence iterations inside one batch.
    let rates: Vec<f64> = (0..40)
        .map(|i| 0.05 * (10.0f64).powf(-6.0 + 6.0 * i as f64 / 39.0))
        .collect();
    let sizes = vec![20.0; rates.len()];
    let batch = BatchPatelSolver::new().solve(&rates, &sizes, 8).unwrap();
    let mut distinct = std::collections::BTreeSet::new();
    for i in 0..rates.len() {
        let (point, iterations) = scalar_solve(rates[i], sizes[i], 8);
        assert_eq!(
            bits(batch.points()[i].think_fraction()),
            bits(point.think_fraction()),
            "lane {i}"
        );
        assert_eq!(
            u64::from(batch.iterations()[i]),
            iterations,
            "lane {i} retired at the wrong iteration"
        );
        assert!(batch.converged()[i], "lane {i}");
        distinct.insert(batch.iterations()[i]);
    }
    assert!(
        distinct.len() >= 3,
        "lanes should retire across several distinct iterations, got {distinct:?}"
    );
    assert_eq!(
        batch.total_iterations(),
        batch
            .iterations()
            .iter()
            .map(|&i| u64::from(i))
            .sum::<u64>()
    );
}
