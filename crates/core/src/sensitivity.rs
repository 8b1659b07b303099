//! Sensitivity analysis (paper §4, Table 8).
//!
//! The significance of each workload parameter is assessed from the
//! change in execution time when that parameter is varied from its low to
//! its high Table 7 value with all other parameters held at their middle
//! values. Execution time per instruction is `c + w` on a bus of a given
//! size (the paper does not state the processor count; 16 — its largest
//! plotted bus — is the default, and the experiment harness exposes it).
//!
//! Interpretation caveats from the paper apply here too: the chosen
//! ranges determine how important a parameter *appears*; a wide range may
//! reflect genuine variation (`shd`) or ignorance (`apl`).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::batch::machine_repairman_grid;
use crate::demand::{scheme_demand, Demand};
use crate::error::Result;
use crate::scheme::Scheme;
use crate::system::BusSystemModel;
use crate::workload::{Level, ParamId, WorkloadParams, TABLE7_RANGES};

/// One cell of Table 8: the impact of one parameter on one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityCell {
    /// The varied parameter.
    pub param: ParamId,
    /// The scheme measured.
    pub scheme: Scheme,
    /// Execution time (cycles per instruction, `c + w`) at the low value.
    pub time_low: f64,
    /// Execution time at the high value.
    pub time_high: f64,
}

impl SensitivityCell {
    /// Percent change in execution time from low to high,
    /// `(T_high − T_low) / T_low × 100`.
    pub fn percent_change(&self) -> f64 {
        (self.time_high - self.time_low) / self.time_low * 100.0
    }
}

impl fmt::Display for SensitivityCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {}: {:+.1}%",
            self.param,
            self.scheme,
            self.percent_change()
        )
    }
}

/// The full sensitivity table: every parameter × every scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityTable {
    processors: u32,
    cells: Vec<SensitivityCell>,
}

impl SensitivityTable {
    /// The processor count the analysis was run at.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// All cells, parameter-major in Table 2 order.
    pub fn cells(&self) -> &[SensitivityCell] {
        &self.cells
    }

    /// The cell for one parameter/scheme pair.
    pub fn cell(&self, param: ParamId, scheme: Scheme) -> Option<&SensitivityCell> {
        self.cells
            .iter()
            .find(|c| c.param == param && c.scheme == scheme)
    }

    /// Parameters ranked by absolute impact on `scheme`, most significant
    /// first.
    pub fn ranking(&self, scheme: Scheme) -> Vec<(ParamId, f64)> {
        let mut v: Vec<_> = self
            .cells
            .iter()
            .filter(|c| c.scheme == scheme)
            .map(|c| (c.param, c.percent_change()))
            .collect();
        v.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        v
    }
}

/// Runs the one-at-a-time sensitivity analysis on a bus of `processors`
/// CPUs with the Table 1 system model.
///
/// # Errors
///
/// Propagates [`crate::ModelError::InvalidConfig`] if `processors == 0`.
///
/// # Examples
///
/// ```
/// use swcc_core::scheme::Scheme;
/// use swcc_core::sensitivity::sensitivity_table;
/// use swcc_core::workload::ParamId;
///
/// # fn main() -> Result<(), swcc_core::ModelError> {
/// let table = sensitivity_table(16)?;
/// // The paper's headline: apl dominates Software-Flush.
/// let (most_significant, _) = table.ranking(Scheme::SoftwareFlush)[0];
/// assert_eq!(most_significant, ParamId::Apl);
/// # Ok(())
/// # }
/// ```
pub fn sensitivity_table(processors: u32) -> Result<SensitivityTable> {
    sensitivity_table_at(processors, &WorkloadParams::at_level(Level::Middle))
}

/// Like [`sensitivity_table`] but holds the non-varied parameters at an
/// arbitrary operating point instead of the Table 7 middle values.
///
/// The table's 88 bus demands (11 parameters × 4 schemes × low and high)
/// are solved by one [`machine_repairman_grid`] call, one lane per
/// demand. Grid lanes are bit-identical to scalar solves, so every cell
/// equals the [`crate::bus::analyze_bus`] time at its workload.
///
/// # Errors
///
/// Propagates [`crate::ModelError::InvalidConfig`] if `processors == 0`.
pub fn sensitivity_table_at(
    processors: u32,
    operating_point: &WorkloadParams,
) -> Result<SensitivityTable> {
    let system = BusSystemModel::new();
    let cell_count = ParamId::ALL.len() * Scheme::ALL.len();
    let mut pairs = Vec::with_capacity(cell_count);
    let mut demands = Vec::with_capacity(2 * cell_count);
    for param in ParamId::ALL {
        let range = TABLE7_RANGES.range(param);
        let low = operating_point
            .with_param(param, range.low)
            .expect("Table 7 low values are in-domain");
        let high = operating_point
            .with_param(param, range.high)
            .expect("Table 7 high values are in-domain");
        for scheme in Scheme::ALL {
            pairs.push((param, scheme));
            demands.push(scheme_demand(scheme, &low, &system)?);
            demands.push(scheme_demand(scheme, &high, &system)?);
        }
    }
    let services: Vec<f64> = demands.iter().map(Demand::interconnect).collect();
    let thinks: Vec<f64> = demands.iter().map(Demand::think_time).collect();
    let grid = machine_repairman_grid(processors, &services, &thinks)?;
    let time = |i: usize| demands[i].cpu() + grid[i].waiting();
    let cells = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (param, scheme))| SensitivityCell {
            param,
            scheme,
            time_low: time(2 * i),
            time_high: time(2 * i + 1),
        })
        .collect();
    Ok(SensitivityTable { processors, cells })
}

/// The paper's §4 caveat operationalized: each parameter's effect is
/// "estimated at high, low and middle values of miss rate", so a
/// parameter's apparent significance depends on where the others sit.
/// This variant averages every cell's percent change over the three
/// `msdat` levels.
///
/// # Errors
///
/// Propagates [`crate::ModelError::InvalidConfig`] if `processors == 0`.
pub fn sensitivity_table_averaged(processors: u32) -> Result<SensitivityTable> {
    let mut tables = Vec::new();
    for level in Level::ALL {
        let op = WorkloadParams::default()
            .with_param(ParamId::Msdat, TABLE7_RANGES.value(ParamId::Msdat, level))
            .expect("Table 7 values are in-domain");
        tables.push(sensitivity_table_at(processors, &op)?);
    }
    // Average the percent changes by averaging times (same denominator
    // structure: keep the low/high times averaged across tables).
    let mut cells = Vec::with_capacity(tables[0].cells.len());
    for i in 0..tables[0].cells.len() {
        let proto = tables[0].cells[i];
        let n = tables.len() as f64;
        cells.push(SensitivityCell {
            param: proto.param,
            scheme: proto.scheme,
            time_low: tables.iter().map(|t| t.cells[i].time_low).sum::<f64>() / n,
            time_high: tables.iter().map(|t| t.cells[i].time_high).sum::<f64>() / n,
        });
    }
    Ok(SensitivityTable { processors, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SensitivityTable {
        sensitivity_table(16).unwrap()
    }

    #[test]
    fn covers_every_parameter_scheme_pair() {
        let t = table();
        assert_eq!(t.cells().len(), 44);
        for p in ParamId::ALL {
            for s in Scheme::ALL {
                assert!(t.cell(p, s).is_some(), "{p}/{s}");
            }
        }
    }

    #[test]
    fn apl_dominates_software_flush() {
        // §4: "For the Software-Flush scheme, apl has a huge effect."
        let t = table();
        let ranking = t.ranking(Scheme::SoftwareFlush);
        assert_eq!(ranking[0].0, ParamId::Apl, "ranking: {ranking:?}");
    }

    #[test]
    fn shd_is_nearly_as_important_for_software_flush() {
        // §4: "The impact of shd is almost as great, and ls is
        // significant as well."
        let t = table();
        let ranking = t.ranking(Scheme::SoftwareFlush);
        let top3: Vec<_> = ranking.iter().take(3).map(|&(p, _)| p).collect();
        assert!(top3.contains(&ParamId::Shd));
        assert!(top3.contains(&ParamId::Ls));
    }

    #[test]
    fn shd_and_ls_dominate_no_cache() {
        let t = table();
        let ranking = t.ranking(Scheme::NoCache);
        let top2: Vec<_> = ranking.iter().take(2).map(|&(p, _)| p).collect();
        assert!(top2.contains(&ParamId::Shd), "ranking {ranking:?}");
        assert!(top2.contains(&ParamId::Ls), "ranking {ranking:?}");
    }

    #[test]
    fn apl_is_irrelevant_to_all_but_software_flush() {
        let t = table();
        for s in [Scheme::Base, Scheme::NoCache, Scheme::Dragon] {
            let c = t.cell(ParamId::Apl, s).unwrap();
            assert!(c.percent_change().abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn wr_is_unimportant_in_uncontended_execution_time() {
        // §4: "wr was unimportant even with a wide range." The paper's
        // execution-time metric is per-instruction; without bus
        // saturation amplifying the b term (n = 1), wr moves every
        // scheme by well under 10%.
        let t = sensitivity_table(1).unwrap();
        for s in Scheme::ALL {
            let c = t.cell(ParamId::Wr, s).unwrap();
            assert!(
                c.percent_change().abs() < 10.0,
                "{s}: {}",
                c.percent_change()
            );
        }
    }

    #[test]
    fn wr_ranks_among_least_important_even_under_contention() {
        // Under a contended 16-processor bus the absolute numbers grow
        // (for No-Cache, wr shifts 4-bus-cycle read-throughs to
        // 1-bus-cycle write-throughs, which matters when the bus is the
        // bottleneck), but wr is never the dominant parameter.
        let t = table();
        for s in Scheme::ALL {
            let rank = t
                .ranking(s)
                .iter()
                .position(|&(p, _)| p == ParamId::Wr)
                .unwrap();
            assert!(rank >= 2, "{s}: wr ranked {rank}");
        }
    }

    #[test]
    fn dragon_cares_more_about_miss_rate_than_sharing() {
        // §4: "In the Dragon scheme, the overall hit rate is more
        // important than the level of sharing."
        let t = table();
        let miss = t
            .cell(ParamId::Msdat, Scheme::Dragon)
            .unwrap()
            .percent_change();
        let shd = t
            .cell(ParamId::Shd, Scheme::Dragon)
            .unwrap()
            .percent_change();
        assert!(miss.abs() > shd.abs(), "msdat {miss:.1}% vs shd {shd:.1}%");
    }

    #[test]
    fn software_schemes_are_more_sensitive_than_dragon() {
        // The paper's headline: software schemes' performance varies far
        // more with shd than Dragon's.
        let t = table();
        let d = t
            .cell(ParamId::Shd, Scheme::Dragon)
            .unwrap()
            .percent_change();
        let n = t
            .cell(ParamId::Shd, Scheme::NoCache)
            .unwrap()
            .percent_change();
        let s = t
            .cell(ParamId::Shd, Scheme::SoftwareFlush)
            .unwrap()
            .percent_change();
        assert!(n > 3.0 * d.abs());
        assert!(s > 3.0 * d.abs());
    }

    #[test]
    fn base_ignores_sharing_parameters() {
        let t = table();
        for p in [
            ParamId::Shd,
            ParamId::Wr,
            ParamId::Mdshd,
            ParamId::Oclean,
            ParamId::Opres,
            ParamId::Nshd,
        ] {
            let c = t.cell(p, Scheme::Base).unwrap();
            assert!(c.percent_change().abs() < 1e-9, "{p}");
        }
    }

    #[test]
    fn execution_times_are_positive_and_high_exceeds_low_for_stressors() {
        let t = table();
        for c in t.cells() {
            assert!(c.time_low >= 1.0 && c.time_high >= 1.0);
        }
        // apl: low value is the LONG run (25), so time_low < time_high
        // (stress increases from low level to high level).
        let apl = t.cell(ParamId::Apl, Scheme::SoftwareFlush).unwrap();
        assert!(apl.time_high > apl.time_low);
    }

    #[test]
    fn averaged_table_preserves_the_headline_ordering() {
        // Averaging over miss-rate levels shifts magnitudes but not the
        // paper's conclusions: apl still dominates Software-Flush and
        // Base still ignores sharing parameters.
        let t = sensitivity_table_averaged(16).unwrap();
        assert_eq!(t.cells().len(), 44);
        assert_eq!(t.ranking(Scheme::SoftwareFlush)[0].0, ParamId::Apl);
        for p in [ParamId::Shd, ParamId::Apl, ParamId::Nshd] {
            assert!(t.cell(p, Scheme::Base).unwrap().percent_change().abs() < 1e-9);
        }
    }

    #[test]
    fn operating_point_changes_apparent_significance() {
        // The §4 caveat itself: at the high miss rate, miss-rate-linked
        // parameters look more significant than at the low one.
        let low_op = WorkloadParams::default()
            .with_param(ParamId::Msdat, 0.004)
            .unwrap();
        let high_op = WorkloadParams::default()
            .with_param(ParamId::Msdat, 0.024)
            .unwrap();
        let at_low = sensitivity_table_at(16, &low_op).unwrap();
        let at_high = sensitivity_table_at(16, &high_op).unwrap();
        let md_low = at_low
            .cell(ParamId::Md, Scheme::Base)
            .unwrap()
            .percent_change();
        let md_high = at_high
            .cell(ParamId::Md, Scheme::Base)
            .unwrap()
            .percent_change();
        assert!(
            md_high > md_low,
            "md matters more when misses are frequent: {md_low:.2}% vs {md_high:.2}%"
        );
    }

    #[test]
    fn wide_range_mdshd_has_small_but_noticeable_effect_on_software_flush() {
        // §4: "When allowed to vary over a wider range, mdshd had a
        // small but noticeable effect on the Software-Flush scheme; but
        // wr was unimportant even with a wide range."
        use crate::bus::analyze_bus;
        let sys = BusSystemModel::new();
        let time = |id: ParamId, v: f64| {
            let w = WorkloadParams::default().with_param(id, v).unwrap();
            analyze_bus(Scheme::SoftwareFlush, &w, &sys, 16)
                .unwrap()
                .cycles_per_instruction()
        };
        let mdshd_effect = (time(ParamId::Mdshd, 1.0) - time(ParamId::Mdshd, 0.0))
            / time(ParamId::Mdshd, 0.0)
            * 100.0;
        assert!(
            (2.0..35.0).contains(&mdshd_effect),
            "mdshd 0→1 effect should be small but noticeable, got {mdshd_effect:.1}%"
        );
        let wr_effect =
            (time(ParamId::Wr, 1.0) - time(ParamId::Wr, 0.0)) / time(ParamId::Wr, 0.0) * 100.0;
        assert!(
            wr_effect.abs() < mdshd_effect.abs(),
            "wr ({wr_effect:.1}%) must matter less than mdshd ({mdshd_effect:.1}%) for SF"
        );
    }

    /// The operating points the bitwise checks cover: the Table 7
    /// middle values, and the low- and high-`msdat` points of
    /// `operating_point_changes_apparent_significance`.
    fn operating_points() -> [WorkloadParams; 3] {
        let middle = WorkloadParams::default();
        [
            middle,
            middle.with_param(ParamId::Msdat, 0.004).unwrap(),
            middle.with_param(ParamId::Msdat, 0.024).unwrap(),
        ]
    }

    /// Direct `analyze_bus` execution times of one cell's low and high
    /// variation at `op`.
    fn direct_times(cell: &SensitivityCell, op: &WorkloadParams, processors: u32) -> (f64, f64) {
        use crate::bus::analyze_bus;
        let sys = BusSystemModel::new();
        let range = TABLE7_RANGES.range(cell.param);
        let time = |value: f64| {
            let w = op.with_param(cell.param, value).unwrap();
            analyze_bus(cell.scheme, &w, &sys, processors)
                .unwrap()
                .cycles_per_instruction()
        };
        (time(range.low), time(range.high))
    }

    #[test]
    fn table_cells_match_direct_analyze_bus() {
        // One grid over every cell must give each cell, bitwise, what a
        // fresh analyze_bus call computes.
        for op in operating_points() {
            for n in [1, 16] {
                let t = sensitivity_table_at(n, &op).unwrap();
                for c in t.cells() {
                    let (low, high) = direct_times(c, &op, n);
                    let at = format!("{}/{} at n={n}, msdat={}", c.param, c.scheme, op.msdat());
                    assert_eq!(c.time_low.to_bits(), low.to_bits(), "{at} low");
                    assert_eq!(c.time_high.to_bits(), high.to_bits(), "{at} high");
                }
            }
        }
    }

    #[test]
    fn averaged_table_is_the_mean_of_direct_analyze_bus_times() {
        let levels: Vec<WorkloadParams> = Level::ALL
            .iter()
            .map(|&level| {
                WorkloadParams::default()
                    .with_param(ParamId::Msdat, TABLE7_RANGES.value(ParamId::Msdat, level))
                    .unwrap()
            })
            .collect();
        for n in [1, 16] {
            let t = sensitivity_table_averaged(n).unwrap();
            assert_eq!(t.cells().len(), 44);
            for c in t.cells() {
                let times: Vec<(f64, f64)> =
                    levels.iter().map(|op| direct_times(c, op, n)).collect();
                let low = times.iter().map(|t| t.0).sum::<f64>() / 3.0;
                let high = times.iter().map(|t| t.1).sum::<f64>() / 3.0;
                let at = format!("{}/{} at n={n}", c.param, c.scheme);
                assert_eq!(c.time_low.to_bits(), low.to_bits(), "{at} low");
                assert_eq!(c.time_high.to_bits(), high.to_bits(), "{at} high");
            }
        }
    }

    #[test]
    fn table_is_solved_as_one_batch_grid() {
        // Every cell's low and high demand is one lane of a single
        // lockstep grid call; nothing is deduped and nothing is solved
        // by the scalar MVA.
        use crate::metrics;
        let ((), span) = swcc_obs::capture(|| {
            sensitivity_table(16).unwrap();
        });
        assert_eq!(span.counter(metrics::BATCH_MVA_GRIDS), Some(1));
        assert_eq!(span.counter(metrics::BATCH_MVA_GRID_LANES), Some(88));
        assert_eq!(
            span.counter(metrics::MVA_SOLVES),
            Some(88),
            "only the batch grid may solve"
        );
    }

    #[test]
    fn ranking_is_sorted_by_magnitude() {
        let t = table();
        for s in Scheme::ALL {
            let r = t.ranking(s);
            for pair in r.windows(2) {
                assert!(pair[0].1.abs() >= pair[1].1.abs());
            }
        }
    }
}
