//! The experiment registry: every paper table and figure by id.
//!
//! `cargo run -p swcc-experiments --bin repro -- <id>` looks experiments
//! up here, and the runner runs them. Each run yields an
//! [`Output`]: the artifact, and for the experiments that compare the
//! model with a simulation, the comparison the run record keeps.

use std::fmt;

use crate::artifact::{Artifact, Figure, Table};
use crate::validation::{CurveRun, ValidationOptions};
use crate::{extensions, figures, tables, validation};

/// How much work simulation-backed experiments should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Options for trace generation in the validation experiments.
    pub validation: ValidationOptions,
    /// Processor count for the sensitivity table (Table 8).
    pub sensitivity_processors: u32,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            validation: ValidationOptions::default(),
            sensitivity_processors: 16,
        }
    }
}

impl RunOptions {
    /// A reduced-work profile for smoke tests and benchmarks.
    pub fn quick() -> Self {
        RunOptions {
            validation: ValidationOptions {
                instructions_per_cpu: 15_000,
                seed: ValidationOptions::default().seed,
            },
            sensitivity_processors: 16,
        }
    }
}

/// What one experiment run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The table or figure.
    pub artifact: Artifact,
    /// The model-vs-simulation comparison behind it, for the run record.
    pub(crate) comparison: Comparison,
}

/// A model-vs-simulation comparison, as the run record keeps it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Comparison {
    /// The experiment compares nothing.
    None,
    /// Figures 1–3: the run of each curve of the validation matrix that
    /// the figure plots. The record keeps one row per point.
    Curves(Vec<CurveRun>),
    /// Another model-vs-simulation figure (`ext_netsim`): the worst
    /// [`validation::rel_error`] over its points.
    Worst(f64),
}

impl From<Table> for Output {
    fn from(table: Table) -> Output {
        Output {
            artifact: Artifact::Table(table),
            comparison: Comparison::None,
        }
    }
}

impl From<Figure> for Output {
    fn from(figure: Figure) -> Output {
        Output {
            artifact: Artifact::Figure(figure),
            comparison: Comparison::None,
        }
    }
}

/// One reproducible experiment.
pub struct Experiment {
    /// Stable id (`"table8"`, `"fig11"`, ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Runs the experiment.
    pub run: fn(&RunOptions) -> Output,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

macro_rules! experiments {
    ($($id:literal, $title:literal => $body:expr;)+) => {
        &[$(Experiment { id: $id, title: $title, run: $body }),+]
    };
}

/// All experiments, in paper order.
pub static EXPERIMENTS: &[Experiment] = experiments! {
    "table1", "System model: bus operation costs" =>
        |_| tables::table1().into();
    "table2", "Workload model parameters" =>
        |_| tables::table2().into();
    "table3", "Operation frequencies: Base" =>
        |_| tables::table3().into();
    "table4", "Operation frequencies: No-Cache" =>
        |_| tables::table4().into();
    "table5", "Operation frequencies: Software-Flush" =>
        |_| tables::table5().into();
    "table6", "Operation frequencies: Dragon" =>
        |_| tables::table6().into();
    "table7", "Parameter ranges" =>
        |_| tables::table7().into();
    "table8", "Sensitivity analysis" =>
        |o| tables::table8(o.sensitivity_processors).into();
    "table9", "System model: network operation costs" =>
        |_| tables::table9(8).into();
    "fig1", "Model vs simulation: Base and Dragon, 64KB caches" =>
        |o| validation::fig1(&o.validation);
    "fig2", "Cache-size impact on Dragon, <=4 processors" =>
        |o| validation::fig2(&o.validation);
    "fig3", "Cache-size impact on Dragon, <=8 processors" =>
        |o| validation::fig3(&o.validation);
    "fig4", "Schemes on a bus: low shd and ls" =>
        |_| figures::fig4().into();
    "fig5", "Schemes on a bus: medium shd and ls" =>
        |_| figures::fig5().into();
    "fig6", "Schemes on a bus: high shd and ls" =>
        |_| figures::fig6().into();
    "fig7", "Effect of varying apl" =>
        |_| figures::fig7().into();
    "fig8", "Effect of apl with low sharing" =>
        |_| figures::fig8().into();
    "fig9", "Effect of apl with medium sharing" =>
        |_| figures::fig9().into();
    "fig10", "Buses versus networks in the small scale" =>
        |_| figures::fig10().into();
    "fig11", "Network utilization vs request rate, 256 processors" =>
        |_| figures::fig11().into();
    "ext_packet", "Extension: packet vs circuit switching" =>
        |_| extensions::packet_vs_circuit().into();
    "ext_directory", "Extension: directory hardware vs software schemes" =>
        |_| extensions::directory_vs_software().into();
    "ext_netsim", "Extension: Patel model vs network simulation" =>
        |o| extensions::patel_vs_simulation(
            o.validation.instructions_per_cpu as u64 / 4,
            o.validation.seed,
        );
    "ext_service", "Extension: bus service-time discipline vs model contention" =>
        |o| extensions::service_discipline(
            o.validation.instructions_per_cpu,
            o.validation.seed,
        ).into();
    "ext_invalidate", "Extension: write-update vs write-invalidate snoopy hardware" =>
        |_| extensions::update_vs_invalidate().into();
    "ext_tracenet", "Extension: trace-driven network simulation vs model" =>
        |o| extensions::trace_driven_network(
            o.validation.instructions_per_cpu,
            o.validation.seed,
        ).into();
};

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        for n in 1..=9 {
            assert!(ids.contains(&format!("table{n}").as_str()), "table{n}");
        }
        for n in 1..=11 {
            assert!(ids.contains(&format!("fig{n}").as_str()), "fig{n}");
        }
        for ext in [
            "ext_packet",
            "ext_directory",
            "ext_netsim",
            "ext_service",
            "ext_invalidate",
            "ext_tracenet",
        ] {
            assert!(ids.contains(&ext), "{ext}");
        }
        assert_eq!(ids.len(), 26);
    }

    #[test]
    fn find_locates_experiments() {
        assert!(find("fig11").is_some());
        assert!(find("table8").is_some());
        assert!(find("fig99").is_none());
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn model_only_experiments_run_quickly() {
        let opts = RunOptions::quick();
        for e in EXPERIMENTS {
            if e.id.starts_with("table") || matches!(e.id, "fig4" | "fig5" | "fig6") {
                let artifact = (e.run)(&opts).artifact;
                assert!(!artifact.render().is_empty(), "{}", e.id);
            }
        }
    }
}
