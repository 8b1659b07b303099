//! Parallel experiment runner.
//!
//! Experiments in the [`crate::registry`] are independent pure functions
//! of their [`RunOptions`], so a batch of them parallelizes trivially: a
//! fixed pool of scoped threads ([`std::thread::scope`] — no external
//! thread-pool dependency) pulls **chunks** of experiment indices from a
//! shared atomic counter until the batch is drained. Each worker hands
//! its whole chunk to the model layer's batch solver engine in sequence
//! ([`swcc_core::batch`] — the experiment bodies batch their grids
//! internally), so the per-claim synchronization cost is amortized over
//! the chunk; the chunk size is sized so each worker still sees several
//! claims per batch, keeping work stealing effective against one slow
//! experiment. Results come back in registry order regardless of
//! completion order, and each artifact records its own wall-clock
//! duration as a footnote.
//!
//! The `repro` binary drives this through `--jobs N`; library users call
//! [`run_selected`] or [`run_all`] directly.
//!
//! With observation enabled ([`run_selected_observed`]) each experiment
//! additionally runs inside a [`swcc_obs::capture`] span: the record
//! then carries the solver/sweep counters attributable to that one
//! experiment, plus its queue wait and the worker that ran it. The
//! `repro` binary turns these into `--metrics` output and the
//! `--record` run record. Observation never changes the artifacts —
//! only the bookkeeping around them.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use swcc_obs::{MetricsSnapshot, RegistryBuilder};

use crate::artifact::Artifact;
use crate::registry::{Experiment, RunOptions, EXPERIMENTS};

/// Span around one whole runner batch. Fields: `experiments`, `workers`,
/// `observe`.
pub const EV_RUNNER_BATCH: &str = "runner.batch";
/// Span around one experiment, opened on the worker thread and parented
/// (cross-thread) to the batch span. Fields: `id`, `worker`,
/// `queue_wait_ms`.
pub const EV_RUNNER_EXPERIMENT: &str = "runner.experiment";

/// Experiments completed by the runner (all batches).
pub const RUNNER_EXPERIMENTS: &str = "runner.experiments";
/// Worker threads used by the most recent batch.
pub const RUNNER_WORKERS: &str = "runner.workers";
/// Distribution of per-experiment run times, in milliseconds.
pub const RUNNER_RUN_MS: &str = "runner.run_ms";
/// Distribution of queue waits (batch start until a worker claimed the
/// experiment), in milliseconds.
pub const RUNNER_QUEUE_WAIT_MS: &str = "runner.queue_wait_ms";

/// Registers the runner's metrics on the builder.
#[must_use]
pub fn register_metrics(builder: RegistryBuilder) -> RegistryBuilder {
    const MS_BOUNDS: &[f64] = &[
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
        5000.0,
    ];
    builder
        .counter(RUNNER_EXPERIMENTS)
        .gauge(RUNNER_WORKERS)
        .histogram(RUNNER_RUN_MS, MS_BOUNDS)
        .histogram(RUNNER_QUEUE_WAIT_MS, MS_BOUNDS)
}

/// The outcome of one experiment run through the runner.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Stable experiment id (`"table8"`, `"fig11"`, ...).
    pub id: &'static str,
    /// Human-readable experiment title.
    pub title: &'static str,
    /// The produced artifact. The runner appends a
    /// `runner: completed in … ms` footnote, so rendered and JSON output
    /// carry the timing with them.
    pub artifact: Artifact,
    /// Wall-clock time this experiment took.
    pub duration: Duration,
    /// Time between batch start and a worker claiming this experiment.
    pub queue_wait: Duration,
    /// Zero-based index of the worker thread that ran this experiment.
    pub worker: usize,
    /// Solver/sweep metrics recorded while this experiment ran, captured
    /// per-thread via [`swcc_obs::capture`]. Empty unless the batch was
    /// run through [`run_selected_observed`] with `observe` set.
    pub metrics: MetricsSnapshot,
}

/// The machine's available parallelism, or 1 if it cannot be queried.
pub fn default_jobs() -> NonZeroUsize {
    std::thread::available_parallelism()
        .unwrap_or_else(|_| NonZeroUsize::new(1).expect("1 is non-zero"))
}

/// Runs the given experiments on a pool of `jobs` worker threads.
///
/// Results are returned in input order. Each worker repeatedly claims
/// the next unclaimed chunk of experiments (work stealing via an atomic
/// cursor; chunks shrink to single experiments for small batches), so
/// one slow experiment cannot idle the rest of the pool. With
/// `jobs = 1` the behavior is exactly sequential.
///
/// # Panics
///
/// Propagates a panic from any experiment body after the remaining
/// workers finish their current experiments.
pub fn run_selected(
    experiments: &[&'static Experiment],
    options: &RunOptions,
    jobs: NonZeroUsize,
) -> Vec<RunRecord> {
    run_selected_observed(experiments, options, jobs, false)
}

/// Like [`run_selected`], but with optional per-experiment observation.
///
/// With `observe` set, each experiment body runs inside a
/// [`swcc_obs::capture`] span so its [`RunRecord::metrics`] carries the
/// solver and sweep counters that experiment caused, and the runner
/// reports batch-level metrics ([`RUNNER_EXPERIMENTS`],
/// [`RUNNER_WORKERS`], [`RUNNER_RUN_MS`], [`RUNNER_QUEUE_WAIT_MS`])
/// through the global dispatch. With `observe` unset this is exactly
/// [`run_selected`]: no capture spans are opened and the records carry
/// empty metrics.
///
/// # Panics
///
/// As [`run_selected`].
pub fn run_selected_observed(
    experiments: &[&'static Experiment],
    options: &RunOptions,
    jobs: NonZeroUsize,
    observe: bool,
) -> Vec<RunRecord> {
    let workers = jobs.get().min(experiments.len().max(1));
    if observe {
        swcc_obs::gauge_set(RUNNER_WORKERS, workers as f64);
    }
    let tracing = swcc_obs::trace_enabled();
    let batch_span = if tracing {
        swcc_obs::span(
            EV_RUNNER_BATCH,
            &[
                swcc_obs::Field::u64("experiments", experiments.len() as u64),
                swcc_obs::Field::u64("workers", workers as u64),
                swcc_obs::Field::bool("observe", observe),
            ],
        )
    } else {
        swcc_obs::span(EV_RUNNER_BATCH, &[])
    };
    let batch_span_id = batch_span.id();
    let cursor = AtomicUsize::new(0);
    // Chunked claiming: each fetch_add hands a worker a run of
    // consecutive experiments. Aim for ~4 claims per worker so the
    // claim overhead amortizes on large fleets while small batches
    // (chunk = 1) keep today's one-at-a-time stealing granularity.
    let chunk = (experiments.len() / (workers * 4)).max(1);
    let batch_start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, RunRecord)>();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let first = cursor.fetch_add(chunk, Ordering::Relaxed);
                if first >= experiments.len() {
                    break;
                }
                let last = (first + chunk).min(experiments.len());
                for (i, exp) in experiments[first..last]
                    .iter()
                    .enumerate()
                    .map(|(j, e)| (first + j, e))
                {
                    let queue_wait = batch_start.elapsed();
                    // Worker threads have no thread-local link to the batch
                    // span, so parent explicitly across the thread boundary.
                    let exp_span = if tracing {
                        swcc_obs::span_under(
                            EV_RUNNER_EXPERIMENT,
                            batch_span_id,
                            &[
                                swcc_obs::Field::str("id", exp.id),
                                swcc_obs::Field::u64("worker", worker as u64),
                                swcc_obs::Field::f64(
                                    "queue_wait_ms",
                                    queue_wait.as_secs_f64() * 1e3,
                                ),
                            ],
                        )
                    } else {
                        swcc_obs::span_under(EV_RUNNER_EXPERIMENT, 0, &[])
                    };
                    let start = Instant::now();
                    let (mut artifact, metrics) = if observe {
                        swcc_obs::capture(|| (exp.run)(options))
                    } else {
                        ((exp.run)(options), MetricsSnapshot::default())
                    };
                    let duration = start.elapsed();
                    drop(exp_span);
                    if observe {
                        swcc_obs::counter_add(RUNNER_EXPERIMENTS, 1);
                        swcc_obs::observe(RUNNER_RUN_MS, duration.as_secs_f64() * 1e3);
                        swcc_obs::observe(RUNNER_QUEUE_WAIT_MS, queue_wait.as_secs_f64() * 1e3);
                    }
                    artifact.push_note(format!(
                        "runner: completed in {:.1} ms",
                        duration.as_secs_f64() * 1e3
                    ));
                    let record = RunRecord {
                        id: exp.id,
                        title: exp.title,
                        artifact,
                        duration,
                        queue_wait,
                        worker,
                        metrics,
                    };
                    // The receiver outlives the scope; a send cannot fail.
                    let _ = tx.send((i, record));
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<RunRecord>> = experiments.iter().map(|_| None).collect();
    for (i, record) in rx.try_iter() {
        slots[i] = Some(record);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every claimed experiment sends exactly one record"))
        .collect()
}

/// Runs every registered experiment (see [`run_selected`]).
pub fn run_all(options: &RunOptions, jobs: NonZeroUsize) -> Vec<RunRecord> {
    let all: Vec<&'static Experiment> = EXPERIMENTS.iter().collect();
    run_selected(&all, options, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    fn quick_batch() -> Vec<&'static Experiment> {
        ["table1", "table7", "table8", "fig4", "fig5", "fig6"]
            .iter()
            .map(|id| find(id).expect("registered"))
            .collect()
    }

    fn without_runner_notes(mut artifact: Artifact) -> Artifact {
        let notes = match &mut artifact {
            Artifact::Table(t) => &mut t.notes,
            Artifact::Figure(f) => &mut f.notes,
        };
        notes.retain(|n| !n.starts_with("runner:"));
        artifact
    }

    #[test]
    fn parallel_matches_sequential_and_direct() {
        let opts = RunOptions::quick();
        let batch = quick_batch();
        let jobs = NonZeroUsize::new(4).unwrap();
        let records = run_selected(&batch, &opts, jobs);
        assert_eq!(records.len(), batch.len());
        for (exp, record) in batch.iter().zip(&records) {
            assert_eq!(exp.id, record.id, "results must keep input order");
            let direct = (exp.run)(&opts);
            assert_eq!(
                without_runner_notes(record.artifact.clone()),
                direct,
                "{} must not depend on the runner",
                record.id
            );
        }
    }

    #[test]
    fn artifacts_carry_timing_notes() {
        let opts = RunOptions::quick();
        let batch = quick_batch();
        let records = run_selected(&batch, &opts, NonZeroUsize::new(2).unwrap());
        for record in &records {
            assert!(
                record.artifact.render().contains("runner: completed in"),
                "{} missing timing note",
                record.id
            );
        }
    }

    #[test]
    fn single_job_is_sequential() {
        let opts = RunOptions::quick();
        let batch = quick_batch();
        let a = run_selected(&batch, &opts, NonZeroUsize::new(1).unwrap());
        let b = run_selected(&batch, &opts, NonZeroUsize::new(3).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                without_runner_notes(x.artifact.clone()),
                without_runner_notes(y.artifact.clone()),
                "{} must be independent of job count",
                x.id
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let records = run_selected(&[], &RunOptions::quick(), NonZeroUsize::new(8).unwrap());
        assert!(records.is_empty());
    }

    #[test]
    fn unobserved_records_have_empty_metrics() {
        let batch = vec![find("fig5").unwrap()];
        let records = run_selected(&batch, &RunOptions::quick(), NonZeroUsize::new(1).unwrap());
        assert!(records[0].metrics.is_empty());
    }

    #[test]
    fn observed_run_attributes_solver_work_per_experiment() {
        let batch: Vec<_> = ["table1", "fig5", "fig11"]
            .iter()
            .map(|id| find(id).expect("registered"))
            .collect();
        let records = run_selected_observed(
            &batch,
            &RunOptions::quick(),
            NonZeroUsize::new(2).unwrap(),
            true,
        );
        let by_id = |id: &str| records.iter().find(|r| r.id == id).unwrap();
        // table1 is a static cost table: no solver work at all.
        assert_eq!(
            by_id("table1")
                .metrics
                .counter(swcc_core::metrics::SOLVER_SOLVES),
            None
        );
        // fig5 sweeps the bus model, fig11 solves the network fixed point;
        // each experiment's span sees only its own work.
        assert!(
            by_id("fig5")
                .metrics
                .counter(swcc_core::metrics::BUS_SWEEPS)
                .unwrap_or(0)
                > 0
        );
        assert_eq!(
            by_id("fig5")
                .metrics
                .counter(swcc_core::metrics::SOLVER_SOLVES),
            None
        );
        assert!(
            by_id("fig11")
                .metrics
                .counter(swcc_core::metrics::SOLVER_RESIDUAL_EVALS)
                .unwrap_or(0)
                > 0
        );
        for record in &records {
            assert!(record.worker < 2, "{}: worker {}", record.id, record.worker);
        }
    }

    #[test]
    fn observation_does_not_change_artifacts() {
        let batch = quick_batch();
        let opts = RunOptions::quick();
        let plain = run_selected(&batch, &opts, NonZeroUsize::new(2).unwrap());
        let observed = run_selected_observed(&batch, &opts, NonZeroUsize::new(2).unwrap(), true);
        for (p, o) in plain.iter().zip(&observed) {
            assert_eq!(
                without_runner_notes(p.artifact.clone()),
                without_runner_notes(o.artifact.clone()),
                "{} artifact must not depend on observation",
                p.id
            );
        }
    }

    #[test]
    fn register_metrics_covers_runner_names() {
        let registry = register_metrics(swcc_obs::RegistryBuilder::new()).build();
        assert_eq!(registry.counter_value(RUNNER_EXPERIMENTS), Some(0));
        assert!(registry.histogram(RUNNER_RUN_MS).is_some());
        assert!(registry.histogram(RUNNER_QUEUE_WAIT_MS).is_some());
        assert_eq!(registry.gauge_value(RUNNER_WORKERS), Some(0.0));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs().get() >= 1);
    }
}
