//! End-to-end tests of the `repro` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use swcc_experiments::history;
use swcc_experiments::trace_report;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A per-test scratch path for record/trace/baseline files, cleaned
/// up on drop.
struct TempManifest(PathBuf);

impl TempManifest {
    fn new(tag: &str) -> Self {
        TempManifest(
            std::env::temp_dir().join(format!("swcc-repro-{}-{tag}.json", std::process::id())),
        )
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is valid UTF-8")
    }
}

impl Drop for TempManifest {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Strips the runner's nondeterministic `runner: completed in … ms`
/// footnotes from an artifact JSON tree so two runs can be compared.
fn strip_runner_notes(value: &mut serde_json::Value) {
    match value {
        serde_json::Value::Array(items) => {
            items.iter_mut().for_each(strip_runner_notes);
        }
        serde_json::Value::Object(entries) => {
            for (key, entry) in entries.iter_mut() {
                if key == "notes" {
                    if let serde_json::Value::Array(notes) = entry {
                        notes.retain(|n| match n {
                            serde_json::Value::Str(s) => !s.starts_with("runner:"),
                            _ => true,
                        });
                    }
                }
                strip_runner_notes(entry);
            }
        }
        _ => {}
    }
}

#[test]
fn list_names_every_registered_experiment() {
    let out = repro().arg("list").output().expect("spawn repro list");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for e in swcc_experiments::EXPERIMENTS {
        assert!(stdout.contains(e.id), "missing {}", e.id);
    }
}

#[test]
fn single_table_renders() {
    let out = repro().args(["table7"]).output().expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 7"));
    assert!(stdout.contains("1/apl"));
}

#[test]
fn model_figures_render_with_plot_and_data() {
    let out = repro()
        .args(["fig5", "--quick"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("legend:"));
    assert!(stdout.contains("series: Dragon"));
}

#[test]
fn json_output_parses_and_carries_ids() {
    let out = repro()
        .args(["table1", "fig7", "--json"])
        .output()
        .expect("spawn repro --json");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON artifact array");
    let arr = parsed.as_array().expect("array of [id, artifact]");
    assert_eq!(arr.len(), 2);
    assert_eq!(arr[0][0], "table1");
    assert_eq!(arr[1][0], "fig7");
    assert!(arr[1][1]["Figure"]["series"].is_array());
}

#[test]
fn parallel_jobs_preserve_request_order_and_record_timings() {
    let out = repro()
        .args(["table1", "fig4", "fig5", "fig6", "--quick", "--jobs", "4"])
        .output()
        .expect("spawn repro --jobs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let positions: Vec<usize> = ["=== table1", "=== fig4", "=== fig5", "=== fig6"]
        .iter()
        .map(|h| stdout.find(h).unwrap_or_else(|| panic!("missing {h}")))
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "output must follow request order regardless of completion order"
    );
    assert!(
        stdout.matches("runner: completed in").count() >= 4,
        "each artifact must carry its wall-clock duration"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("4 experiment(s) with 4 job(s)"));
}

#[test]
fn jobs_zero_uses_available_parallelism() {
    let out = repro()
        .args(["table1", "table7", "--jobs=0"])
        .output()
        .expect("spawn repro --jobs=0");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("with 0 job(s)"),
        "--jobs 0 must resolve to a positive worker count: {stderr}"
    );
}

#[test]
fn all_flag_json_covers_registry() {
    let out = repro()
        .args(["--all", "--quick", "--jobs", "0", "--json"])
        .output()
        .expect("spawn repro --all");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON artifact array");
    let arr = parsed.as_array().expect("array of [id, artifact]");
    assert_eq!(arr.len(), swcc_experiments::EXPERIMENTS.len());
    for (i, e) in swcc_experiments::EXPERIMENTS.iter().enumerate() {
        assert_eq!(arr[i][0], e.id, "JSON order must match registry order");
    }
}

#[test]
fn bad_jobs_value_fails_with_usage() {
    let out = repro()
        .args(["table1", "--jobs", "many"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn unknown_id_fails_with_usage() {
    let out = repro().args(["fig99"]).output().expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment id"));
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = repro().output().expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

// --- CLI argument-handling regressions ---------------------------------

#[test]
fn all_mixed_with_ids_is_rejected() {
    // Regression: `repro all fig1` used to silently run the full
    // registry, dropping the named ids.
    for argv in [&["all", "fig1"][..], &["--all", "fig1"], &["fig1", "all"]] {
        let out = repro().args(argv).output().expect("spawn repro");
        assert!(!out.status.success(), "{argv:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot combine 'all' with explicit experiment ids"),
            "{argv:?}: {stderr}"
        );
    }
}

#[test]
fn repeated_jobs_flag_takes_last_value() {
    // Regression: a second `--jobs N` used to survive flag stripping and
    // be parsed as an experiment id ("unknown experiment id: --jobs").
    let out = repro()
        .args(["table1", "--jobs", "4", "--jobs", "1"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("with 1 job(s)"),
        "last --jobs wins: {stderr}"
    );
    let out = repro()
        .args(["table1", "--jobs=4", "--jobs", "2"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "mixed --jobs forms must both be consumed"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("with 2 job(s)"));
}

#[test]
fn repeated_boolean_flags_are_consumed() {
    let out = repro()
        .args(["--quick", "table1", "--quick"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "a repeated --quick must not become an experiment id: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn duplicate_ids_run_once() {
    // Regression: `repro fig1 fig1` used to run the experiment twice.
    let out = repro()
        .args(["table1", "table1", "table7", "table1"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("=== table1").count(), 1);
    assert_eq!(stdout.matches("=== table7").count(), 1);
    assert!(
        stdout.find("=== table1").unwrap() < stdout.find("=== table7").unwrap(),
        "dedup must preserve first-seen order"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("ignoring duplicate experiment id"));
}

#[test]
fn list_rejects_options_and_arguments() {
    // Regression: `repro list --jobs 2 --quick` used to silently discard
    // the options and print the listing anyway.
    for argv in [
        &["list", "--jobs", "2", "--quick"][..],
        &["list", "--json"],
        &["list", "extra"],
    ] {
        let out = repro().args(argv).output().expect("spawn repro");
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("list takes no options or arguments"),
            "{argv:?}"
        );
    }
}

#[test]
fn unknown_options_are_rejected() {
    let out = repro()
        .args(["table1", "--frobnicate"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option: --frobnicate"));
}

// --- Observability: --metrics and --record -----------------------------

#[test]
fn metrics_flag_reports_solver_counters() {
    let out = repro()
        .args(["fig11", "--quick", "--metrics"])
        .output()
        .expect("spawn repro --metrics");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("metrics:"), "{stderr}");
    assert!(
        stderr.contains("core.solver.residual_evals"),
        "network figure must report solver work: {stderr}"
    );
    assert!(stderr.contains("runner.experiments"));
}

#[test]
fn recorded_line_is_read_by_history_report_and_check_record() {
    let log = TempManifest::new("partial-record");
    let out = repro()
        .args([
            "table1",
            "fig11",
            "--quick",
            "--jobs",
            "2",
            "--record",
            log.path(),
        ])
        .output()
        .expect("spawn repro --record");
    assert!(out.status.success());
    let text = std::fs::read_to_string(log.path()).expect("record written");
    assert_eq!(text.lines().count(), 1, "one run appends one line");
    let records = history::load_history(Path::new(log.path())).expect("record parses");
    let record = &records[0];
    assert_eq!(record.schema, swcc_experiments::RUN_SCHEMA);
    assert!(record.quick);
    assert_eq!(record.jobs, 2);
    assert_eq!(record.experiments.len(), 2);
    assert!(record.wall_ms > 0.0);
    let fig11 = record.experiment("fig11").expect("fig11");
    assert!(fig11.duration_ms >= 0.0);
    let evals = fig11
        .counters
        .iter()
        .find(|c| c.name == "core.solver.residual_evals")
        .map_or(0, |c| c.value);
    assert!(evals > 0, "fig11 must attribute solver work, got {evals}");
    assert!(record.experiment("table1").unwrap().counters.is_empty());
    // The run's totals cover at least the per-experiment sums.
    assert!(record.counter("core.solver.residual_evals") >= evals);

    // `history` and `report --html` read the line.
    let out = repro()
        .args(["history", "--record", log.path()])
        .output()
        .expect("spawn repro history");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run history: showing 1 of 1"), "{stdout}");
    let html = TempManifest::new("partial-record-html");
    let out = repro()
        .args(["report", "--html", html.path(), "--record", log.path()])
        .output()
        .expect("spawn repro report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(html.path())
        .expect("dashboard written")
        .contains("Run history"));

    // check-record: parses, but flags missing registry coverage.
    let check = repro()
        .args(["check-record", "--record", log.path()])
        .output()
        .expect("spawn check-record");
    assert!(!check.status.success(), "a partial run must fail coverage");
    assert!(String::from_utf8_lossy(&check.stderr).contains("missing:"));
}

#[test]
fn check_record_rejects_garbage_and_retired_schemas() {
    let tmp = TempManifest::new("garbage");
    std::fs::write(tmp.path(), "{\"schema\": \"other/v9\"}\n").unwrap();
    let out = repro()
        .args(["check-record", "--record", tmp.path()])
        .output()
        .expect("spawn check-record");
    assert!(!out.status.success());
    let missing = repro()
        .args(["check-record", "--record", "/nonexistent/runs.jsonl"])
        .output()
        .expect("spawn check-record");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("no run records"));

    // The formats this record replaced, its own first version included,
    // are not read at all: every reader of the log names the one schema.
    let mut line: serde_json::Value =
        serde_json::from_str(&recorded_run().to_jsonl()).expect("record is JSON");
    for retired in ["swcc-run/v1", "swcc-run-manifest/v2", "swcc-run-history/v1"] {
        if let serde_json::Value::Object(entries) = &mut line {
            for (key, value) in entries.iter_mut() {
                if key == "schema" {
                    *value = serde_json::Value::Str(retired.to_string());
                }
            }
        }
        std::fs::write(tmp.path(), serde_json::to_string(&line).unwrap() + "\n").unwrap();
        let html = TempManifest::new("retired-html");
        for argv in [
            &["check-record", "--record", tmp.path()][..],
            &["history", "--record", tmp.path()],
            &["report", "--html", html.path(), "--record", tmp.path()],
        ] {
            let out = repro().args(argv).output().expect("spawn repro");
            assert!(!out.status.success(), "{argv:?} must reject {retired}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(retired), "{argv:?}: {stderr}");
            assert!(
                stderr.contains(swcc_experiments::RUN_SCHEMA),
                "{argv:?}: {stderr}"
            );
        }
    }
}

#[test]
fn observation_does_not_change_artifacts_and_record_covers_registry() {
    // The acceptance bar for the observability layer: a full observed
    // run produces byte-identical artifacts (modulo nondeterministic
    // runner timing notes) and a record covering the whole registry.
    let log = TempManifest::new("all");
    let plain = repro()
        .args(["--all", "--quick", "--jobs", "0", "--json"])
        .output()
        .expect("spawn plain run");
    assert!(plain.status.success());
    let observed = repro()
        .args([
            "--all",
            "--quick",
            "--jobs",
            "0",
            "--json",
            "--metrics",
            "--record",
            log.path(),
        ])
        .output()
        .expect("spawn observed run");
    assert!(observed.status.success());

    let mut plain_json: serde_json::Value =
        serde_json::from_slice(&plain.stdout).expect("plain JSON");
    let mut observed_json: serde_json::Value =
        serde_json::from_slice(&observed.stdout).expect("observed JSON");
    strip_runner_notes(&mut plain_json);
    strip_runner_notes(&mut observed_json);
    assert_eq!(
        plain_json, observed_json,
        "metrics/record must not change artifact output"
    );

    let records = history::load_history(Path::new(log.path())).expect("record parses");
    let record = records.last().expect("record written");
    assert!(
        record.missing_experiments().is_empty(),
        "an --all record must cover the registry"
    );
    assert_eq!(
        record.experiments.len(),
        swcc_experiments::EXPERIMENTS.len()
    );
    assert_eq!(
        record
            .accuracy
            .iter()
            .map(|a| a.figure.as_str())
            .collect::<Vec<_>>(),
        ["ext_netsim", "fig1", "fig2", "fig3"],
        "every model-vs-simulation figure carries its accuracy"
    );
    assert!(record.sim_accesses_per_second().unwrap_or(0.0) > 0.0);
    assert_eq!(record.validation.rows.len(), 44, "the whole matrix");
    assert!(record.validation.accesses() > 0);
    let check = repro()
        .args(["check-record", "--record", log.path()])
        .output()
        .expect("spawn check-record");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stderr).contains("ok"));

    // A newest record that lacks a validation row, or whose validation
    // simulations replayed nothing, fails check-record.
    let mut short = record.clone();
    short.validation.rows.remove(30);
    let mut idle = record.clone();
    for p in &mut idle.validation.protocols {
        p.accesses = 0;
    }
    for (tag, broken, needle) in [
        ("short", short, "fig3: 23 validation rows"),
        ("idle", idle, "replayed no accesses"),
    ] {
        let bad = TempManifest::new(&format!("all-{tag}"));
        write_log(bad.path(), &[record.clone(), broken]);
        let check = repro()
            .args(["check-record", "--record", bad.path()])
            .output()
            .expect("spawn check-record");
        assert!(!check.status.success(), "{tag} must fail");
        let stderr = String::from_utf8_lossy(&check.stderr);
        assert!(stderr.contains(needle), "{tag}: {stderr}");
    }
}

// --- Tracing: --trace and trace-report ----------------------------------

#[test]
fn traced_parallel_run_round_trips_and_changes_nothing() {
    // The tentpole acceptance bar: a traced parallel --all run produces
    // byte-identical artifacts (modulo runner timing notes), and the
    // trace round-trips through trace-report with a span for every
    // experiment, a convergence record for every solve, and zero
    // divergences.
    let trace = TempManifest::new("trace");
    let plain = repro()
        .args(["--all", "--quick", "--json"])
        .output()
        .expect("spawn plain run");
    assert!(plain.status.success());
    let traced = repro()
        .args([
            "--all",
            "--quick",
            "--json",
            "--jobs",
            "2",
            "--trace",
            trace.path(),
        ])
        .output()
        .expect("spawn traced run");
    assert!(traced.status.success());
    assert!(
        String::from_utf8_lossy(&traced.stderr).contains("trace event(s)"),
        "traced run must report what it wrote"
    );

    let mut plain_json: serde_json::Value =
        serde_json::from_slice(&plain.stdout).expect("plain JSON");
    let mut traced_json: serde_json::Value =
        serde_json::from_slice(&traced.stdout).expect("traced JSON");
    strip_runner_notes(&mut plain_json);
    strip_runner_notes(&mut traced_json);
    assert_eq!(
        plain_json, traced_json,
        "tracing must not change artifact output"
    );

    let jsonl = std::fs::read_to_string(trace.path()).expect("trace written");
    let report = trace_report::analyze(&jsonl);
    assert_eq!(
        report.skipped, 0,
        "the sink's own output must parse cleanly"
    );
    assert!(
        report.is_clean(),
        "no solver may diverge:\n{}",
        report.render()
    );
    let ids = report.experiment_ids();
    for e in swcc_experiments::EXPERIMENTS {
        assert!(ids.contains(e.id), "missing runner span for {}", e.id);
    }
    let c = &report.convergence;
    assert!(c.solves > 0, "solver spans must be traced");
    assert_eq!(
        c.iterations.len() as u64,
        c.solves,
        "every solve must emit a convergence record"
    );
    assert!(
        !report.event_mix.is_empty(),
        "simulation-backed experiments must trace their event summaries"
    );

    // The CLI subcommand agrees with the library and exits clean.
    let rendered = repro()
        .args(["trace-report", trace.path()])
        .output()
        .expect("spawn trace-report");
    assert!(rendered.status.success());
    let stdout = String::from_utf8_lossy(&rendered.stdout);
    assert!(stdout.contains("status: clean"), "{stdout}");
    assert!(stdout.contains("coherence event mix"));
}

#[test]
fn trace_report_warns_on_garbage_and_rejects_missing_files() {
    // Ingestion is lenient: a file of garbage is an empty trace plus a
    // warning, not a hard failure (a truncated trace is still useful).
    let tmp = TempManifest::new("bad-trace");
    std::fs::write(tmp.path(), "not json at all\n").unwrap();
    let out = repro()
        .args(["trace-report", tmp.path()])
        .output()
        .expect("spawn trace-report");
    assert!(
        out.status.success(),
        "corrupt lines warn, they do not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("empty trace"), "{stdout}");
    assert!(stdout.contains("skipped 1 corrupt line(s)"), "{stdout}");
    // A missing file is still an error.
    let missing = repro()
        .args(["trace-report", "/nonexistent/trace.jsonl"])
        .output()
        .expect("spawn trace-report");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));
}

#[test]
fn mangled_trace_is_summarized_with_warnings() {
    // Regression for the lenient-ingestion satellite: a real trace with
    // a corrupt line spliced in and its tail truncated mid-record still
    // produces a report, with the damage counted in warnings.
    let trace = TempManifest::new("mangle-src");
    let run = repro()
        .args(["table1", "fig1", "--quick", "--trace", trace.path()])
        .output()
        .expect("spawn traced run");
    assert!(run.status.success());
    let jsonl = std::fs::read_to_string(trace.path()).expect("trace written");
    let mut lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > 4, "need a real trace to mangle");
    let truncated = &lines[lines.len() - 1][..lines[lines.len() - 1].len() / 2];
    *lines.last_mut().unwrap() = truncated;
    lines.insert(2, "}} not a trace line {{");
    let mangled = TempManifest::new("mangled");
    std::fs::write(mangled.path(), lines.join("\n")).unwrap();

    let out = repro()
        .args(["trace-report", mangled.path()])
        .output()
        .expect("spawn trace-report");
    assert!(
        out.status.success(),
        "mangled but divergence-free traces pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corrupt line(s)"), "{stdout}");
    assert!(stdout.contains("per-phase timing"), "{stdout}");
}

// --- Accuracy gate: repro accuracy --------------------------------------

/// The record line of one `fig1 fig2 fig3 --quick` run, made once per
/// test binary; each test writes it to a log of its own.
fn validation_record_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let log = TempManifest::new("validation-record");
        let out = repro()
            .args(["fig1", "fig2", "fig3", "--quick", "--record", log.path()])
            .output()
            .expect("spawn recorded validation run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(log.path()).expect("record written")
    })
}

#[test]
fn accuracy_gate_passes_the_committed_baseline_and_fails_on_drift() {
    // Against the committed tolerances the recorded quick run must
    // pass, with each figure's worst error read from the record.
    let log = TempManifest::new("accuracy-record");
    std::fs::write(log.path(), validation_record_line()).unwrap();
    let pass = repro()
        .args(["accuracy", "--record", log.path()])
        .current_dir(env!("CARGO_MANIFEST_DIR").to_string() + "/../..")
        .output()
        .expect("spawn accuracy");
    assert!(
        pass.status.success(),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&pass.stderr),
        String::from_utf8_lossy(&pass.stdout)
    );
    let stdout = String::from_utf8_lossy(&pass.stdout);
    assert!(stdout.contains("accuracy gate: passed"));
    for (fig, measured) in [("fig1", "11.72%"), ("fig2", "8.66%"), ("fig3", "11.62%")] {
        let row = stdout.lines().find(|l| l.trim_start().starts_with(fig));
        assert!(row.is_some_and(|r| r.contains(measured)), "{fig}: {stdout}");
    }

    // The negative test: a synthetic drifted baseline (an impossible
    // tolerance) must fail the gate with a nonzero exit code.
    let drifted = TempManifest::new("drifted-baseline");
    std::fs::write(
        drifted.path(),
        r#"{"schema":"swcc-accuracy-baseline/v1","figures":[{"id":"fig1","max_rel_error":0.0001}]}"#,
    )
    .unwrap();
    let fail = repro()
        .args([
            "accuracy",
            "--baseline",
            drifted.path(),
            "--record",
            log.path(),
        ])
        .output()
        .expect("spawn accuracy");
    assert!(!fail.status.success(), "drifted baseline must fail");
    assert!(String::from_utf8_lossy(&fail.stdout).contains("accuracy gate: FAILED"));

    // A newest record without a baseline figure fails, naming it.
    let partial = TempManifest::new("accuracy-partial");
    let out = repro()
        .args(["fig1", "--quick", "--record", partial.path()])
        .output()
        .expect("spawn recorded fig1 run");
    assert!(out.status.success());
    let out = repro()
        .args(["accuracy", "--record", partial.path()])
        .current_dir(env!("CARGO_MANIFEST_DIR").to_string() + "/../..")
        .output()
        .expect("spawn accuracy");
    assert!(!out.status.success(), "a missing figure must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"fig2\""));
}

#[test]
fn accuracy_gate_rejects_bad_baselines() {
    let tmp = TempManifest::new("bad-baseline");
    std::fs::write(tmp.path(), r#"{"schema":"other/v9","figures":[]}"#).unwrap();
    let out = repro()
        .args(["accuracy", "--baseline", tmp.path()])
        .output()
        .expect("spawn accuracy");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported"));
    let missing = repro()
        .args(["accuracy", "--baseline", "/nonexistent/baseline.json"])
        .output()
        .expect("spawn accuracy");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));
    // The gate reads a record and takes no run options.
    let quick = repro()
        .args(["accuracy", "--quick"])
        .output()
        .expect("spawn accuracy");
    assert!(!quick.status.success());
    assert!(String::from_utf8_lossy(&quick.stderr).contains("usage: repro accuracy"));
}

#[test]
fn baseline_flag_is_rejected_outside_accuracy() {
    let out = repro()
        .args(["table1", "--baseline", "x.json"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--baseline"));
}

// --- Version: repro --version -------------------------------------------

#[test]
fn version_prints_build_provenance_and_stands_alone() {
    let out = repro().arg("--version").output().expect("spawn --version");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repro "), "{stdout}");
    for field in ["commit", "rustc", "cargo", "profile"] {
        assert!(stdout.contains(field), "missing {field}: {stdout}");
    }
    // --version cannot be combined with anything else.
    for argv in [&["--version", "all"][..], &["table1", "--version"]] {
        let out = repro().args(argv).output().expect("spawn repro");
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--version takes no other arguments"),
            "{argv:?}"
        );
    }
}

// --- Export: repro trace-export ------------------------------------------

#[test]
fn trace_export_produces_chrome_json_and_folded_stacks() {
    let trace = TempManifest::new("export-src");
    let run = repro()
        .args(["table1", "fig5", "--quick", "--trace", trace.path()])
        .output()
        .expect("spawn traced run");
    assert!(run.status.success());

    // Chrome trace-event JSON, to a file.
    let chrome = TempManifest::new("export-chrome");
    let out = repro()
        .args([
            "trace-export",
            trace.path(),
            "--format",
            "chrome",
            "--out",
            chrome.path(),
        ])
        .output()
        .expect("spawn trace-export chrome");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(chrome.path()).expect("chrome export written");
    let value: serde_json::Value = serde_json::from_str(&json).expect("chrome export is JSON");
    let events = value
        .get_field("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        let ph = event
            .get_field("ph")
            .and_then(serde_json::Value::as_str)
            .expect("every event has a phase");
        assert!(["X", "i", "M"].contains(&ph), "unexpected phase {ph:?}");
    }
    assert!(
        events.iter().any(|e| {
            e.get_field("name").and_then(serde_json::Value::as_str) == Some("thread_name")
        }),
        "thread metadata names the lanes"
    );

    // Folded flamegraph stacks, to stdout: self-times sum to the root
    // span's total within 1% (exactly, for a sequential run).
    let folded = repro()
        .args(["trace-export", trace.path(), "--format", "folded"])
        .output()
        .expect("spawn trace-export folded");
    assert!(folded.status.success());
    let stdout = String::from_utf8_lossy(&folded.stdout);
    let mut self_sum = 0u64;
    for line in stdout.lines() {
        let (path, value) = line.rsplit_once(' ').expect("folded line is 'path value'");
        assert!(!path.is_empty());
        self_sum += value.parse::<u64>().expect("folded value is integer ns");
    }
    let report =
        trace_report::analyze(&std::fs::read_to_string(trace.path()).expect("trace readable"));
    let root_total = report.phases["runner.batch"].total_ns;
    let gap = (self_sum as f64 - root_total as f64).abs() / root_total as f64;
    assert!(
        gap < 0.01,
        "folded self-times ({self_sum}) must sum to the root total ({root_total}) within 1%"
    );

    // Bad or missing --format is rejected.
    let bad = repro()
        .args(["trace-export", trace.path(), "--format", "svg"])
        .output()
        .expect("spawn trace-export bad format");
    assert!(!bad.status.success());
    let missing = repro()
        .args(["trace-export", trace.path()])
        .output()
        .expect("spawn trace-export no format");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--format"));
}

// --- History: --record and repro history ---------------------------------

#[test]
fn record_history_appends_schema_checked_records() {
    let log = TempManifest::new("history-log");
    for expected in 1..=2u64 {
        let out = repro()
            .args(["table1", "--record", log.path()])
            .output()
            .expect("spawn recorded run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("recorded run to"));
        let records = history::load_history(Path::new(log.path())).expect("history log parses");
        assert_eq!(records.len() as u64, expected, "append-only log grows");
        let last = records.last().unwrap();
        assert_eq!(last.schema, history::RUN_SCHEMA);
        assert_eq!(last.experiments.len(), 1);
    }
    // --record needs a path, and the history options make no sense on a
    // run.
    let out = repro()
        .args(["table1", "--record"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--record needs a value"));
    let out = repro()
        .args(["table1", "--last", "2"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--last does not apply"));
}

/// The record of one real `table1 fig11 --quick` run, made once per
/// test binary.
fn recorded_run() -> history::RecordedRun {
    static RUN: OnceLock<history::RecordedRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let log = TempManifest::new("fixture-record");
        let out = repro()
            .args(["table1", "fig11", "--quick", "--record", log.path()])
            .output()
            .expect("spawn recorded run");
        assert!(out.status.success());
        let mut records = history::load_history(Path::new(log.path())).expect("record parses");
        records.pop().expect("one record")
    })
    .clone()
}

/// A real record with its whole-run residual evaluations set to `evals`
/// and one validation figure, fig1, at error `err`: the drift tests'
/// fixture.
fn synthetic_record(evals: u64, err: f64) -> history::RecordedRun {
    let mut record = recorded_run();
    let counter = record
        .metrics
        .counters
        .iter_mut()
        .find(|c| c.name == "core.solver.residual_evals")
        .expect("the run records solver work");
    counter.value = evals;
    record.accuracy = vec![history::AccuracyEntry {
        figure: "fig1".to_string(),
        max_rel_error: err,
    }];
    record
}

/// Writes `records` to the log at `path`, oldest first.
fn write_log(path: &str, records: &[history::RecordedRun]) {
    for record in records {
        history::append_record(Path::new(path), record).unwrap();
    }
}

#[test]
fn history_subcommand_gates_drift_with_its_exit_code() {
    // Steady log: the gate passes.
    let steady = TempManifest::new("history-steady");
    let steady_records = [
        synthetic_record(9000, 0.120),
        synthetic_record(9010, 0.119),
        synthetic_record(8990, 0.121),
    ];
    write_log(steady.path(), &steady_records);
    let out = repro()
        .args(["history", "--record", steady.path()])
        .output()
        .expect("spawn repro history");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run history: showing 3 of 3"), "{stdout}");
    assert!(stdout.contains("drift: OK"), "{stdout}");

    // Drifted newest record: the solver suddenly does 3x the work, or
    // fig1's accuracy envelope blows up → nonzero exit naming the
    // quantity.
    for (tag, newest, quantity) in [
        (
            "evals",
            synthetic_record(27000, 0.120),
            "solver residual evals",
        ),
        ("error", synthetic_record(9000, 0.5), "fig1 max rel error"),
    ] {
        let drifted = TempManifest::new(&format!("history-drifted-{tag}"));
        write_log(drifted.path(), &steady_records);
        write_log(drifted.path(), &[newest]);
        let out = repro()
            .args(["history", "--record", drifted.path()])
            .output()
            .expect("spawn repro history drifted");
        assert!(!out.status.success(), "drifted history must exit nonzero");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("drift: FAILED"), "{stdout}");
        let row = stdout
            .lines()
            .find(|l| l.contains(quantity))
            .unwrap_or_else(|| panic!("no {quantity} row: {stdout}"));
        assert!(row.ends_with("DRIFT"), "{row}");
    }

    // A generous --tolerance lets a drifted log pass, and --last trims
    // the trend table.
    let drifted = TempManifest::new("history-drifted-tolerant");
    write_log(drifted.path(), &steady_records);
    write_log(drifted.path(), &[synthetic_record(27000, 0.120)]);
    let out = repro()
        .args([
            "history",
            "--record",
            drifted.path(),
            "--tolerance",
            "900",
            "--last",
            "2",
        ])
        .output()
        .expect("spawn repro history tolerant");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("showing 2 of 4"), "{stdout}");
    assert!(stdout.contains("drift: OK"), "{stdout}");

    // A missing log renders as empty and passes.
    let out = repro()
        .args(["history", "--record", "/nonexistent/runs.jsonl"])
        .output()
        .expect("spawn repro history empty");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("history is empty"));
}

#[test]
fn history_below_the_median_window_skips_with_insufficient_history() {
    // One record: no comparable predecessor. The gate must skip with an
    // explicit "insufficient history" message and a success exit, even
    // though the record's values would scream drift against any real
    // baseline.
    let log = TempManifest::new("history-short");
    write_log(log.path(), &[synthetic_record(999_999_999, 0.999)]);
    let out = repro()
        .args(["history", "--record", log.path()])
        .output()
        .expect("spawn repro history single");
    assert!(
        out.status.success(),
        "a single-record history must not gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("insufficient history"), "{stdout}");
    assert!(stdout.contains("drift: SKIPPED"), "{stdout}");

    // Two records: exactly one comparable predecessor — still below the
    // trailing-median window. Gating now would compare the newest run
    // against a "median" of one sample, so this must also skip, even
    // with the newest record wildly worse than its lone predecessor.
    write_log(log.path(), &[synthetic_record(u64::MAX / 2, 1.0)]);
    let out = repro()
        .args(["history", "--record", log.path()])
        .output()
        .expect("spawn repro history pair");
    assert!(
        out.status.success(),
        "one predecessor is below the median window: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("insufficient history"), "{stdout}");
    assert!(stdout.contains("drift: SKIPPED"), "{stdout}");
    assert!(!stdout.contains("drift: FAILED"), "{stdout}");
}

#[test]
fn history_skips_quantities_predating_the_record_with_a_note() {
    // The newest run covers a validation figure its predecessors lack:
    // that figure has no trailing median, so the gate prints one
    // explicit skip line for it and still gates everything else.
    let log = TempManifest::new("history-new-figure");
    let mut newest = synthetic_record(8990, 0.121);
    newest.accuracy.push(history::AccuracyEntry {
        figure: "fig2".to_string(),
        max_rel_error: 0.9,
    });
    write_log(
        log.path(),
        &[
            synthetic_record(9000, 0.120),
            synthetic_record(9010, 0.119),
            newest,
        ],
    );
    let out = repro()
        .args(["history", "--record", log.path()])
        .output()
        .expect("spawn repro history new figure");
    assert!(
        out.status.success(),
        "a figure the predecessors lack must not fail the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fig2 max rel error: SKIPPED"),
        "the skip must be explicit, not silent: {stdout}"
    );
    assert!(stdout.contains("predate it"), "{stdout}");
    assert!(stdout.contains("fig1 max rel error"), "{stdout}");
    assert!(stdout.contains("drift: OK"), "{stdout}");
    // The trend table shows the run's simulator throughput column.
    assert!(stdout.contains("sim acc/s"), "{stdout}");
}

// --- Sim report: repro sim-report -----------------------------------------

#[test]
fn sim_report_emits_schema_versioned_json_and_human_tables() {
    // The recorded run is the schema-versioned JSON: one swcc-run/v2
    // line with a row per validation point.
    let log = TempManifest::new("sim-report-record");
    std::fs::write(log.path(), validation_record_line()).unwrap();
    let records = history::load_history(Path::new(log.path())).expect("record parses");
    let record = &records[0];
    assert_eq!(record.schema, "swcc-run/v2");
    assert_eq!(record.validation.rows.len(), 44, "full validation matrix");
    assert_eq!(record.validation.measurements.len(), 8);
    assert_eq!(record.validation.protocols.len(), 2, "Base and Dragon");
    assert!(record.validation.accesses() > 0);

    // sim-report renders its human tables without re-running anything.
    let out = repro()
        .args(["sim-report", "--record", log.path()])
        .output()
        .expect("spawn repro sim-report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "sim report (swcc-run/v2, quick profile)",
        "model-vs-sim residuals per validation point:",
        "coherence events per protocol:",
        "measurement counts per validation curve:",
        "totals: 44 points",
        "worst power residual 11.72%",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // fig1 and fig2 both keep the POPS Dragon 64 KiB curve.
    for fig in ["fig1", "fig2"] {
        let dragon_64k = stdout
            .lines()
            .filter(|l| {
                let l = l.trim_start();
                l.starts_with(fig) && l.contains("POPS  Dragon") && l.contains(" 64K ")
            })
            .count();
        assert_eq!(dragon_64k, 4, "{fig}: one residual row per processor count");
    }

    // A record without validation rows, or no record at all, fails.
    let table_only = TempManifest::new("sim-report-table-only");
    write_log(table_only.path(), &[recorded_run()]);
    for path in [table_only.path(), "/nonexistent/runs.jsonl"] {
        let out = repro()
            .args(["sim-report", "--record", path])
            .output()
            .expect("spawn repro sim-report");
        assert!(!out.status.success(), "{path}");
    }
}

#[test]
fn sim_report_rejects_foreign_options() {
    for argv in [
        &["sim-report", "--jobs", "2"][..],
        &["sim-report", "--metrics"],
        &["sim-report", "--format", "chrome"],
        &["sim-report", "--quick"],
        &["sim-report", "--json"],
        &["sim-report", "--out", "x.json"],
        &["sim-report", "extra-arg"],
    ] {
        let out = repro().args(argv).output().expect("spawn repro sim-report");
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr)
                .contains("usage: repro sim-report [--record PATH]"),
            "{argv:?}"
        );
    }
}

// --- Dashboard: repro report --html --------------------------------------

/// The start of the dashboard divergence table's row for fig3's 16 KiB
/// curve at 3 processors.
const DIVERGENCE_ROW: &str = "<td>fig3</td><td>PERO</td><td>Dragon</td>\
                              <td class=\"num\">16</td><td class=\"num\">3</td>";

#[test]
fn report_writes_a_self_contained_html_dashboard() {
    let trace = TempManifest::new("dash-trace");
    let run = repro()
        .args(["fig1", "--quick", "--trace", trace.path()])
        .output()
        .expect("spawn traced run");
    assert!(run.status.success());
    let log = TempManifest::new("dash-history");
    write_log(
        log.path(),
        &[synthetic_record(9000, 0.120), synthetic_record(9010, 0.119)],
    );
    // The newest record carries the validation rows the accuracy and
    // divergence sections render.
    std::fs::write(
        log.path(),
        std::fs::read_to_string(log.path()).unwrap() + validation_record_line(),
    )
    .unwrap();

    let html_out = TempManifest::new("dash-html");
    let out = repro()
        .args([
            "report",
            "--html",
            html_out.path(),
            trace.path(),
            "--record",
            log.path(),
        ])
        .output()
        .expect("spawn repro report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(html_out.path()).expect("dashboard written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    for section in [
        "Phase timings",
        "Model vs simulation accuracy",
        DIVERGENCE_ROW,
        "Run history",
        "<svg",
    ] {
        assert!(html.contains(section), "missing {section:?}");
    }
    // Single self-contained file: nothing fetched from anywhere.
    for needle in [
        "http://", "https://", "<script", "<link", " src=", "@import",
    ] {
        assert!(
            !html.contains(needle),
            "dashboard must not contain {needle:?}"
        );
    }

    // --html is mandatory; a traceless dashboard still renders.
    let missing = repro().arg("report").output().expect("spawn repro report");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--html"));
    let traceless = TempManifest::new("dash-traceless");
    let out = repro()
        .args(["report", "--html", traceless.path(), "--record", log.path()])
        .output()
        .expect("spawn traceless report");
    assert!(out.status.success());
    let html = std::fs::read_to_string(traceless.path()).expect("traceless dashboard written");
    assert!(html.contains("No trace supplied"));
    assert!(html.contains(DIVERGENCE_ROW), "divergence from the record");
}
