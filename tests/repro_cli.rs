//! End-to-end tests of the `repro` binary.

use std::path::PathBuf;
use std::process::Command;

use swcc_experiments::history;
use swcc_experiments::manifest::RunManifest;
use swcc_experiments::trace_report;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A per-test scratch path for manifest/trace/baseline files, cleaned
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

// --- Observability: --metrics and --manifest ---------------------------

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
fn manifest_records_experiments_and_solver_counters() {
    let tmp = TempManifest::new("partial");
    let out = repro()
        .args([
            "fig10",
            "fig11",
            "--quick",
            "--jobs",
            "2",
            "--manifest",
            tmp.path(),
        ])
        .output()
        .expect("spawn repro --manifest");
    assert!(out.status.success());
    let json = std::fs::read_to_string(tmp.path()).expect("manifest written");
    let manifest = RunManifest::from_json(&json).expect("manifest parses");
    assert_eq!(manifest.schema, swcc_experiments::MANIFEST_SCHEMA);
    assert!(manifest.options.quick);
    assert_eq!(manifest.options.jobs, 2);
    assert_eq!(manifest.totals.experiments, 2);
    assert!(manifest.totals.wall_ms > 0.0);
    for id in ["fig10", "fig11"] {
        let entry = manifest.experiment(id).expect(id);
        assert!(entry.duration_ms >= 0.0);
        let evals = entry
            .counters
            .iter()
            .find(|c| c.name == "core.solver.residual_evals")
            .map(|c| c.value)
            .unwrap_or(0);
        assert!(evals > 0, "{id} must attribute solver work, got {evals}");
    }
    // Process totals cover at least the per-experiment sums.
    assert!(
        manifest
            .metrics
            .counter("core.solver.residual_evals")
            .unwrap_or(0)
            > 0
    );

    // check-manifest: parses, but flags missing registry coverage.
    let check = repro()
        .args(["check-manifest", tmp.path()])
        .output()
        .expect("spawn check-manifest");
    assert!(
        !check.status.success(),
        "partial manifest must fail coverage"
    );
    assert!(String::from_utf8_lossy(&check.stderr).contains("missing:"));
}

#[test]
fn check_manifest_rejects_garbage() {
    let tmp = TempManifest::new("garbage");
    std::fs::write(tmp.path(), "{\"schema\": \"other/v9\"}").unwrap();
    let out = repro()
        .args(["check-manifest", tmp.path()])
        .output()
        .expect("spawn check-manifest");
    assert!(!out.status.success());
    let missing = repro()
        .args(["check-manifest", "/nonexistent/manifest.json"])
        .output()
        .expect("spawn check-manifest");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));
}

#[test]
fn observation_does_not_change_artifacts_and_manifest_covers_registry() {
    // The acceptance bar for the observability layer: a full observed
    // run produces byte-identical artifacts (modulo nondeterministic
    // runner timing notes) and a manifest covering the whole registry.
    let tmp = TempManifest::new("all");
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
            "--manifest",
            tmp.path(),
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
        "metrics/manifest must not change artifact output"
    );

    let manifest =
        RunManifest::from_json(&std::fs::read_to_string(tmp.path()).expect("manifest written"))
            .expect("manifest parses");
    assert!(
        manifest.missing_experiments().is_empty(),
        "an --all manifest must cover the registry"
    );
    assert_eq!(
        manifest.totals.experiments,
        swcc_experiments::EXPERIMENTS.len()
    );
    let check = repro()
        .args(["check-manifest", tmp.path()])
        .output()
        .expect("spawn check-manifest");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stderr).contains("ok"));
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
        !report.accuracy.is_empty(),
        "validation figures must trace accuracy points"
    );
    assert!(report.worst_rel_error().unwrap() < 0.5);

    // The CLI subcommand agrees with the library and exits clean.
    let rendered = repro()
        .args(["trace-report", trace.path()])
        .output()
        .expect("spawn trace-report");
    assert!(rendered.status.success());
    let stdout = String::from_utf8_lossy(&rendered.stdout);
    assert!(stdout.contains("status: clean"), "{stdout}");
    assert!(stdout.contains("model-vs-sim accuracy"));
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

#[test]
fn accuracy_gate_passes_the_committed_baseline_and_fails_on_drift() {
    // Against the committed tolerances the quick run must pass.
    let pass = repro()
        .args(["accuracy", "--quick"])
        .current_dir(env!("CARGO_MANIFEST_DIR").to_string() + "/../..")
        .output()
        .expect("spawn accuracy");
    assert!(
        pass.status.success(),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&pass.stderr),
        String::from_utf8_lossy(&pass.stdout)
    );
    assert!(String::from_utf8_lossy(&pass.stdout).contains("accuracy gate: passed"));

    // The negative test: a synthetic drifted baseline (an impossible
    // tolerance) must fail the gate with a nonzero exit code.
    let drifted = TempManifest::new("drifted-baseline");
    std::fs::write(
        drifted.path(),
        r#"{"schema":"swcc-accuracy-baseline/v1","figures":[{"id":"fig1","max_rel_error":0.0001}]}"#,
    )
    .unwrap();
    let fail = repro()
        .args(["accuracy", "--quick", "--baseline", drifted.path()])
        .output()
        .expect("spawn accuracy");
    assert!(!fail.status.success(), "drifted baseline must fail");
    assert!(String::from_utf8_lossy(&fail.stdout).contains("accuracy gate: FAILED"));
}

#[test]
fn accuracy_gate_rejects_bad_baselines() {
    let tmp = TempManifest::new("bad-baseline");
    std::fs::write(tmp.path(), r#"{"schema":"other/v9","figures":[]}"#).unwrap();
    let out = repro()
        .args(["accuracy", "--quick", "--baseline", tmp.path()])
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

// --- History: --record-history and repro history -------------------------

#[test]
fn record_history_appends_schema_checked_records() {
    let log = TempManifest::new("history-log");
    for expected in 1..=2u64 {
        let out = repro()
            .args(["table1", "--record-history", "--history-file", log.path()])
            .output()
            .expect("spawn recorded run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("recorded run history"));
        let records =
            history::load_history(std::path::Path::new(log.path())).expect("history log parses");
        assert_eq!(records.len() as u64, expected, "append-only log grows");
        let last = records.last().unwrap();
        assert_eq!(last.schema, history::HISTORY_SCHEMA);
        assert_eq!(last.experiments, 1);
        assert!(last.warm_start.iteration_speedup > 1.0);
    }
    // --history-file without --record-history makes no sense on a run.
    let out = repro()
        .args(["table1", "--history-file", log.path()])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--record-history"));
}

/// A hand-built steady history record, as the drift tests' baseline.
fn synthetic_record(speedup: f64, evals: u64, err: f64) -> history::HistoryRecord {
    history::HistoryRecord {
        schema: history::HISTORY_SCHEMA.to_string(),
        build: swcc_experiments::BuildProvenance::current(),
        quick: true,
        jobs: 1,
        experiments: 26,
        wall_ms: 500.0,
        accuracy: vec![history::AccuracyEntry {
            figure: "fig1".to_string(),
            max_rel_error: err,
        }],
        solver: history::SolverStats {
            solves: 400,
            residual_evals: evals,
            warm_reuses: 200,
            bracket_fallbacks: 2,
        },
        warm_start: history::WarmStartStats {
            cold_iterations: 400,
            warm_iterations: 160,
            iteration_speedup: speedup,
        },
        batch: Some(history::BatchStats {
            batches: 12,
            lanes: 4000,
            reference_iterations: 1200,
            lanes_per_second: 2.5e7,
        }),
        sim: Some(history::SimStats {
            reference_accesses: 55_000,
            reference_makespan: 90_000,
            accesses_per_second: 5.0e6,
            wall_ms: 11.0,
        }),
    }
}

#[test]
fn history_subcommand_gates_drift_with_its_exit_code() {
    // Steady log: the gate passes.
    let steady = TempManifest::new("history-steady");
    for record in [
        synthetic_record(2.50, 9000, 0.120),
        synthetic_record(2.52, 9010, 0.119),
        synthetic_record(2.48, 8990, 0.121),
    ] {
        history::append_record(std::path::Path::new(steady.path()), &record).unwrap();
    }
    let out = repro()
        .args(["history", "--history-file", steady.path()])
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

    // Drifted newest record: solver suddenly does 3x the work → the
    // acceptance-criteria negative test, nonzero exit.
    let drifted = TempManifest::new("history-drifted");
    std::fs::copy(steady.path(), drifted.path()).unwrap();
    history::append_record(
        std::path::Path::new(drifted.path()),
        &synthetic_record(2.51, 27000, 0.120),
    )
    .unwrap();
    let out = repro()
        .args(["history", "--history-file", drifted.path()])
        .output()
        .expect("spawn repro history drifted");
    assert!(!out.status.success(), "drifted history must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("drift: FAILED"), "{stdout}");
    assert!(stdout.contains("solver residual evals"), "{stdout}");

    // A generous --tolerance lets the same log pass, and --last trims
    // the trend table.
    let out = repro()
        .args([
            "history",
            "--history-file",
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
        .args(["history", "--history-file", "/nonexistent/runs.jsonl"])
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
    let awful = synthetic_record(0.01, 999_999_999, 0.999);
    history::append_record(std::path::Path::new(log.path()), &awful).unwrap();
    let out = repro()
        .args(["history", "--history-file", log.path()])
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
    history::append_record(
        std::path::Path::new(log.path()),
        &synthetic_record(0.001, u64::MAX / 2, 1.0),
    )
    .unwrap();
    let out = repro()
        .args(["history", "--history-file", log.path()])
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
    // Records written before the sim-throughput stats existed must not
    // fail the gate — the gate prints one explicit skip line for the
    // quantity and moves on (same contract as the pre-batch records).
    let log = TempManifest::new("history-presim");
    let mut old = synthetic_record(2.50, 9000, 0.120);
    old.sim = None;
    let mut older = synthetic_record(2.52, 9010, 0.119);
    older.sim = None;
    for record in [older, old, synthetic_record(2.48, 8990, 0.121)] {
        history::append_record(std::path::Path::new(log.path()), &record).unwrap();
    }
    let out = repro()
        .args(["history", "--history-file", log.path()])
        .output()
        .expect("spawn repro history pre-sim");
    assert!(
        out.status.success(),
        "pre-sim predecessors must not fail the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sim reference makespan: SKIPPED"),
        "the skip must be explicit, not silent: {stdout}"
    );
    assert!(stdout.contains("predate it"), "{stdout}");
    assert!(stdout.contains("drift: OK"), "{stdout}");
    // The trend table still shows a sim-throughput column, dashed for
    // the old records.
    assert!(stdout.contains("sim acc/s"), "{stdout}");
}

// --- Sim report: repro sim-report -----------------------------------------

#[test]
fn sim_report_emits_schema_versioned_json_and_human_tables() {
    let json_out = TempManifest::new("sim-report");
    let out = repro()
        .args(["sim-report", "--quick", "--out", json_out.path()])
        .output()
        .expect("spawn repro sim-report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Human tables on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "sim report (swcc-sim-report/v1, quick profile)",
        "model-vs-sim residuals per validation point:",
        "coherence events per protocol:",
        "measurement counts per validation curve:",
        "totals:",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    // Machine-readable document in the --out file.
    let json = std::fs::read_to_string(json_out.path()).expect("sim report written");
    let doc: serde_json::Value = serde_json::from_str(&json).expect("sim report is JSON");
    assert_eq!(
        doc.get_field("schema").and_then(serde_json::Value::as_str),
        Some("swcc-sim-report/v1")
    );
    let points = doc
        .get_field("points")
        .and_then(serde_json::Value::as_array)
        .expect("points array");
    assert_eq!(points.len(), 44, "full validation matrix");
    for point in points {
        for field in ["sim_power", "model_power", "power_rel_error"] {
            assert!(
                point
                    .get_field(field)
                    .and_then(serde_json::Value::as_f64)
                    .is_some(),
                "every point carries {field}"
            );
        }
    }
    let rate = doc
        .get_field("totals")
        .and_then(|t| t.get_field("accesses_per_second"))
        .and_then(serde_json::Value::as_f64)
        .expect("totals carry a throughput");
    assert!(rate > 0.0, "accesses/s must be nonzero, got {rate}");
    let protocols = doc
        .get_field("protocols")
        .and_then(serde_json::Value::as_array)
        .expect("protocols array");
    assert!(
        protocols.len() >= 2,
        "Base and Dragon both appear in the matrix"
    );
}

#[test]
fn sim_report_rejects_foreign_options() {
    for argv in [
        &["sim-report", "--jobs", "2"][..],
        &["sim-report", "--metrics"],
        &["sim-report", "--format", "chrome"],
        &["sim-report", "extra-arg"],
    ] {
        let out = repro().args(argv).output().expect("spawn repro sim-report");
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr)
                .contains("usage: repro sim-report [--quick] [--json] [--out PATH]"),
            "{argv:?}"
        );
    }
}

// --- Dashboard: repro report --html --------------------------------------

#[test]
fn report_writes_a_self_contained_html_dashboard() {
    let trace = TempManifest::new("dash-trace");
    let run = repro()
        .args(["fig1", "--quick", "--trace", trace.path()])
        .output()
        .expect("spawn traced run");
    assert!(run.status.success());
    let log = TempManifest::new("dash-history");
    for record in [
        synthetic_record(2.50, 9000, 0.120),
        synthetic_record(2.52, 9010, 0.119),
    ] {
        history::append_record(std::path::Path::new(log.path()), &record).unwrap();
    }

    let html_out = TempManifest::new("dash-html");
    let out = repro()
        .args([
            "report",
            "--html",
            html_out.path(),
            trace.path(),
            "--history-file",
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
    for section in ["Phase timings", "Run history", "<svg"] {
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
        .args([
            "report",
            "--html",
            traceless.path(),
            "--history-file",
            log.path(),
        ])
        .output()
        .expect("spawn traceless report");
    assert!(out.status.success());
    assert!(std::fs::read_to_string(traceless.path())
        .expect("traceless dashboard written")
        .contains("No trace supplied"));
}
