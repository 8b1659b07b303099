//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                                  list experiment ids and titles
//! repro all [options]                         run every experiment
//! repro <id>... [options]                     run selected experiments
//! repro check-record [--record PATH]          validate the newest run record
//! repro trace-report <path>                   summarize a --trace JSONL file
//! repro trace-export <path> --format F        convert a trace for other tools
//! repro history [--last K] [--tolerance PCT]  show run history + drift gate
//!               [--record PATH]
//!               [--loadgen-report PATH ...]    …and trend loadgen steady p99
//! repro report --html PATH [trace.jsonl]      write the HTML run dashboard
//!              [--record PATH]
//! repro sim-report [--quick] [--json]         model-vs-sim residuals + event mix
//!                  [--out PATH]                …with a JSON copy written to PATH
//! repro accuracy [--quick] [--baseline PATH]  run the model-accuracy gate
//! repro --version                             print version + build provenance
//!
//! options:
//!   --quick            shorten the synthetic traces of simulation-backed
//!                      experiments
//!   --json             emit artifacts as one JSON array instead of text
//!   --jobs N           run up to N experiments concurrently (0 = one per
//!                      available core)
//!   --metrics          print solver/runner metric totals to stderr after
//!                      the run
//!   --record PATH      append this run's swcc-run/v1 record to the log at
//!                      PATH; history, report and check-record read the
//!                      same log (default history/runs.jsonl)
//!   --trace PATH       record a structured span/event trace as JSONL
//!   --trace-sample N   keep 1 in N high-frequency (sampled-class) events
//!                      (default 16; 1 keeps everything)
//!   --format F         trace-export output: chrome | folded
//!   --out PATH         trace-export destination (default stdout)
//! ```
//!
//! `trace-report` renders per-phase timings, solver convergence
//! diagnostics, and the model-vs-sim accuracy table from a trace file,
//! and exits nonzero if any solver diverged. `trace-export` converts a
//! trace into the Chrome trace-event JSON that `chrome://tracing` and
//! Perfetto load (`--format chrome`) or collapsed flamegraph stacks
//! with self-time weights (`--format folded`). `history` prints the
//! recorded-run trend table and exits nonzero when a machine-independent
//! quantity drifted beyond tolerance versus its trailing median; with
//! `--loadgen-report PATH` (repeatable, oldest first) it additionally
//! trends the `swcc-loadgen/v2` steady-state p99 under the same
//! trailing-median ceiling, printing one explicit skip line for any
//! report that lacks the quantity (a v1 report, or a run without
//! `--timeline`). `check-record` exits nonzero unless every line of the
//! log is a `swcc-run/v1` record and the newest covers every registered
//! experiment.
//! `report --html` writes a single-file dependency-free dashboard.
//! `sim-report` reruns the full validation matrix and prints, per
//! validation point, the model-vs-sim residuals (power, miss rates,
//! bus utilization), plus per-protocol coherence-event breakdowns and
//! the raw workload-measurement counters; `--out PATH` additionally
//! writes the machine-readable `swcc-sim-report/v1` JSON document.
//! `accuracy` re-runs the validation figures against the checked-in
//! tolerance baseline (`baselines/accuracy.json`) and exits nonzero on
//! a breach.
//!
//! `--all` is accepted as a flag alias for the `all` subcommand; it
//! cannot be combined with explicit ids. Repeated ids run once, repeated
//! flags apply once (for value flags, the last value wins). Output
//! order always matches request order, and every artifact carries a
//! `runner:` footnote with its wall-clock duration. Observation
//! (`--metrics`/`--record`/`--trace`) never changes the artifacts
//! themselves.

use std::io::Write;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use swcc_experiments::gate::{run_gate, AccuracyBaseline};
use swcc_experiments::history::{
    append_record, detect_drift, load_history, loadgen_p99_drift, loadgen_steady_p99,
    render_history, BuildProvenance, LoadgenP99, RecordedRun, DEFAULT_DRIFT_TOLERANCE,
    DEFAULT_RECORD_PATH,
};
use swcc_experiments::html_report::render_dashboard;
use swcc_experiments::registry::{find, RunOptions, EXPERIMENTS};
use swcc_experiments::runner::{self, default_jobs, run_selected_observed};
use swcc_experiments::sim_report;
use swcc_experiments::trace_export::{export, ExportFormat};
use swcc_experiments::trace_report;

/// Default path of the accuracy-gate tolerance baseline.
const DEFAULT_ACCURACY_BASELINE: &str = "baselines/accuracy.json";

/// Trace lines the JSONL sink can hold before counting drops.
const TRACE_CAPACITY: usize = 1_000_000;

/// Default 1-in-N sampling of high-frequency trace events.
const TRACE_SAMPLE_DEFAULT: u64 = 16;

/// Prints to stdout, exiting quietly if the reader closed the pipe
/// (e.g. `repro all | head`).
fn emit(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout();
    if writeln!(out, "{text}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! say {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn usage() {
    eprintln!(
        "usage: repro list | check-record [--record PATH] | trace-report <path> |\n\
         \x20      trace-export <path> --format chrome|folded [--out PATH] |\n\
         \x20      history [--last K] [--tolerance PCT] [--record PATH]\n\
         \x20              [--loadgen-report PATH ...] |\n\
         \x20      report --html PATH [trace.jsonl] [--record PATH] |\n\
         \x20      sim-report [--quick] [--json] [--out PATH] |\n\
         \x20      accuracy [--quick] [--baseline PATH] |\n\
         \x20      all [options] | <id>... [options] | --version\n\
         options: [--quick] [--json] [--jobs N] [--metrics] [--record PATH]\n\
         \x20        [--trace PATH] [--trace-sample N]"
    );
    eprintln!("ids:");
    for e in EXPERIMENTS {
        eprintln!("  {:<8} {}", e.id, e.title);
    }
}

/// The flags an experiment run accepts.
const RUN_FLAGS: &[&str] = &[
    "--quick",
    "--json",
    "--all",
    "--metrics",
    "--jobs",
    "--record",
    "--trace",
    "--trace-sample",
];

/// A subcommand's accepted flags, how many positional arguments may
/// follow its name, and the line printed when either is wrong. `None`
/// for a name that is not a subcommand (an experiment run).
fn subcommand(
    name: &str,
) -> Option<(&'static [&'static str], RangeInclusive<usize>, &'static str)> {
    Some(match name {
        "list" => (&[], 0..=0, "list takes no options or arguments"),
        "check-record" => (
            &["--record"],
            0..=0,
            "usage: repro check-record [--record PATH]",
        ),
        "trace-report" => (&[], 1..=1, "usage: repro trace-report <path>"),
        "trace-export" => (
            &["--format", "--out"],
            1..=1,
            "usage: repro trace-export <path> --format chrome|folded [--out PATH]",
        ),
        "history" => (
            &["--last", "--tolerance", "--record", "--loadgen-report"],
            0..=0,
            "usage: repro history [--last K] [--tolerance PCT] [--record PATH] \
             [--loadgen-report PATH ...]",
        ),
        "report" => (
            &["--html", "--record"],
            0..=1,
            "usage: repro report --html PATH [trace.jsonl] [--record PATH]",
        ),
        "sim-report" => (
            &["--quick", "--json", "--out"],
            0..=0,
            "usage: repro sim-report [--quick] [--json] [--out PATH]",
        ),
        "accuracy" => (
            &["--quick", "--baseline"],
            0..=0,
            "usage: repro accuracy [--quick] [--baseline PATH]",
        ),
        _ => return None,
    })
}

/// The command line, consumed flag by flag.
struct Args {
    /// Arguments not consumed yet.
    rest: Vec<String>,
    /// The flags that appeared.
    given: Vec<&'static str>,
}

impl Args {
    /// Removes **every** occurrence of the flag; true if it appeared at all.
    fn flag(&mut self, name: &'static str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.seen(name, self.rest.len() != before)
    }

    /// Removes every `--name V` / `--name=V` occurrence, returning the
    /// values in order.
    fn values(&mut self, name: &'static str) -> Result<Vec<String>, String> {
        let prefix = format!("{name}=");
        let mut values = Vec::new();
        while let Some(pos) = self
            .rest
            .iter()
            .position(|a| a == name || a.starts_with(&prefix))
        {
            if self.rest[pos] == name {
                if pos + 1 >= self.rest.len() {
                    return Err(format!("{name} needs a value"));
                }
                values.push(self.rest.remove(pos + 1));
                self.rest.remove(pos);
            } else {
                values.push(self.rest.remove(pos)[prefix.len()..].to_string());
            }
        }
        self.seen(name, !values.is_empty());
        Ok(values)
    }

    /// The last value of `--name`, parsed; `what` names the expected
    /// kind of value in the error.
    fn value<T>(
        &mut self,
        name: &'static str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.values(name)?.pop() {
            Some(v) => parse(&v)
                .map(Some)
                .ok_or_else(|| format!("{name}: not {what}: {v}")),
            None => Ok(None),
        }
    }

    fn seen(&mut self, name: &'static str, present: bool) -> bool {
        if present {
            self.given.push(name);
        }
        present
    }
}

/// Everything `repro` parses besides `--version`.
struct Cli {
    quick: bool,
    json: bool,
    all: bool,
    metrics: bool,
    jobs: Option<NonZeroUsize>,
    record: Option<String>,
    trace: Option<String>,
    trace_sample: Option<u64>,
    baseline: Option<String>,
    format: Option<String>,
    out: Option<String>,
    last: Option<usize>,
    tolerance: Option<f64>,
    loadgen_reports: Vec<String>,
    html: Option<String>,
}

impl Cli {
    fn parse(args: &mut Args) -> Result<Cli, String> {
        let text = |v: &str| Some(v.to_string());
        let cli = Cli {
            quick: args.flag("--quick"),
            json: args.flag("--json"),
            all: args.flag("--all"),
            metrics: args.flag("--metrics"),
            // 0 means "one job per available core".
            jobs: args.value("--jobs", "a number", |v| {
                v.parse()
                    .ok()
                    .map(|n| NonZeroUsize::new(n).unwrap_or_else(default_jobs))
            })?,
            record: args.value("--record", "a path", text)?,
            trace: args.value("--trace", "a path", text)?,
            trace_sample: args.value("--trace-sample", "a number", |v| v.parse().ok())?,
            baseline: args.value("--baseline", "a path", text)?,
            format: args.value("--format", "a format", text)?,
            out: args.value("--out", "a path", text)?,
            last: args.value("--last", "a number", |v| v.parse().ok())?,
            tolerance: args.value("--tolerance", "a percentage", |v| {
                let pct: f64 = v.parse().ok()?;
                (pct.is_finite() && pct >= 0.0).then_some(pct / 100.0)
            })?,
            loadgen_reports: args.values("--loadgen-report")?,
            html: args.value("--html", "a path", text)?,
        };
        match args.rest.iter().find(|a| a.starts_with('-')) {
            Some(unknown) => Err(format!("unknown option: {unknown}")),
            None => Ok(cli),
        }
    }
}

fn check_record(path: &str) -> ExitCode {
    let records = match load_history(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(newest) = records.last() else {
        eprintln!("{path}: no run records");
        return ExitCode::FAILURE;
    };
    let missing = newest.missing_experiments();
    if !missing.is_empty() {
        eprintln!(
            "{path}: the newest record covers {} of {} experiments; missing: {}",
            newest.experiments.len(),
            EXPERIMENTS.len(),
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{path}: ok ({} record(s); the newest covers all {} experiments, schema {})",
        records.len(),
        newest.experiments.len(),
        newest.schema
    );
    ExitCode::SUCCESS
}

fn trace_report_cmd(path: &str) -> ExitCode {
    let jsonl = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = trace_report::analyze(&jsonl);
    say!("{}", report.render().trim_end());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_export_cmd(path: &str, format_name: &str, out: Option<&str>) -> ExitCode {
    let Some(format) = ExportFormat::from_name(format_name) else {
        eprintln!("--format must be 'chrome' or 'folded', not {format_name:?}");
        return ExitCode::FAILURE;
    };
    let jsonl = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let export = export(&jsonl, format);
    if export.skipped_lines > 0 {
        eprintln!("warning: skipped {} corrupt line(s)", export.skipped_lines);
    }
    if export.unclosed_spans > 0 {
        eprintln!(
            "warning: {} span(s) never closed (omitted from export)",
            export.unclosed_spans
        );
    }
    match out {
        Some(out_path) => {
            if let Err(e) = std::fs::write(out_path, &export.output) {
                eprintln!("cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} event(s) to {out_path}", export.events);
        }
        None => {
            let mut stdout = std::io::stdout();
            if stdout.write_all(export.output.as_bytes()).is_err() {
                return ExitCode::SUCCESS;
            }
        }
    }
    ExitCode::SUCCESS
}

fn history_cmd(
    record_path: &str,
    last: usize,
    tolerance: f64,
    loadgen_reports: &[String],
) -> ExitCode {
    let records = match load_history(Path::new(record_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    say!("{}", render_history(&records, last).trim_end());
    let mut passed = true;
    if !records.is_empty() {
        let outcome = detect_drift(&records, tolerance);
        say!("{}", outcome.render().trim_end());
        passed &= outcome.passed();
    }
    if !loadgen_reports.is_empty() {
        let mut p99s: Vec<f64> = Vec::new();
        for path in loadgen_reports {
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match loadgen_steady_p99(&json) {
                Ok(LoadgenP99::Present(v)) => {
                    say!("loadgen p99: {path} steady-state p99 {v:.1}us");
                    p99s.push(v);
                }
                Ok(LoadgenP99::Absent(reason)) => {
                    say!("loadgen p99: SKIPPED {path} ({reason})");
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let outcome = loadgen_p99_drift(&p99s, tolerance);
        say!("{}", outcome.render().trim_end());
        passed &= outcome.passed();
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_cmd(html_out: &str, trace_path: Option<&str>, record_path: &str) -> ExitCode {
    let report = match trace_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(jsonl) => Some(trace_report::analyze(&jsonl)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let history = match load_history(Path::new(record_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let html = render_dashboard(report.as_ref(), &history);
    if let Err(e) = std::fs::write(html_out, html) {
        eprintln!("cannot write {html_out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote dashboard to {html_out}");
    ExitCode::SUCCESS
}

fn sim_report_cmd(quick: bool, json: bool, out: Option<&str>) -> ExitCode {
    let opts = if quick {
        RunOptions::quick()
    } else {
        RunOptions::default()
    };
    let doc = sim_report::generate(quick, &opts.validation);
    if let Some(path) = out {
        let payload = match serde_json::to_string_pretty(&doc) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot serialize sim report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, payload + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote sim report to {path}");
    }
    if json {
        match serde_json::to_string_pretty(&doc) {
            Ok(s) => say!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize sim report: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        say!("{}", sim_report::render(&doc).trim_end());
    }
    ExitCode::SUCCESS
}

fn accuracy_cmd(quick: bool, baseline_path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(baseline_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match AccuracyBaseline::from_json(&json) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = if quick {
        RunOptions::quick()
    } else {
        RunOptions::default()
    };
    let outcome = match run_gate(&baseline, &opts.validation) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    say!("{}", outcome.render().trim_end());
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = Args {
        rest: std::env::args().skip(1).collect(),
        given: Vec::new(),
    };
    if args.rest.iter().any(|a| a == "--version") {
        if args.rest.len() != 1 {
            eprintln!("--version takes no other arguments");
            return ExitCode::FAILURE;
        }
        let build = BuildProvenance::current();
        say!("repro {}", env!("CARGO_PKG_VERSION"));
        say!("commit  {}", build.git_commit);
        say!("rustc   {}", build.rustc);
        say!("cargo   {}", build.cargo);
        say!("profile {}", build.profile);
        return ExitCode::SUCCESS;
    }
    let cli = match Cli::parse(&mut args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let Args { rest: args, given } = args;
    let record_path = cli.record.as_deref().unwrap_or(DEFAULT_RECORD_PATH);
    if let Some(name) = args.first().map(String::as_str) {
        if let Some((flags, arity, line)) = subcommand(name) {
            let required = match name {
                "trace-export" => cli.format.is_some(),
                "report" => cli.html.is_some(),
                _ => true,
            };
            if !required
                || !arity.contains(&(args.len() - 1))
                || given.iter().any(|f| !flags.contains(f))
            {
                eprintln!("{line}");
                return ExitCode::FAILURE;
            }
            return match name {
                "list" => {
                    for e in EXPERIMENTS {
                        say!("{:<8} {}", e.id, e.title);
                    }
                    ExitCode::SUCCESS
                }
                "check-record" => check_record(record_path),
                "trace-report" => trace_report_cmd(&args[1]),
                "trace-export" => trace_export_cmd(
                    &args[1],
                    cli.format.as_deref().unwrap_or_default(),
                    cli.out.as_deref(),
                ),
                "history" => history_cmd(
                    record_path,
                    cli.last.unwrap_or(0),
                    cli.tolerance.unwrap_or(DEFAULT_DRIFT_TOLERANCE),
                    &cli.loadgen_reports,
                ),
                "report" => report_cmd(
                    cli.html.as_deref().unwrap_or_default(),
                    args.get(1).map(String::as_str),
                    record_path,
                ),
                "sim-report" => sim_report_cmd(cli.quick, cli.json, cli.out.as_deref()),
                "accuracy" => accuracy_cmd(
                    cli.quick,
                    cli.baseline.as_deref().unwrap_or(DEFAULT_ACCURACY_BASELINE),
                ),
                other => unreachable!("{other} is not a subcommand"),
            };
        }
    }
    if let Some(flag) = given.iter().find(|f| !RUN_FLAGS.contains(f)) {
        eprintln!("{flag} does not apply to experiment runs");
        usage();
        return ExitCode::FAILURE;
    }
    if args.is_empty() && !cli.all {
        usage();
        return ExitCode::FAILURE;
    }
    let wants_all = cli.all || args.iter().any(|a| a == "all");
    let selected: Vec<&'static swcc_experiments::Experiment> = if wants_all {
        if args.iter().any(|a| a != "all") {
            eprintln!("cannot combine 'all' with explicit experiment ids");
            usage();
            return ExitCode::FAILURE;
        }
        EXPERIMENTS.iter().collect()
    } else {
        let mut v: Vec<&'static swcc_experiments::Experiment> = Vec::new();
        for id in &args {
            match find(id) {
                Some(e) if v.iter().any(|s| s.id == e.id) => {
                    eprintln!("note: ignoring duplicate experiment id: {id}");
                }
                Some(e) => v.push(e),
                None => {
                    eprintln!("unknown experiment id: {id}");
                    usage();
                    return ExitCode::FAILURE;
                }
            }
        }
        v
    };
    let opts = if cli.quick {
        RunOptions::quick()
    } else {
        RunOptions::default()
    };
    let observe = cli.metrics || cli.record.is_some();
    let registry = if observe {
        let builder = swcc_core::metrics::register(swcc_obs::RegistryBuilder::new());
        let builder = swcc_sim::metrics::register(builder);
        let registry: &'static swcc_obs::MetricsRegistry =
            Box::leak(Box::new(runner::register_metrics(builder).build()));
        if swcc_obs::install(registry).is_err() {
            eprintln!("cannot install metrics recorder");
            return ExitCode::FAILURE;
        }
        Some(registry)
    } else {
        None
    };
    let trace_sink = if let Some(path) = &cli.trace {
        let sample = cli.trace_sample.unwrap_or(TRACE_SAMPLE_DEFAULT).max(1);
        let sink: &'static swcc_obs::JsonlSink = Box::leak(Box::new(
            swcc_obs::JsonlSink::with_sampling(TRACE_CAPACITY, sample),
        ));
        if swcc_obs::install_sink(sink).is_err() {
            eprintln!("cannot install trace sink");
            return ExitCode::FAILURE;
        }
        Some((sink, path.as_str()))
    } else {
        None
    };
    let jobs = cli
        .jobs
        .unwrap_or_else(|| NonZeroUsize::new(1).expect("1 is non-zero"));
    let count = selected.len();
    let wall = Instant::now();
    let records = run_selected_observed(&selected, &opts, jobs, observe);
    let wall = wall.elapsed();
    if cli.json {
        let artifacts: Vec<(&str, swcc_experiments::Artifact)> =
            records.iter().map(|r| (r.id, r.artifact.clone())).collect();
        match serde_json::to_string_pretty(&artifacts) {
            Ok(s) => say!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize artifacts: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for r in &records {
            say!("=== {} — {} ===", r.id, r.title);
            say!("{}", r.artifact.render());
        }
    }
    if let Some(registry) = registry {
        let totals = registry.snapshot();
        if let Some(path) = &cli.record {
            let record = RecordedRun::from_run(
                cli.quick,
                jobs.get(),
                &records,
                wall.as_secs_f64() * 1e3,
                &totals,
            );
            if let Err(e) = append_record(Path::new(path), &record) {
                eprintln!("cannot append run record to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("recorded run to {path}");
        }
        if cli.metrics {
            eprint!("{}", totals.render());
        }
    }
    if let Some((sink, path)) = trace_sink {
        if let Err(e) = sink.write_to(path) {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} trace event(s) to {path} ({} dropped)",
            sink.len(),
            sink.dropped()
        );
    }
    eprintln!(
        "ran {count} experiment(s) with {jobs} job(s) in {:.1} ms",
        wall.as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}
