//! The batch coherence-query server.
//!
//! ```text
//! swcc-serve [--addr HOST:PORT] [--workers N]
//!            [--read-timeout-ms MS] [--solve-timeout-ms MS]
//!            [--telemetry-addr HOST:PORT] [--access-log PATH]
//!            [--slow-threshold-us US] [--slow-capacity N]
//! ```
//!
//! Binds the listener, installs a process-wide metrics registry
//! covering the model and serve layers and passes it to the server,
//! prints one `listening on …` line to stdout, and serves until a
//! client sends `{"cmd":"shutdown"}`. On exit it prints a final stats
//! line.
//!
//! Live telemetry is always available in-band via
//! `{"cmd":"telemetry"}`. With `--telemetry-addr` a second listener
//! additionally serves scrapers over plain HTTP: `GET /metrics`
//! (Prometheus text), `/telemetry` (JSON), `/slow` (slow-request
//! captures). `--access-log` appends one JSONL line per request;
//! `--slow-threshold-us` (default 100000, `0` disables) captures any
//! slower request's phase spans into a ring of `--slow-capacity`
//! (default 32) entries.

use std::process::ExitCode;
use std::time::Duration;

use swcc_serve::{spawn, ServeConfig};

fn usage() -> &'static str {
    "usage: swcc-serve [--addr HOST:PORT] [--workers N] \
     [--read-timeout-ms MS] [--solve-timeout-ms MS] \
     [--telemetry-addr HOST:PORT] [--access-log PATH] \
     [--slow-threshold-us US (default 100000, 0 disables)] \
     [--slow-capacity N (default 32)]"
}

fn parse_args() -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if config.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
                config.read_timeout = Duration::from_millis(ms.max(1));
            }
            "--solve-timeout-ms" => {
                let ms: u64 = value("--solve-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--solve-timeout-ms: {e}"))?;
                config.solve_timeout = Duration::from_millis(ms.max(1));
            }
            "--telemetry-addr" => config.telemetry_addr = Some(value("--telemetry-addr")?),
            "--access-log" => config.access_log = Some(value("--access-log")?),
            "--slow-threshold-us" => {
                config.slow_threshold_us = value("--slow-threshold-us")?
                    .parse()
                    .map_err(|e| format!("--slow-threshold-us: {e}"))?;
                if !config.slow_threshold_us.is_finite() || config.slow_threshold_us < 0.0 {
                    return Err("--slow-threshold-us must be a finite non-negative number".into());
                }
            }
            "--slow-capacity" => {
                config.slow_capacity = value("--slow-capacity")?
                    .parse()
                    .map_err(|e| format!("--slow-capacity: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let mut config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("swcc-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let registry = swcc_serve::metrics::register(swcc_core::metrics::register(
        swcc_obs::RegistryBuilder::new(),
    ))
    .build();
    // Core's solvers record through the installed registry and the
    // server records into the one it is passed: passing the same one
    // puts both layers' counters in `stats`, `telemetry` and `/metrics`.
    let registry: &'static swcc_obs::MetricsRegistry = Box::leak(Box::new(registry));
    let _ = swcc_obs::install(registry);
    config.registry = Some(registry);

    let workers = config.workers;
    let running = match spawn(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("swcc-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "swcc-serve listening on {} ({} workers)",
        running.addr(),
        workers
    );
    if let Some(addr) = running.telemetry_addr() {
        println!("swcc-serve telemetry on {addr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let state = std::sync::Arc::clone(running.state());
    running.join();
    println!("swcc-serve stopped: {}", state.stats_response());
    ExitCode::SUCCESS
}
