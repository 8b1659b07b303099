//! Command-line entry point of the benchmark.
//!
//! ```text
//! swcc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then one JSON object as the last
//! line of standard output. Exits 0 when every correctness check
//! passed, 1 when one failed, and 2 on a usage error.

use std::process::ExitCode;

use swcc_perfbench::{run, RunConfig, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: swcc-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 || s > 60 {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunConfig {
            seed: seed.unwrap_or(swcc_perfbench::DEFAULT_SEED),
            seconds: seconds.unwrap_or(20),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&workload, &cfg) {
        Ok(report) => {
            if report.print() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
