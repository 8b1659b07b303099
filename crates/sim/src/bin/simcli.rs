//! `simcli` — drive the multiprocessor simulator from the command line.
//!
//! ```text
//! simcli gen  <pops|thor|pero> [--cpus N] [--instructions N] [--seed S]
//!             [--flushes] [--text] -o FILE       generate a trace
//! simcli run  FILE [--protocol P] [--cache-kib N] [--ways N]
//!             [--exponential]                    simulate a trace file
//! simcli measure FILE [--cache-kib N]            extract Table 2 parameters
//! simcli netsim [--scheme S] [--stages N] [--instructions N] [--seed S]
//!                                                circuit-switched network run
//! ```
//!
//! Protocols: `base`, `nocache`, `swflush`, `dragon`, `winv`
//! (write-invalidate, alias `mesi`). Schemes for
//! `netsim`: `base`, `nocache`, `swflush`. Trace files ending in `.txt`
//! are text format; anything else is binary.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use swcc_core::workload::{ParamId, WorkloadParams};
use swcc_sim::measure::measure_workload;
use swcc_sim::{
    simulate, simulate_network, NetworkSimConfig, ProtocolKind, ServiceDiscipline, SimConfig,
};
use swcc_trace::synth::Preset;
use swcc_trace::{io as trace_io, Trace};

/// Prints to stdout, exiting quietly if the reader closed the pipe
/// (e.g. `simcli run ... | head`).
fn emit(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout();
    if writeln!(out, "{text}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! say {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  simcli gen <pops|thor|pero> [--cpus N] [--instructions N] [--seed S] \
         [--flushes] [--text] -o FILE\n  simcli run FILE [--protocol base|nocache|swflush|dragon] \
         [--cache-kib N] [--ways N] [--exponential]\n  simcli measure FILE [--cache-kib N]\n  \
         simcli netsim [--scheme base|nocache|swflush] [--stages N] [--instructions N] [--seed S]"
    );
    ExitCode::FAILURE
}

/// A tiny flag parser: collects `--key value` pairs, bare flags, and
/// positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if it.peek().is_some_and(|v| !v.starts_with('-')) {
                    it.next()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                let value = it.next();
                flags.push(("output".to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
        }
    }
}

fn protocol_from(name: &str) -> Option<ProtocolKind> {
    match name {
        "base" => Some(ProtocolKind::Base),
        "nocache" => Some(ProtocolKind::NoCache),
        "swflush" => Some(ProtocolKind::SoftwareFlush),
        "dragon" => Some(ProtocolKind::Dragon),
        "winv" | "mesi" => Some(ProtocolKind::WriteInvalidate),
        _ => None,
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let result = if path.ends_with(".txt") {
        trace_io::read_text(reader)
    } else {
        trace_io::read_binary(reader)
    };
    result.map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let preset = match args.positional.first().map(String::as_str) {
        Some("pops") => Preset::Pops,
        Some("thor") => Preset::Thor,
        Some("pero") => Preset::Pero,
        other => return Err(format!("unknown preset {other:?} (pops|thor|pero)")),
    };
    let cpus: u16 = args.num("cpus", 4)?;
    let instructions: usize = args.num("instructions", 100_000)?;
    if cpus == 0 {
        return Err("--cpus must be at least 1".into());
    }
    if instructions == 0 {
        return Err("--instructions must be at least 1".into());
    }
    let seed: u64 = args.num("seed", 42)?;
    let output = args.flag("output").ok_or("missing -o FILE")?;
    let config = preset
        .config(cpus, instructions, seed)
        .to_builder()
        .emit_flushes(args.has("flushes"))
        .build();
    let trace = config.generate();
    let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let writer = BufWriter::new(file);
    let res = if args.has("text") || output.ends_with(".txt") {
        trace_io::write_text(&trace, writer)
    } else {
        trace_io::write_binary(&trace, writer)
    };
    res.map_err(|e| format!("cannot write {output}: {e}"))?;
    say!(
        "wrote {} records ({} cpus, {} instructions each) to {output}",
        trace.len(),
        cpus,
        instructions
    );
    Ok(())
}

fn sim_config(args: &Args, protocol: ProtocolKind) -> Result<SimConfig, String> {
    let cache_kib: u64 = args.num("cache-kib", 64)?;
    let ways: usize = args.num("ways", 1)?;
    let cache_bytes = cache_kib
        .checked_mul(1024)
        .ok_or_else(|| format!("--cache-kib {cache_kib} is too large"))?;
    let mut b = SimConfig::builder(protocol);
    b.cache_bytes(cache_bytes).ways(ways);
    if args.has("exponential") {
        b.service(ServiceDiscipline::Exponential);
    }
    b.check_geometry()
        .map_err(|e| format!("bad cache geometry (--cache-kib {cache_kib} --ways {ways}): {e}"))?;
    Ok(b.build())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("missing trace file")?;
    let protocol = protocol_from(args.flag("protocol").unwrap_or("dragon"))
        .ok_or("bad --protocol (base|nocache|swflush|dragon|winv)")?;
    let trace = load_trace(path)?;
    let config = sim_config(args, protocol)?;
    let report = simulate(&trace, &config);
    say!("{report}");
    for cpu in 0..report.cpus() {
        let c = report.counters(cpu);
        say!(
            "  cpu{cpu}: {} instr, U={:.4}, wait={}, misses d={} i={}",
            c.instructions,
            report.utilization(cpu),
            c.contention_cycles,
            c.data_misses,
            c.instr_misses
        );
    }
    Ok(())
}

fn print_workload(w: &WorkloadParams) {
    for id in ParamId::ALL {
        say!("  {:<8} {:.6}", id.name(), w.param(id));
    }
}

fn cmd_measure(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("missing trace file")?;
    let trace = load_trace(path)?;
    let config = sim_config(args, ProtocolKind::Dragon)?;
    let workload = measure_workload(&trace, &config);
    say!("measured Table 2 parameters ({path}):");
    print_workload(&workload);
    Ok(())
}

fn cmd_netsim(args: &Args) -> Result<(), String> {
    let scheme = match args.flag("scheme").unwrap_or("swflush") {
        "base" => swcc_core::scheme::Scheme::Base,
        "nocache" => swcc_core::scheme::Scheme::NoCache,
        "swflush" => swcc_core::scheme::Scheme::SoftwareFlush,
        other => return Err(format!("bad --scheme {other:?} (base|nocache|swflush)")),
    };
    let stages: u32 = args.num("stages", 4)?;
    let instructions: u64 = args.num("instructions", 20_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let workload = WorkloadParams::default();
    let report = simulate_network(
        scheme,
        &workload,
        &NetworkSimConfig {
            stages,
            instructions_per_cpu: instructions,
            seed,
        },
    )
    .map_err(|e| e.to_string())?;
    let model = swcc_core::network::analyze_network(scheme, &workload, stages)
        .map_err(|e| e.to_string())?;
    say!(
        "{scheme} on {} processors: sim U={:.4} power={:.2} retries/txn={:.3}",
        report.processors(),
        report.utilization(),
        report.power(),
        report.retries_per_transaction()
    );
    say!(
        "analytical model:      U={:.4} power={:.2}",
        model.utilization(),
        model.power()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return usage();
    }
    let command = raw.remove(0);
    let args = Args::parse(raw);
    let result = match command.as_str() {
        "gen" => cmd_gen(&args),
        "run" => cmd_run(&args),
        "measure" => cmd_measure(&args),
        "netsim" => cmd_netsim(&args),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
