//! End-to-end checks of the `simcli` binary: presets keep their shape
//! when rebuilt with flush records, and bad cache geometry from the
//! command line is an error message, not a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use swcc_trace::io::read_binary;
use swcc_trace::synth::thor_like;

fn simcli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simcli"))
        .args(args)
        .output()
        .expect("simcli runs")
}

/// A temporary file path unique to this test process and `name`.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simcli-test-{}-{name}", std::process::id()))
}

fn generate(preset: &str, path: &Path) {
    let out = simcli(&[
        "gen",
        preset,
        "--flushes",
        "--cpus",
        "2",
        "--instructions",
        "2000",
        "--seed",
        "5",
        "-o",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn gen_with_flushes_keeps_the_preset() {
    let thor = temp_path("thor.trc");
    let pops = temp_path("pops.trc");
    generate("thor", &thor);
    generate("pops", &pops);
    let read = |path: &Path| {
        let bytes = std::fs::read(path).expect("trace written");
        std::fs::remove_file(path).expect("trace removed");
        read_binary(bytes.as_slice()).expect("trace parses")
    };
    let (thor, pops) = (read(&thor), read(&pops));
    let want = thor_like(2, 2000, 5)
        .to_builder()
        .emit_flushes(true)
        .build()
        .generate();
    assert_eq!(thor, want);
    assert!(thor.iter().any(|a| a.kind == swcc_trace::AccessKind::Flush));
    assert_ne!(thor, pops, "each preset keeps its own workload");
}

#[test]
fn bad_cache_geometry_is_an_error_not_a_panic() {
    let trace = temp_path("geometry.trc");
    generate("pops", &trace);
    let path = trace.to_str().expect("utf-8 temp path");
    for (command, flags) in [
        ("run", ["--cache-kib", "48"]),
        ("measure", ["--cache-kib", "48"]),
        ("run", ["--ways", "0"]),
        ("measure", ["--ways", "0"]),
        ("run", ["--cache-kib", "18014398509481984"]),
        ("measure", ["--cache-kib", "18014398509481984"]),
    ] {
        let out = simcli(&[command, path, flags[0], flags[1]]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {flags:?}: {stderr}");
        assert!(
            stderr.starts_with("error: "),
            "{command} {flags:?}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{command} {flags:?}: {stderr}"
        );
    }
    let out = simcli(&["run", path, "--cache-kib", "16", "--ways", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&trace).expect("trace removed");
}
