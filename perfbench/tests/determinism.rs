//! The benchmark's own contract: fixed work per seed, and metric names
//! that match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use swcc_perfbench::report::{END_TO_END, PER_LAYER};
use swcc_perfbench::{run, RunConfig, WORKLOADS};

#[test]
fn same_seed_gives_same_ops_items_and_digest() {
    let cfg = RunConfig {
        seed: 3,
        seconds: 1,
        trace: false,
    };
    for workload in WORKLOADS {
        let a = run(workload, &cfg).expect("known workload");
        let b = run(workload, &cfg).expect("known workload");
        assert!(a.correct() && b.correct(), "{workload}: checks pass");
        assert_eq!(
            a.pass.op_ns.len(),
            b.pass.op_ns.len(),
            "{workload}: op count"
        );
        assert_eq!(a.pass.items, b.pass.items, "{workload}: item count");
        assert_eq!(a.pass.digest, b.pass.digest, "{workload}: result digest");
        assert_eq!(a.attempted, b.attempted, "{workload}: attempted ops");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = RunConfig {
        seed: 1,
        seconds: 1,
        trace: false,
    };
    assert!(run("no-such-workload", &cfg).is_err());
}

fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get_field(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get_field(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_the_benchmark_spec() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&spec, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = spec
        .get_field("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get_field("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
