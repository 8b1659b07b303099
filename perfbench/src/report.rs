//! Metric definitions, statistics, and the run's output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use swcc_obs::quantile;

use crate::spans::{Recorder, SpanTotals};

/// End-to-end metrics, printed by every workload when tracing is off.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload when tracing is on; a
/// layer the workload does not call reads 0. Must match `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("trace.synth_ns_per_record", "ns"),
    ("sim.measure_ns_per_record", "ns"),
    ("sim.simulate_ns_per_record.base", "ns"),
    ("sim.simulate_ns_per_record.no-cache", "ns"),
    ("sim.simulate_ns_per_record.software-flush", "ns"),
    ("sim.simulate_ns_per_record.dragon", "ns"),
    ("sim.simulate_ns_per_record.write-invalidate", "ns"),
    ("sim.simulate_ns_per_record.network", "ns"),
    ("sim.count.bus_transactions", "count"),
    ("sim.count.invalidations", "count"),
    ("sim.count.updates", "count"),
    ("sim.count.write_backs", "count"),
    ("sim.count.fills", "count"),
    ("sim.count.flushes", "count"),
    ("sim.count.makespan_cycles", "cycles"),
    ("model.validate_us_per_point", "us"),
    ("model.power_rel_err_max", "ratio"),
    ("model.bus_sweep_ns_per_point", "ns"),
    ("model.network_curve_us", "us"),
    ("model.analyze_network_us", "us"),
    ("model.sensitivity_table_us", "us"),
    ("model.directory_us", "us"),
    ("model.batch_patel_ns_per_lane", "ns"),
    ("model.mva_grid_ns_per_lane", "ns"),
    ("model.patel_iterations_per_lane", "count"),
    ("serve.parse_us", "us"),
    ("serve.batch_us", "us"),
    ("serve.phase.plan_us", "us"),
    ("serve.phase.admit_us", "us"),
    ("serve.phase.solve.bus_us", "us"),
    ("serve.phase.solve.network_us", "us"),
    ("serve.phase.resolve_us", "us"),
    ("serve.phase.render_us", "us"),
    ("serve.phase.admit_us.first_fifth", "us"),
    ("serve.phase.admit_us.last_fifth", "us"),
    ("serve.record_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.probes_per_lookup", "count"),
    ("cache.entries", "count"),
    ("serve.solve_lanes_per_request", "count"),
    ("serve.response_bytes_per_point", "B"),
    ("trace.overhead_pct", "%"),
];

/// Median of `samples` (type-7, as everywhere in the workspace); NaN
/// when there are none, which fails the run's finiteness check.
fn median(samples: &[f64]) -> f64 {
    quantile::median(samples).unwrap_or(f64::NAN)
}

/// Samples strictly above the `q` quantile position: a percentile is
/// meaningful only with at least ten of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// One timed pass: per-op host time and the items produced, split into
/// rounds of equal work.
///
/// The end-to-end figures are medians over rounds of each round's own
/// figure, so a burst of interference from outside the process that
/// spans a minority of rounds does not move them.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host nanoseconds of each op, in op order.
    pub op_ns: Vec<u64>,
    /// Items the ops produced (records, points).
    pub items: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Digest of the results the pass produced.
    pub digest: u64,
    /// `(ops, items)` at the end of each round.
    rounds: Vec<(usize, u64)>,
}

impl Pass {
    /// Closes the current round.
    pub fn end_round(&mut self) {
        self.rounds.push((self.op_ns.len(), self.items));
    }

    /// Each round's op times and item count.
    fn rounds(&self) -> Vec<(&[u64], u64)> {
        let mut out = Vec::new();
        let (mut ops, mut items) = (0, 0);
        for &(end_ops, end_items) in &self.rounds {
            out.push((&self.op_ns[ops..end_ops], end_items - items));
            (ops, items) = (end_ops, end_items);
        }
        out
    }

    /// Rounds in the pass.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Median over rounds of items per second of op time.
    pub fn items_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds()
            .iter()
            .map(|(ops, items)| *items as f64 / (ops.iter().sum::<u64>() as f64 / 1e9))
            .collect();
        median(&rates)
    }

    /// Median over rounds of each round's 50th and 90th percentile op
    /// time, ms.
    pub fn op_p50_p90_ms(&self) -> (f64, f64) {
        let (mut p50, mut p90) = (Vec::new(), Vec::new());
        for (ops, _) in self.rounds() {
            let ms: Vec<f64> = ops.iter().map(|&ns| ns as f64 / 1e6).collect();
            if let Some(q) = quantile::quantiles(&ms, &[0.5, 0.9]) {
                p50.extend(q[0]);
                p90.extend(q[1]);
            }
        }
        (median(&p50), median(&p90))
    }

    /// Fewest ops in any round.
    pub fn min_round_ops(&self) -> usize {
        self.rounds()
            .iter()
            .map(|(ops, _)| ops.len())
            .min()
            .unwrap_or(0)
    }
}

#[derive(Debug)]
struct Line {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    workload: String,
    trace: bool,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The timed pass behind the end-to-end metrics.
    pub pass: Pass,
    /// Ops attempted (all passes of the run).
    pub attempted: u64,
    /// Ops failed (all passes of the run).
    pub failed: u64,
    /// Peak live heap bytes during the untraced pass, set-up included.
    pub peak_heap_bytes: u64,
    checks: Vec<(String, bool, String)>,
    info: Vec<Line>,
    layers: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            trace,
            setup_s: Vec::new(),
            pass: Pass::default(),
            attempted: 0,
            failed: 0,
            peak_heap_bytes: 0,
            checks: Vec::new(),
            info: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Runs one set-up repetition, adding its host time to `setup_s`.
    pub fn time_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let made = setup();
        self.setup_s.push(started.elapsed().as_secs_f64());
        made
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records an informational metric (printed, not in the JSON line).
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.info.push(Line {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a per-layer metric measured over `samples` calls.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared"
        );
        self.layers.insert(name, (value, samples));
    }

    /// Records each span name's share of op time (self time over the
    /// summed duration of the `op` spans) as informational lines: the
    /// traced composition of the workload.
    pub fn composition(&mut self, totals: &SpanTotals) {
        let op_ns = totals.ns("op");
        for (name, t) in totals.iter() {
            self.info(
                &format!("share.{name}"),
                t.self_ns as f64 / op_ns * 100.0,
                "%",
                t.count as usize,
            );
        }
    }

    /// Counts a pass's ops into the run's attempted/failed totals.
    pub fn count_ops(&mut self, pass: &Pass) {
        self.attempted += pass.op_ns.len() as u64;
        self.failed += pass.failed;
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    fn end_to_end(&self) -> Vec<Line> {
        let n = self.pass.op_ns.len();
        let (p50, p90) = self.pass.op_p50_p90_ms();
        let values = [
            (median(&self.setup_s), self.setup_s.len()),
            (self.pass.items_per_s(), n),
            (p50, n),
            (p90, n),
            (self.peak_heap_bytes as f64 / (1024.0 * 1024.0), 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Line {
                name: name.to_string(),
                value,
                unit,
                samples,
            })
            .collect()
    }

    fn per_layer(&self) -> Vec<Line> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.layers.get(name).copied().unwrap_or((0.0, 0));
                Line {
                    name: name.to_string(),
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }

    /// Prints the human-readable report, then the result as one JSON
    /// object on the last line. Returns whether the run is correct.
    pub fn print(mut self) -> bool {
        let metrics = if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for m in &metrics {
            if !m.value.is_finite() {
                self.check(&format!("{} is finite", m.name), false, "not a number");
            }
        }
        let round_ops = self.pass.min_round_ops();
        if !self.trace && samples_beyond(round_ops, 0.9) < 10 {
            self.check(
                "op_p90_ms has ten samples beyond it in every round",
                false,
                format!("only {round_ops} ops in a round"),
            );
        }
        let mode = if self.trace { "traced" } else { "untraced" };
        println!(
            "workload {} ({mode}): {} ops in {} rounds; figures are medians over rounds",
            self.workload,
            self.pass.op_ns.len(),
            self.pass.round_count()
        );
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok  " } else { "FAIL" };
            println!("check {verdict} {name}: {detail}");
        }
        for m in &metrics {
            let note = if self.trace && !self.layers.contains_key(m.name.as_str()) {
                " (layer not called by this workload)"
            } else {
                ""
            };
            println!(
                "metric {} = {} {} (n={}){note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.info {
            println!("info {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let correct = self.correct();
        let mut json = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// Ops whose spans are written out; the per-layer totals use them all.
const WRITTEN_OPS: u32 = 1_000;

/// Writes a traced pass's spans (those of its first [`WRITTEN_OPS`] ops)
/// to `.bench_out/` under the working directory (the checkout root when
/// run through `run.py`).
pub fn write_spans(rec: &Recorder, workload: &str, seed: u64) {
    let path = PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl"));
    match rec.write_jsonl(&path, WRITTEN_OPS) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
