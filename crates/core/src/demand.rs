//! Per-instruction demand: the paper's Equations 1 and 2.
//!
//! Charging a scheme's operation frequencies (Tables 3–6) at the costs of
//! a [`CostModel`] yields the average cycles per instruction:
//!
//! * `c = Σ freq(op) · cycles(op, cpu)` — total CPU cycles (Eq. 1), and
//! * `b = Σ freq(op) · cycles(op, interconnect)` — bus/network cycles
//!   (Eq. 2).
//!
//! One accumulator computes both sums for every entry point. It is the
//! sink each table pushes its terms into, and it charges each term as it
//! arrives, adding the terms in push order. [`scheme_demand`] and the
//! write-invalidate and directory analyses read only the two sums.
//! [`scheme_terms`] also hands each priced term to a reader, so a caller
//! that needs the terms themselves (the printed Tables 3–6, the
//! packet-switched model and the network simulators) reads its table in
//! the same single pass. Only the accumulator raises
//! [`ModelError::UnsupportedOperation`].
//!
//! `b` is the average interconnect transaction service time per
//! instruction and `1/(c − b)` the average transaction rate: transactions
//! are generated once every `c − b` processor cycles and each holds the
//! interconnect for `b` cycles on average.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{ModelError, Result};
use crate::scheme::{Scheme, TermSink};
use crate::system::{CostModel, OpCost, Operation};
use crate::workload::WorkloadParams;

/// Average per-instruction demand `(c, b)` in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    cpu: f64,
    interconnect: f64,
}

impl Demand {
    /// Average CPU cycles per instruction, `c` (Eq. 1). Includes the
    /// cycles during which the interconnect is held.
    pub fn cpu(&self) -> f64 {
        self.cpu
    }

    /// Average interconnect cycles per instruction, `b` (Eq. 2).
    pub fn interconnect(&self) -> f64 {
        self.interconnect
    }

    /// Processor "think time" between transactions, `c − b`.
    pub fn think_time(&self) -> f64 {
        self.cpu - self.interconnect
    }

    /// Average transaction rate `m = 1/(c − b)` in transactions per
    /// processor cycle.
    pub fn transaction_rate(&self) -> f64 {
        1.0 / self.think_time()
    }

    /// Average transaction service time `t = b` in cycles.
    pub fn transaction_size(&self) -> f64 {
        self.interconnect
    }
}

impl fmt::Display for Demand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c = {:.4} cpu cycles/instr, b = {:.4} interconnect cycles/instr",
            self.cpu, self.interconnect
        )
    }
}

/// The Eq. 1–2 accumulator: a [`TermSink`] that charges each term its
/// cost under `system` as the term arrives, then hands the priced term
/// to `observe`.
///
/// After the first nonzero term the cost model lacks, later terms are
/// checked but neither charged nor observed, and [`charge`] reports
/// that term.
pub(crate) struct Charge<'a, M, F> {
    system: &'a M,
    observe: F,
    cpu: f64,
    interconnect: f64,
    unsupported: Option<Operation>,
}

impl<M: CostModel, F: FnMut(Operation, f64, OpCost)> TermSink for Charge<'_, M, F> {
    #[inline]
    fn take(&mut self, op: Operation, freq: f64) {
        if self.unsupported.is_some() {
            return;
        }
        match self.system.cost(op) {
            Some(cost) => {
                self.cpu += freq * f64::from(cost.cpu());
                self.interconnect += freq * f64::from(cost.interconnect());
                (self.observe)(op, freq, cost);
            }
            None => self.unsupported = Some(op),
        }
    }
}

/// Eqs. 1–2 over the terms `table` pushes into the accumulator, each
/// charged term also handed to `observe`.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] naming the first nonzero
/// term the cost model does not define.
#[inline]
pub(crate) fn charge<'a, M: CostModel, F: FnMut(Operation, f64, OpCost)>(
    system: &'a M,
    observe: F,
    table: impl FnOnce(&mut Charge<'a, M, F>),
) -> Result<Demand> {
    let mut sum = Charge {
        system,
        observe,
        cpu: 0.0,
        interconnect: 0.0,
        unsupported: None,
    };
    table(&mut sum);
    match sum.unsupported {
        Some(operation) => Err(ModelError::UnsupportedOperation {
            operation,
            model: system.model_name(),
        }),
        None => Ok(Demand {
            cpu: sum.cpu,
            interconnect: sum.interconnect,
        }),
    }
}

/// Reads a scheme's table (Tables 3–6) under a workload and cost model in
/// one pass: each term of nonzero frequency is charged into Eqs. 1–2 and
/// then handed to `observe` as `(operation, frequency, cost)`, in table
/// order. Returns the demand those terms sum to.
///
/// A table pushes each operation at most once, so `observe` sees each
/// operation at most once.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] if the table has a
/// nonzero term the cost model does not define — e.g. a Dragon
/// write-broadcast on the multistage-network model. `observe` may have
/// seen the terms before it; a caller discards what it built from them.
#[inline]
pub fn scheme_terms<M: CostModel>(
    scheme: Scheme,
    workload: &WorkloadParams,
    system: &M,
    observe: impl FnMut(Operation, f64, OpCost),
) -> Result<Demand> {
    charge(system, observe, |sum| scheme.terms(workload, sum))
}

/// Demand of a scheme under a workload and cost model (Eqs. 1–2):
/// [`scheme_terms`] with no reader.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] as [`scheme_terms`]
/// does.
pub fn scheme_demand<M: CostModel>(
    scheme: Scheme,
    workload: &WorkloadParams,
    system: &M,
) -> Result<Demand> {
    scheme_terms(scheme, workload, system, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::directory_terms;
    use crate::invalidate::invalidate_terms;
    use crate::scheme::collect::Collected;
    use crate::system::{BusSystemModel, NetworkSystemModel};
    use crate::workload::{Level, ParamId};
    use proptest::TestRng;

    /// The oracle of `streamed_demand_equals_the_stored_mix_fold_bit_for_bit`:
    /// Eqs. 1–2 summed over a table's collected terms in push order, with
    /// its own cost lookups, failing on the first operation the cost
    /// model lacks.
    fn fold<M: CostModel>(terms: &Collected, system: &M) -> Result<Demand> {
        let mut cpu = 0.0;
        let mut interconnect = 0.0;
        for &(op, freq) in &terms.0 {
            let cost = system.cost(op).ok_or(ModelError::UnsupportedOperation {
                operation: op,
                model: system.model_name(),
            })?;
            cpu += freq * f64::from(cost.cpu());
            interconnect += freq * f64::from(cost.interconnect());
        }
        Ok(Demand { cpu, interconnect })
    }

    /// Equal bits, or equal errors.
    fn same(got: &Result<Demand>, want: &Result<Demand>) -> bool {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                g.cpu.to_bits() == w.cpu.to_bits()
                    && g.interconnect.to_bits() == w.interconnect.to_bits()
            }
            (Err(g), Err(w)) => g == w,
            _ => false,
        }
    }

    /// `low` or `high` exactly a quarter of the time each, otherwise
    /// uniform between them.
    fn edge_or_uniform(rng: &mut TestRng, low: f64, high: f64) -> f64 {
        match rng.below(4) {
            0 => low,
            1 => high,
            _ => low + (high - low) * rng.unit_f64(),
        }
    }

    fn random_workload(rng: &mut TestRng) -> WorkloadParams {
        let mut w = WorkloadParams::default();
        for id in ParamId::ALL {
            let v = match id {
                ParamId::Apl => edge_or_uniform(rng, 1.0, 64.0),
                ParamId::Nshd => edge_or_uniform(rng, 0.0, 16.0),
                _ => edge_or_uniform(rng, 0.0, 1.0),
            };
            w = w.with_param(id, v).unwrap();
        }
        w
    }

    /// The six tables under `w`, collected: Tables 3–6, write-invalidate
    /// and directory.
    fn collected_tables(w: &WorkloadParams) -> Vec<(String, Collected)> {
        let mut tables: Vec<_> = Scheme::ALL
            .into_iter()
            .map(|s| (s.to_string(), Collected::scheme(s, w)))
            .collect();
        tables.push((
            "write-invalidate".into(),
            Collected::from(|sink| invalidate_terms(w, sink)),
        ));
        tables.push((
            "directory".into(),
            Collected::from(|sink| directory_terms(w, sink)),
        ));
        tables
    }

    /// One table read through the accumulator, against the oracle over
    /// its collected `terms`: the same bits or the same error, and on
    /// success the reader saw exactly those terms, each with its cost.
    fn check<M: CostModel>(
        name: &dyn fmt::Display,
        w: &WorkloadParams,
        system: &M,
        terms: &Collected,
        got: &Result<Demand>,
        seen: &[(Operation, f64, OpCost)],
    ) {
        let want = fold(terms, system);
        assert!(
            same(got, &want),
            "{name} on {system:?} at {w:?}: {got:?}, oracle {want:?}"
        );
        if want.is_ok() {
            let priced: Vec<_> = terms
                .0
                .iter()
                .map(|&(op, freq)| (op, freq, system.cost(op).unwrap()))
                .collect();
            assert_eq!(seen, priced, "{name} on {system:?} at {w:?}");
        }
    }

    /// Every table under one cost model, checked against the oracle.
    fn check_tables<M: CostModel>(w: &WorkloadParams, system: &M) {
        for scheme in Scheme::ALL {
            let mut seen = Vec::new();
            let got = scheme_terms(scheme, w, system, |op, freq, cost| {
                seen.push((op, freq, cost))
            });
            let demand = scheme_demand(scheme, w, system);
            assert!(same(&demand, &got), "{scheme}: {demand:?} vs {got:?}");
            let terms = Collected::scheme(scheme, w);
            check(&scheme, w, system, &terms, &got, &seen);
        }
        let mut seen = Vec::new();
        let got = charge(
            system,
            |op, freq, cost| seen.push((op, freq, cost)),
            |sum| invalidate_terms(w, sum),
        );
        let terms = Collected::from(|sink| invalidate_terms(w, sink));
        check(&"write-invalidate", w, system, &terms, &got, &seen);
        let mut seen = Vec::new();
        let got = charge(
            system,
            |op, freq, cost| seen.push((op, freq, cost)),
            |sum| directory_terms(w, sum),
        );
        let terms = Collected::from(|sink| directory_terms(w, sink));
        check(&"directory", w, system, &terms, &got, &seen);
    }

    #[test]
    fn streamed_demand_equals_the_stored_mix_fold_bit_for_bit() {
        // Release builds (CI's `cargo test --release -p swcc-core`) run
        // far more cases.
        const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 100_000 };
        let mut rng = TestRng::deterministic("streamed_demand_equals_the_stored_mix_fold");
        for _ in 0..CASES {
            let w = random_workload(&mut rng);
            check_tables(&w, &BusSystemModel::new());
            let hardware = BusSystemModel::from_hardware(
                1 + rng.below(16) as u32,
                rng.below(9) as u32,
                1 + rng.below(6) as u32,
            );
            check_tables(&w, &hardware);
            // Without sharing every snoopy Dragon term is zero, so Dragon
            // runs on a network.
            let unshared = w.with_param(ParamId::Shd, 0.0).unwrap();
            for stages in 0..=10 {
                let network = NetworkSystemModel::new(stages);
                check_tables(&w, &network);
                assert!(
                    scheme_demand(Scheme::Dragon, &unshared, &network).is_ok(),
                    "Dragon at shd = 0 on {stages} stages: {unshared:?}"
                );
            }
        }
    }

    #[test]
    fn no_table_pushes_an_operation_twice() {
        // Each reader of `scheme_terms` (the network simulators' sampling
        // tables above all) takes one term per operation; a repeated
        // operation would be sampled twice.
        let mut rng = TestRng::deterministic("no_table_pushes_an_operation_twice");
        for _ in 0..1_000 {
            let w = random_workload(&mut rng);
            for (name, terms) in collected_tables(&w) {
                for (i, &(op, _)) in terms.0.iter().enumerate() {
                    assert!(
                        terms.0[..i].iter().all(|&(o, _)| o != op),
                        "{name} pushes {op} twice at {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn base_demand_matches_hand_computation() {
        // miss = 0.0064; clean = 0.00512, dirty = 0.00128.
        // c = 1 + 0.00512*10 + 0.00128*14 = 1.06912
        // b = 0.00512*7 + 0.00128*11 = 0.04992
        let w = WorkloadParams::at_level(Level::Middle);
        let d = scheme_demand(Scheme::Base, &w, &BusSystemModel::new()).unwrap();
        assert!((d.cpu() - 1.06912).abs() < 1e-10);
        assert!((d.interconnect() - 0.04992).abs() < 1e-10);
    }

    #[test]
    fn cpu_always_exceeds_interconnect() {
        let sys = BusSystemModel::new();
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            for s in Scheme::ALL {
                let d = scheme_demand(s, &w, &sys).unwrap();
                assert!(d.cpu() > d.interconnect(), "{s} at {level}");
                assert!(
                    d.think_time() >= 1.0,
                    "{s} at {level}: every instruction \
                     contributes at least its own execution cycle off the bus"
                );
            }
        }
    }

    #[test]
    fn dragon_on_network_is_unsupported() {
        let w = WorkloadParams::default();
        let err = scheme_demand(Scheme::Dragon, &w, &NetworkSystemModel::new(4)).unwrap_err();
        assert!(matches!(err, ModelError::UnsupportedOperation { .. }));
    }

    #[test]
    fn software_schemes_work_on_network() {
        let w = WorkloadParams::default();
        let net = NetworkSystemModel::new(8);
        for s in [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush] {
            let d = scheme_demand(s, &w, &net).unwrap();
            assert!(d.cpu() > 1.0, "{s}");
        }
    }

    #[test]
    fn base_is_cheapest_when_sharing_exists() {
        // §5.1: "Base performs best as long as shd > 0".
        let sys = BusSystemModel::new();
        let w = WorkloadParams::at_level(Level::Middle);
        let base = scheme_demand(Scheme::Base, &w, &sys).unwrap();
        for s in [Scheme::NoCache, Scheme::SoftwareFlush, Scheme::Dragon] {
            let d = scheme_demand(s, &w, &sys).unwrap();
            assert!(d.cpu() >= base.cpu(), "{s} cpu");
            assert!(d.interconnect() >= base.interconnect(), "{s} bus");
        }
    }

    #[test]
    fn schemes_coincide_without_sharing() {
        // §5.1: "If shd = 0 the schemes are identical" (up to Dragon's
        // unshared stores, which cost nothing extra).
        let sys = BusSystemModel::new();
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 0.0)
            .unwrap();
        let base = scheme_demand(Scheme::Base, &w, &sys).unwrap();
        for s in Scheme::ALL {
            let d = scheme_demand(s, &w, &sys).unwrap();
            assert!((d.cpu() - base.cpu()).abs() < 1e-12, "{s}");
            assert!(
                (d.interconnect() - base.interconnect()).abs() < 1e-12,
                "{s}"
            );
        }
    }

    #[test]
    fn transaction_rate_is_reciprocal_of_think_time() {
        let w = WorkloadParams::default();
        let d = scheme_demand(Scheme::Dragon, &w, &BusSystemModel::new()).unwrap();
        assert!((d.transaction_rate() * d.think_time() - 1.0).abs() < 1e-12);
        assert_eq!(d.transaction_size(), d.interconnect());
    }

    #[test]
    fn empty_mix_has_zero_demand() {
        // Zero-frequency terms are charged nothing and reach no reader,
        // even for an operation the cost model lacks.
        let mut seen = 0;
        let d = charge(
            &NetworkSystemModel::new(3),
            |_, _, _| seen += 1,
            |sum| {
                sum.push(Operation::Instruction, 0.0);
                sum.push(Operation::WriteBroadcast, -0.0);
            },
        )
        .unwrap();
        assert_eq!(d.cpu(), 0.0);
        assert_eq!(d.interconnect(), 0.0);
        assert_eq!(seen, 0);
    }
}
