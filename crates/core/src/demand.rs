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
//! sink each table pushes its terms into: [`scheme_demand`] and the
//! write-invalidate and directory analyses stream their table straight
//! into it, and [`demand`] replays a stored [`OperationMix`] through it.
//! It charges each term as it arrives and adds the terms in push order,
//! so a streamed table and its stored mix give the same bits.
//!
//! `b` is the average interconnect transaction service time per
//! instruction and `1/(c − b)` the average transaction rate: transactions
//! are generated once every `c − b` processor cycles and each holds the
//! interconnect for `b` cycles on average.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{ModelError, Result};
use crate::scheme::{OperationMix, Scheme, TermSink};
use crate::system::{CostModel, Operation};
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
/// cost under `system` as the term arrives.
///
/// After the first nonzero term the cost model lacks, later terms are
/// checked but not charged, and [`charge`] reports that term.
pub(crate) struct Charge<'a, M> {
    system: &'a M,
    cpu: f64,
    interconnect: f64,
    unsupported: Option<Operation>,
}

impl<M: CostModel> TermSink for Charge<'_, M> {
    #[inline]
    fn take(&mut self, op: Operation, freq: f64) {
        if self.unsupported.is_some() {
            return;
        }
        match self.system.cost(op) {
            Some(cost) => {
                self.cpu += freq * f64::from(cost.cpu());
                self.interconnect += freq * f64::from(cost.interconnect());
            }
            None => self.unsupported = Some(op),
        }
    }
}

/// Eqs. 1–2 over the terms `table` pushes into the accumulator.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] naming the first nonzero
/// term the cost model does not define.
#[inline]
pub(crate) fn charge<'a, M: CostModel>(
    system: &'a M,
    table: impl FnOnce(&mut Charge<'a, M>),
) -> Result<Demand> {
    let mut sum = Charge {
        system,
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

/// Computes the per-instruction demand of a stored operation mix under a
/// cost model (Eqs. 1–2), adding its terms in the mix's order.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] if the mix contains an
/// operation the cost model does not define — e.g. a Dragon
/// write-broadcast evaluated against the multistage-network model.
pub fn demand<M: CostModel>(mix: &OperationMix, system: &M) -> Result<Demand> {
    charge(system, |sum| {
        for (op, freq) in mix.iter() {
            sum.push(op, freq);
        }
    })
}

/// Demand of a scheme under a workload and cost model: its table's terms
/// charged as they are pushed, with no [`OperationMix`] built.
///
/// Equal, bit for bit, to `demand(&scheme.mix(workload), system)`.
///
/// # Errors
///
/// Returns [`ModelError::UnsupportedOperation`] as [`demand`] does.
pub fn scheme_demand<M: CostModel>(
    scheme: Scheme,
    workload: &WorkloadParams,
    system: &M,
) -> Result<Demand> {
    charge(system, |sum| scheme.terms(workload, sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{directory_mix, directory_terms};
    use crate::invalidate::{invalidate_mix, invalidate_terms};
    use crate::system::{BusSystemModel, NetworkSystemModel};
    use crate::workload::{Level, ParamId};
    use proptest::TestRng;

    /// The stored-mix fold the accumulator replaced, kept as the oracle
    /// of `streamed_demand_equals_the_stored_mix_fold_bit_for_bit`: Eqs.
    /// 1–2 summed over a built mix in insertion order, failing on the
    /// first operation the cost model lacks.
    fn stored_mix_fold<M: CostModel>(mix: &OperationMix, system: &M) -> Result<Demand> {
        let mut cpu = 0.0;
        let mut interconnect = 0.0;
        for (op, freq) in mix.iter() {
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

    /// Every table, streamed and replayed from its stored mix, against
    /// the oracle under one cost model.
    fn check_tables<M: CostModel>(w: &WorkloadParams, system: &M) {
        for scheme in Scheme::ALL {
            let mix = scheme.mix(w);
            let want = stored_mix_fold(&mix, system);
            for got in [scheme_demand(scheme, w, system), demand(&mix, system)] {
                assert!(
                    same(&got, &want),
                    "{scheme} on {system:?} at {w:?}: {got:?}, oracle {want:?}"
                );
            }
        }
        let extensions = [
            (
                "write-invalidate",
                invalidate_mix(w),
                charge(system, |sum| invalidate_terms(w, sum)),
            ),
            (
                "directory",
                directory_mix(w),
                charge(system, |sum| directory_terms(w, sum)),
            ),
        ];
        for (name, mix, streamed) in extensions {
            let want = stored_mix_fold(&mix, system);
            for got in [streamed, demand(&mix, system)] {
                assert!(
                    same(&got, &want),
                    "{name} on {system:?} at {w:?}: {got:?}, oracle {want:?}"
                );
            }
        }
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
            // A stored mix of random terms, repeated operations and zero
            // frequencies included, in random order.
            let mix: OperationMix = (0..1 + rng.below(16))
                .map(|_| {
                    let op = Operation::ALL[rng.below(Operation::ALL.len() as u64) as usize];
                    (op, edge_or_uniform(&mut rng, 0.0, 2.0))
                })
                .collect();
            let stages = rng.below(11) as u32;
            for (got, want) in [
                (demand(&mix, &hardware), stored_mix_fold(&mix, &hardware)),
                (
                    demand(&mix, &NetworkSystemModel::new(stages)),
                    stored_mix_fold(&mix, &NetworkSystemModel::new(stages)),
                ),
            ] {
                assert!(same(&got, &want), "{mix:?}: {got:?}, oracle {want:?}");
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
        let d = demand(&OperationMix::new(), &BusSystemModel::new()).unwrap();
        assert_eq!(d.cpu(), 0.0);
        assert_eq!(d.interconnect(), 0.0);
    }
}
