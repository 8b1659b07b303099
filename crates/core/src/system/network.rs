//! The multistage-network system model (paper Table 9).

use std::fmt;

use serde::{Deserialize, Serialize};

use super::{CostModel, MissSource, OpCost, Operation};

/// CPU / network costs for a circuit-switched multistage interconnection
/// network (Omega / Banyan / Delta of 2×2 crossbars) with `stages` switch
/// stages, i.e. `2^stages` processors.
///
/// The costs reproduce the paper's Table 9: a request travels `stages`
/// cycles to set up the path, the response returns over the established
/// path (`stages` more cycles for the first word), memory access overlaps
/// partially, and the remaining words of a 4-word block stream back one
/// per cycle. Writing `n` for the stage count:
///
/// | operation     | cpu      | network  |
/// |---------------|----------|----------|
/// | instruction   | 1        | 0        |
/// | clean fetch   | 9 + 2n   | 6 + 2n   |
/// | dirty fetch   | 12 + 2n  | 9 + 2n   |
/// | clean flush   | 1        | 0        |
/// | dirty flush   | 7 + 2n   | 5 + 2n   |
/// | write through | 3 + 2n   | 2 + 2n   |
/// | read through  | 4 + 2n   | 3 + 2n   |
///
/// Snoopy operations (write-broadcast, cycle-stealing, cache-sourced
/// misses) are undefined on a network: [`CostModel::cost`] returns `None`
/// for them, and evaluating the Dragon scheme against this model fails
/// with [`crate::ModelError::UnsupportedOperation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSystemModel {
    stages: u32,
}

impl NetworkSystemModel {
    /// Creates the system model for a network with the given number of
    /// switch stages (`2^stages` processors). `stages` may be 0 (a single
    /// processor directly attached to memory), which is occasionally
    /// useful as a degenerate comparison point.
    pub fn new(stages: u32) -> Self {
        NetworkSystemModel { stages }
    }

    /// Creates the system model for a network connecting `processors`
    /// CPUs, which must be a power of two.
    ///
    /// Returns `None` if `processors` is zero or not a power of two.
    pub fn for_processors(processors: u32) -> Option<Self> {
        if processors == 0 || !processors.is_power_of_two() {
            return None;
        }
        Some(NetworkSystemModel::new(processors.trailing_zeros()))
    }

    /// The number of switch stages `n`.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// The number of processors (`2^stages`) this network connects.
    pub fn processors(&self) -> u32 {
        1 << self.stages
    }

    /// The round-trip path latency `2n` added to every network operation.
    pub fn round_trip(&self) -> u32 {
        2 * self.stages
    }
}

impl fmt::Display for NetworkSystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>4} {:>8}   (n = {} stages, {} processors)",
            "operation",
            "cpu",
            "network",
            self.stages,
            self.processors()
        )?;
        for op in Operation::ALL {
            if let Some(c) = self.cost(op) {
                writeln!(
                    f,
                    "{:<22} {:>4} {:>8}",
                    op.name(),
                    c.cpu(),
                    c.interconnect()
                )?;
            }
        }
        Ok(())
    }
}

impl CostModel for NetworkSystemModel {
    #[inline]
    fn cost(&self, op: Operation) -> Option<OpCost> {
        let rt = self.round_trip();
        let c = match op {
            Operation::Instruction => OpCost::new(1, 0),
            Operation::CleanMiss(MissSource::Memory) => OpCost::new(9 + rt, 6 + rt),
            Operation::DirtyMiss(MissSource::Memory) => OpCost::new(12 + rt, 9 + rt),
            Operation::CleanFlush => OpCost::new(1, 0),
            Operation::DirtyFlush => OpCost::new(7 + rt, 5 + rt),
            Operation::WriteThrough => OpCost::new(3 + rt, 2 + rt),
            Operation::ReadThrough => OpCost::new(4 + rt, 3 + rt),
            Operation::CleanMiss(MissSource::Cache)
            | Operation::DirtyMiss(MissSource::Cache)
            | Operation::WriteBroadcast
            | Operation::CycleSteal => return None,
        };
        Some(c)
    }

    fn model_name(&self) -> &'static str {
        "multistage network"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_values_at_8_stages() {
        // 256 processors => n = 8 => 2n = 16.
        let m = NetworkSystemModel::new(8);
        assert_eq!(m.processors(), 256);
        let cases = [
            (Operation::Instruction, 1, 0),
            (Operation::CleanMiss(MissSource::Memory), 25, 22),
            (Operation::DirtyMiss(MissSource::Memory), 28, 25),
            (Operation::CleanFlush, 1, 0),
            (Operation::DirtyFlush, 23, 21),
            (Operation::WriteThrough, 19, 18),
            (Operation::ReadThrough, 20, 19),
        ];
        for (op, cpu, net) in cases {
            let c = m.cost(op).unwrap();
            assert_eq!(c.cpu(), cpu, "{op} cpu");
            assert_eq!(c.interconnect(), net, "{op} network");
        }
    }

    #[test]
    fn snoopy_operations_are_undefined() {
        let m = NetworkSystemModel::new(4);
        assert!(m.cost(Operation::WriteBroadcast).is_none());
        assert!(m.cost(Operation::CycleSteal).is_none());
        assert!(m.cost(Operation::CleanMiss(MissSource::Cache)).is_none());
        assert!(m.cost(Operation::DirtyMiss(MissSource::Cache)).is_none());
    }

    #[test]
    fn for_processors_accepts_powers_of_two() {
        assert_eq!(NetworkSystemModel::for_processors(256).unwrap().stages(), 8);
        assert_eq!(NetworkSystemModel::for_processors(1).unwrap().stages(), 0);
        assert!(NetworkSystemModel::for_processors(0).is_none());
        assert!(NetworkSystemModel::for_processors(3).is_none());
        assert!(NetworkSystemModel::for_processors(12).is_none());
    }

    #[test]
    fn costs_scale_linearly_with_stages() {
        let a = NetworkSystemModel::new(2);
        let b = NetworkSystemModel::new(3);
        let ca = a.cost(Operation::ReadThrough).unwrap();
        let cb = b.cost(Operation::ReadThrough).unwrap();
        assert_eq!(cb.cpu() - ca.cpu(), 2);
        assert_eq!(cb.interconnect() - ca.interconnect(), 2);
        // Local (non-network) CPU time is stage-independent.
        assert_eq!(ca.local(), cb.local());
    }

    #[test]
    fn display_omits_undefined_operations() {
        let s = NetworkSystemModel::new(8).to_string();
        assert!(s.contains("read through"));
        assert!(!s.contains("write broadcast"));
    }

    #[test]
    fn matches_paper_formula_for_all_small_stage_counts() {
        for n in 0..12 {
            let m = NetworkSystemModel::new(n);
            let rt = 2 * n;
            assert_eq!(
                m.cost(Operation::CleanMiss(MissSource::Memory)).unwrap(),
                OpCost::new(9 + rt, 6 + rt)
            );
            assert_eq!(m.round_trip(), rt);
        }
    }
}
