//! The bus-based system model (paper Table 1).

use std::fmt;

use serde::{Deserialize, Serialize};

use super::{CostModel, MissSource, OpCost, Operation};

/// CPU / bus costs for every operation on the bus-based machine.
///
/// The defaults reproduce the paper's Table 1, which is derived from a
/// hypothetical RISC machine with a combined instruction/data cache, a
/// 4-word (16-byte) cache block, 1-cycle instructions, a 1-word-wide bus
/// whose cycle time equals the CPU cycle time, and a 2-cycle memory access:
///
/// | operation            | cpu | bus |
/// |----------------------|-----|-----|
/// | instruction          | 1   | 0   |
/// | clean miss (mem)     | 10  | 7   |
/// | dirty miss (mem)     | 14  | 11  |
/// | read through         | 5   | 4   |
/// | write through        | 2   | 1   |
/// | clean flush          | 1   | 0   |
/// | dirty flush          | 6   | 4   |
/// | write broadcast      | 2   | 1   |
/// | clean miss (cache)   | 9   | 6   |
/// | dirty miss (cache)   | 13  | 10  |
/// | cycle stealing       | 1   | 0   |
///
/// Use [`BusSystemModel::builder`] to explore alternative hardware (wider
/// busses, slower memory, larger blocks).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusSystemModel {
    costs: [OpCost; 11],
}

impl BusSystemModel {
    /// The paper's Table 1 machine.
    pub fn new() -> Self {
        let mut costs = [OpCost::default(); 11];
        let mut set = |op: Operation, cpu: u32, bus: u32| {
            costs[op.index()] = OpCost::new(cpu, bus);
        };
        set(Operation::Instruction, 1, 0);
        set(Operation::CleanMiss(MissSource::Memory), 10, 7);
        set(Operation::DirtyMiss(MissSource::Memory), 14, 11);
        set(Operation::ReadThrough, 5, 4);
        set(Operation::WriteThrough, 2, 1);
        set(Operation::CleanFlush, 1, 0);
        set(Operation::DirtyFlush, 6, 4);
        set(Operation::WriteBroadcast, 2, 1);
        set(Operation::CleanMiss(MissSource::Cache), 9, 6);
        set(Operation::DirtyMiss(MissSource::Cache), 13, 10);
        set(Operation::CycleSteal, 1, 0);
        BusSystemModel { costs }
    }

    /// Starts building a customized bus system model, seeded with the
    /// Table 1 defaults.
    pub fn builder() -> BusSystemModelBuilder {
        BusSystemModelBuilder {
            model: BusSystemModel::new(),
        }
    }

    /// Derives Table 1 from first principles for a machine with the given
    /// block size (in words), memory latency, and processor overhead to
    /// detect and process a miss.
    ///
    /// With `block_words = 4`, `memory_cycles = 2` and `miss_overhead = 3`
    /// this reproduces Table 1 exactly:
    /// a clean miss holds the bus for `1 (address) + memory_cycles +
    /// block_words (data)` cycles and costs `miss_overhead` further CPU
    /// cycles; a dirty miss adds `block_words` bus cycles for the
    /// write-back and one further CPU cycle.
    pub fn from_hardware(block_words: u32, memory_cycles: u32, miss_overhead: u32) -> Self {
        let clean_bus = 1 + memory_cycles + block_words;
        let dirty_bus = clean_bus + block_words;
        let mut b = BusSystemModel::builder();
        b.set(
            Operation::CleanMiss(MissSource::Memory),
            OpCost::new(clean_bus + miss_overhead, clean_bus),
        );
        b.set(
            Operation::DirtyMiss(MissSource::Memory),
            OpCost::new(dirty_bus + miss_overhead, dirty_bus),
        );
        // Cache-to-cache transfers skip the memory access but pay one extra
        // arbitration cycle less (Table 1: exactly one cycle cheaper).
        b.set(
            Operation::CleanMiss(MissSource::Cache),
            OpCost::new(clean_bus + miss_overhead - 1, clean_bus - 1),
        );
        b.set(
            Operation::DirtyMiss(MissSource::Cache),
            OpCost::new(dirty_bus + miss_overhead - 1, dirty_bus - 1),
        );
        // A read-through moves the address plus one word through memory:
        // 1 + memory_cycles + 1 bus cycles, plus 1 CPU cycle for the load.
        b.set(
            Operation::ReadThrough,
            OpCost::new(2 + memory_cycles + 1, 1 + memory_cycles + 1),
        );
        // A write-through posts address+data in one bus cycle (buffered).
        b.set(Operation::WriteThrough, OpCost::new(2, 1));
        // A dirty flush writes the block back: block_words bus cycles,
        // 2 further CPU cycles (flush decode + invalidate).
        b.set(
            Operation::DirtyFlush,
            OpCost::new(block_words + 2, block_words),
        );
        b.build()
    }
}

impl Default for BusSystemModel {
    fn default() -> Self {
        BusSystemModel::new()
    }
}

impl fmt::Display for BusSystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<22} {:>4} {:>4}", "operation", "cpu", "bus")?;
        for op in Operation::ALL {
            let c = self.costs[op.index()];
            writeln!(
                f,
                "{:<22} {:>4} {:>4}",
                op.name(),
                c.cpu(),
                c.interconnect()
            )?;
        }
        Ok(())
    }
}

impl CostModel for BusSystemModel {
    #[inline]
    fn cost(&self, op: Operation) -> Option<OpCost> {
        Some(self.costs[op.index()])
    }

    fn model_name(&self) -> &'static str {
        "bus"
    }
}

/// Builder for [`BusSystemModel`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct BusSystemModelBuilder {
    model: BusSystemModel,
}

impl BusSystemModelBuilder {
    /// Overrides the cost of one operation.
    pub fn set(&mut self, op: Operation, cost: OpCost) -> &mut Self {
        self.model.costs[op.index()] = cost;
        self
    }

    /// Finishes the build.
    pub fn build(&self) -> BusSystemModel {
        self.model.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let m = BusSystemModel::new();
        let expect = [
            (Operation::Instruction, 1, 0),
            (Operation::CleanMiss(MissSource::Memory), 10, 7),
            (Operation::DirtyMiss(MissSource::Memory), 14, 11),
            (Operation::ReadThrough, 5, 4),
            (Operation::WriteThrough, 2, 1),
            (Operation::CleanFlush, 1, 0),
            (Operation::DirtyFlush, 6, 4),
            (Operation::WriteBroadcast, 2, 1),
            (Operation::CleanMiss(MissSource::Cache), 9, 6),
            (Operation::DirtyMiss(MissSource::Cache), 13, 10),
            (Operation::CycleSteal, 1, 0),
        ];
        for (op, cpu, bus) in expect {
            let c = m.cost(op).unwrap();
            assert_eq!(c.cpu(), cpu, "{op} cpu");
            assert_eq!(c.interconnect(), bus, "{op} bus");
        }
    }

    #[test]
    fn from_hardware_reproduces_table1() {
        assert_eq!(
            BusSystemModel::from_hardware(4, 2, 3),
            BusSystemModel::new()
        );
    }

    #[test]
    fn builder_overrides_single_cost() {
        let mut b = BusSystemModel::builder();
        b.set(Operation::WriteThrough, OpCost::new(4, 3));
        let m = b.build();
        assert_eq!(m.cost(Operation::WriteThrough).unwrap(), OpCost::new(4, 3));
        // Others untouched.
        assert_eq!(m.cost(Operation::ReadThrough).unwrap(), OpCost::new(5, 4));
    }

    #[test]
    fn display_lists_all_operations() {
        let s = BusSystemModel::new().to_string();
        for op in Operation::ALL {
            assert!(s.contains(op.name()), "missing {op}");
        }
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(BusSystemModel::default(), BusSystemModel::new());
    }

    #[test]
    fn bus_never_exceeds_cpu() {
        let m = BusSystemModel::new();
        for op in Operation::ALL {
            let c = m.cost(op).unwrap();
            assert!(c.interconnect() <= c.cpu());
        }
    }
}
