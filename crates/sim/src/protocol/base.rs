//! Base protocol: write-back caching, no coherence actions.
//!
//! The performance upper bound. Stores mark the line dirty locally;
//! misses always fetch from memory; dirty victims are written back.
//! Other caches are never consulted, so the machine may hold
//! inconsistent copies — the simulator measures timing, not values, and
//! Base exists precisely to show the cost floor.

use swcc_core::system::MissSource;
use swcc_trace::BlockAddr;

use crate::cache::LineState;
use crate::protocol::Machine;

/// Handles a data reference under the Base protocol.
pub(crate) fn data(m: &mut impl Machine, cpu: usize, write: bool, block: BlockAddr) {
    if m.caches()[cpu].touch(block).is_none() {
        let state = if write {
            LineState::Dirty
        } else {
            LineState::Clean
        };
        m.fill(cpu, block, state, MissSource::Memory);
    } else if write {
        m.caches()[cpu].set_state(block, LineState::Dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::Multiprocessor;
    use crate::protocol::ProtocolKind;
    use swcc_core::system::Operation;

    fn machine() -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(ProtocolKind::Base), 2)
    }

    #[test]
    fn load_miss_fills_clean() {
        let mut m = machine();
        data(&mut m, 0, false, BlockAddr(5));
        assert_eq!(m.caches[0].peek(BlockAddr(5)), Some(LineState::Clean));
        assert_eq!(m.counters[0].data_misses, 1);
        assert_eq!(m.time[0], 10);
    }

    #[test]
    fn store_hit_marks_dirty_without_bus() {
        let mut m = machine();
        data(&mut m, 0, false, BlockAddr(5));
        let t = m.time[0];
        data(&mut m, 0, true, BlockAddr(5));
        assert_eq!(m.caches[0].peek(BlockAddr(5)), Some(LineState::Dirty));
        assert_eq!(
            m.time[0], t,
            "store hit is free beyond the instruction cycle"
        );
    }

    #[test]
    fn caches_are_fully_independent() {
        let mut m = machine();
        data(&mut m, 0, true, BlockAddr(5));
        data(&mut m, 1, false, BlockAddr(5));
        // cpu1 fetched from memory even though cpu0 holds it dirty:
        // Base performs no coherence.
        assert_eq!(
            m.counters[1].count(Operation::CleanMiss(MissSource::Cache)),
            0
        );
        assert_eq!(m.caches[1].peek(BlockAddr(5)), Some(LineState::Clean));
    }
}
