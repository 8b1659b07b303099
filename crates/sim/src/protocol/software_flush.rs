//! Software-Flush protocol: cached shared data with explicit flushes.
//!
//! Ordinary data references behave like the Base protocol — shared data
//! *is* cached. Coherence is the program's job: flush records (inserted
//! by the compiler/programmer at critical-section boundaries, and by the
//! synthetic generator at section release) invalidate the line in the
//! issuing processor's cache, writing it back if dirty.
//!
//! A flush of a clean or absent line costs one cycle (the flush
//! instruction itself); a flush of a dirty line costs 6 CPU / 4 bus
//! cycles for the write-back (Table 1).

use swcc_core::system::Operation;
use swcc_trace::BlockAddr;

use crate::protocol::{base, Machine};

/// Handles a data reference under Software-Flush (identical to Base).
pub(crate) fn data(m: &mut impl Machine, cpu: usize, write: bool, block: BlockAddr) {
    base::data(m, cpu, write, block);
}

/// Handles an explicit flush record.
pub(crate) fn flush(m: &mut impl Machine, cpu: usize, block: BlockAddr) {
    let dirty = m.caches()[cpu]
        .invalidate(block)
        .is_some_and(|s| s.is_dirty());
    let op = if dirty {
        Operation::DirtyFlush
    } else {
        Operation::CleanFlush
    };
    m.charge(cpu, op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineState;
    use crate::config::SimConfig;
    use crate::machine::Multiprocessor;
    use crate::protocol::ProtocolKind;

    fn machine() -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(ProtocolKind::SoftwareFlush), 2)
    }

    #[test]
    fn flush_of_clean_line_costs_one_cycle() {
        let mut m = machine();
        data(&mut m, 0, false, BlockAddr(9)); // clean fill, 10 cycles
        flush(&mut m, 0, BlockAddr(9));
        assert_eq!(m.counters[0].count(Operation::CleanFlush), 1);
        assert_eq!(m.time[0], 11);
        assert_eq!(m.caches[0].peek(BlockAddr(9)), None);
    }

    #[test]
    fn flush_of_dirty_line_writes_back() {
        let mut m = machine();
        data(&mut m, 0, true, BlockAddr(9)); // dirty fill, 10 cycles
        flush(&mut m, 0, BlockAddr(9));
        assert_eq!(m.counters[0].count(Operation::DirtyFlush), 1);
        assert_eq!(m.time[0], 16, "10 + 6 for the dirty flush");
    }

    #[test]
    fn flush_of_absent_line_is_clean() {
        let mut m = machine();
        flush(&mut m, 0, BlockAddr(9));
        assert_eq!(m.counters[0].count(Operation::CleanFlush), 1);
        assert_eq!(m.time[0], 1);
    }

    #[test]
    fn reference_after_flush_misses_again() {
        let mut m = machine();
        data(&mut m, 0, false, BlockAddr(9));
        flush(&mut m, 0, BlockAddr(9));
        data(&mut m, 0, false, BlockAddr(9));
        assert_eq!(m.counters[0].data_misses, 2);
    }

    #[test]
    fn shared_data_is_cached_between_flushes() {
        let mut m = machine();
        data(&mut m, 0, true, BlockAddr(9));
        data(&mut m, 0, false, BlockAddr(9)); // hit
        data(&mut m, 0, true, BlockAddr(9)); // hit
        assert_eq!(m.counters[0].data_misses, 1);
        assert_eq!(m.caches[0].peek(BlockAddr(9)), Some(LineState::Dirty));
    }
}
