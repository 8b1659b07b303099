//! Dragon protocol: write-update snoopy coherence.
//!
//! A slightly simplified Dragon, matching the paper's §2.2.4 description:
//!
//! * A store to a block that is valid in another cache broadcasts the
//!   word on the bus (2 CPU / 1 bus cycles); every cache holding the
//!   block updates its copy, stealing one processor cycle.
//! * On a miss, main memory supplies the block unless another cache
//!   holds it dirty, in which case that cache supplies it (one bus cycle
//!   cheaper) and remains the owner.
//! * Stores to blocks held exclusively complete locally.
//!
//! Line states: `Clean` (exclusive-clean), `Dirty` (exclusive-modified),
//! `SharedClean` (valid elsewhere, not owner), `SharedDirty` (valid
//! elsewhere, owner — supplies data and owes the write-back).
//! Sharedness is re-evaluated on every store by snooping the other
//! caches, as the bus's shared line would in hardware.

use swcc_core::system::Operation;
use swcc_trace::BlockAddr;

use crate::cache::LineState;
use crate::machine::{snoop, Multiprocessor};

/// Handles a data reference under the Dragon protocol.
pub(crate) fn data(m: &mut Multiprocessor, cpu: usize, write: bool, block: BlockAddr) {
    if m.caches[cpu].touch(block).is_some() {
        if write {
            store_update(m, cpu, block);
        }
        return;
    }
    // Miss. Find a dirty owner (cache supply) and other holders.
    m.counters[cpu].data_misses += 1;
    let found = snoop(&m.caches, cpu, block);
    let fill_state = if found.holders > 0 {
        LineState::SharedClean
    } else {
        LineState::Clean
    };
    let dirty_victim = m.fill(cpu, block, fill_state);
    m.miss_op(cpu, dirty_victim, found.owner.is_some());
    if let Some(o) = found.owner {
        // The supplier keeps ownership; both ends now know it's shared.
        m.caches[o].set_state(block, LineState::SharedDirty);
    }
    if write {
        store_update(m, cpu, block);
    }
}

/// Performs the write half of a store: broadcast if shared, else local.
///
/// One pass over the other caches: the first holder found puts the
/// broadcast on the bus, so every snooper's cycle steal follows it, in
/// ascending processor order.
fn store_update(m: &mut Multiprocessor, cpu: usize, block: BlockAddr) {
    let mut broadcast = false;
    for o in 0..m.caches.len() {
        // Snooping caches update their copy, stealing one cycle, and
        // lose any ownership (the writer is now the owner).
        if o == cpu || !m.caches[o].set_state(block, LineState::SharedClean) {
            continue;
        }
        if !broadcast {
            broadcast = true;
            m.counters[cpu].broadcasts += 1;
            m.bus_op(cpu, Operation::WriteBroadcast);
        }
        m.counters[o].updates += 1;
        m.counters[o].cycle_steals += 1;
        m.bus_op(o, Operation::CycleSteal);
    }
    let state = if broadcast {
        LineState::SharedDirty
    } else {
        LineState::Dirty
    };
    m.caches[cpu].set_state(block, state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::protocol::ProtocolKind;

    fn machine(cpus: u16) -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(ProtocolKind::Dragon), cpus)
    }

    #[test]
    fn exclusive_store_is_local() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7)); // clean fill
        let t = m.time[0];
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.time[0], t);
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.counters[0].broadcasts, 0);
    }

    #[test]
    fn store_to_shared_block_broadcasts_and_steals() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        let t1 = m.time[1];
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.counters[0].broadcasts, 1);
        assert_eq!(m.counters[1].cycle_steals, 1);
        assert_eq!(m.time[1], t1 + 1, "snooper steals one cycle");
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::SharedDirty));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn miss_on_dirty_block_is_supplied_by_owner() {
        let mut m = machine(2);
        data(&mut m, 0, true, BlockAddr(7)); // cpu0: Dirty
        data(&mut m, 1, false, BlockAddr(7));
        assert_eq!(m.counters[1].cache_sourced_misses, 1);
        // cpu1 requested the bus at time 0, waited out cpu0's 7-cycle
        // transaction, then paid the 9-CPU-cycle cache-sourced clean miss.
        assert_eq!(m.counters[1].contention_cycles, 7);
        assert_eq!(m.time[1], 7 + 9);
        // Owner keeps ownership as SharedDirty.
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::SharedDirty));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn miss_on_clean_shared_block_comes_from_memory() {
        let mut m = machine(3);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        assert_eq!(m.counters[1].cache_sourced_misses, 0);
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn write_broadcast_updates_all_holders() {
        let mut m = machine(4);
        for cpu in 0..3 {
            data(&mut m, cpu, false, BlockAddr(7));
        }
        data(&mut m, 3, true, BlockAddr(7)); // miss + broadcast
        assert_eq!(m.counters[3].broadcasts, 1);
        let steals: u64 = (0..3).map(|c| m.counters[c].cycle_steals).sum();
        assert_eq!(steals, 3);
        assert_eq!(m.caches[3].peek(BlockAddr(7)), Some(LineState::SharedDirty));
    }

    #[test]
    fn store_miss_with_no_sharers_ends_dirty_exclusive() {
        let mut m = machine(2);
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.counters[0].broadcasts, 0);
    }

    #[test]
    fn eviction_of_shared_dirty_writes_back() {
        // Direct-mapped 8-block cache: blocks 7 and 15 conflict.
        let mut b = SimConfig::builder(ProtocolKind::Dragon);
        b.cache_bytes(8 * 16);
        let mut m = Multiprocessor::new(b.build(), 2);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        data(&mut m, 0, true, BlockAddr(7)); // SharedDirty in cpu0
        data(&mut m, 0, false, BlockAddr(15)); // evicts the owner copy
        assert_eq!(m.counters[0].dirty_replacements, 1);
    }
}
