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
//!
//! The exclusive states are exact: a miss that finds the block in
//! another cache downgrades a lone exclusive holder (a dirty one keeps
//! ownership as `SharedDirty`), so a `Clean` or `Dirty` line is the only
//! copy and a store to it snoops no cache. A shared line may outlive
//! its other copies, which are evicted silently, so a store to one
//! snoops the other caches, as the bus's shared line would in hardware,
//! and ends `Dirty` when none holds the block.

use swcc_core::system::Operation;
use swcc_trace::BlockAddr;

use crate::cache::LineState;
use crate::protocol::{snoop, Machine};

/// Handles a data reference under the Dragon protocol.
pub(crate) fn data(m: &mut impl Machine, cpu: usize, write: bool, block: BlockAddr) {
    let state = match m.caches()[cpu].touch(block) {
        Some(state) => state,
        None => read_miss(m, cpu, block),
    };
    if !write {
        return;
    }
    if state.is_shared() {
        store_update(m, cpu, block);
    } else {
        // No other cache holds the block: the store completes locally.
        m.caches()[cpu].set_state(block, LineState::Dirty);
    }
}

/// Brings an absent block into `cpu`'s cache, as a load, a store or an
/// instruction fetch that misses, and returns the state it filled: a
/// dirty owner supplies it (and keeps ownership), memory otherwise, and
/// it fills shared when other caches hold it.
pub(crate) fn read_miss(m: &mut impl Machine, cpu: usize, block: BlockAddr) -> LineState {
    let found = snoop(m.caches(), cpu, block);
    let fill_state = if found.holders > 0 {
        LineState::SharedClean
    } else {
        LineState::Clean
    };
    m.fill(cpu, block, fill_state, found.source());
    if let Some(o) = found.exclusive {
        // The lone holder now shares the block; a dirty one supplied it
        // and keeps ownership.
        let shared = if found.owner == Some(o) {
            LineState::SharedDirty
        } else {
            LineState::SharedClean
        };
        m.caches()[o].set_state(block, shared);
    }
    fill_state
}

/// Performs the write half of a store to a shared line: a broadcast if
/// another cache still holds the block, else a local write.
///
/// One pass over the other caches: the first holder found puts the
/// broadcast on the bus, so every snooper's cycle steal follows it, in
/// ascending processor order.
fn store_update(m: &mut impl Machine, cpu: usize, block: BlockAddr) {
    let mut broadcast = false;
    for o in 0..m.caches().len() {
        // Snooping caches update their copy, stealing one cycle, and
        // lose any ownership (the writer is now the owner).
        if o == cpu || !m.caches()[o].set_state(block, LineState::SharedClean) {
            continue;
        }
        if !broadcast {
            broadcast = true;
            m.charge(cpu, Operation::WriteBroadcast);
        }
        m.charge(o, Operation::CycleSteal);
    }
    let state = if broadcast {
        LineState::SharedDirty
    } else {
        LineState::Dirty
    };
    m.caches()[cpu].set_state(block, state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::Multiprocessor;
    use crate::protocol::ProtocolKind;
    use swcc_core::system::MissSource;

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
        assert_eq!(m.counters[0].count(Operation::WriteBroadcast), 0);
    }

    #[test]
    fn a_miss_downgrades_a_lone_exclusive_holder() {
        let mut m = machine(3);
        data(&mut m, 0, false, BlockAddr(7)); // clean fill, exclusive
        data(&mut m, 1, false, BlockAddr(7));
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::SharedClean));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
        // cpu2 writes a block exclusively, then cpu0 misses on it:
        // cpu2 supplies it and keeps ownership.
        data(&mut m, 2, true, BlockAddr(9));
        data(&mut m, 0, false, BlockAddr(9));
        assert_eq!(m.caches[2].peek(BlockAddr(9)), Some(LineState::SharedDirty));
        assert_eq!(m.caches[0].peek(BlockAddr(9)), Some(LineState::SharedClean));
    }

    #[test]
    fn store_to_shared_block_broadcasts_and_steals() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        let t1 = m.time[1];
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.counters[0].count(Operation::WriteBroadcast), 1);
        assert_eq!(m.counters[1].count(Operation::CycleSteal), 1);
        assert_eq!(m.time[1], t1 + 1, "snooper steals one cycle");
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::SharedDirty));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn miss_on_dirty_block_is_supplied_by_owner() {
        let mut m = machine(2);
        data(&mut m, 0, true, BlockAddr(7)); // cpu0: Dirty
        data(&mut m, 1, false, BlockAddr(7));
        assert_eq!(
            m.counters[1].count(Operation::CleanMiss(MissSource::Cache)),
            1
        );
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
        assert_eq!(
            m.counters[1].count(Operation::CleanMiss(MissSource::Cache)),
            0
        );
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn write_broadcast_updates_all_holders() {
        let mut m = machine(4);
        for cpu in 0..3 {
            data(&mut m, cpu, false, BlockAddr(7));
        }
        data(&mut m, 3, true, BlockAddr(7)); // miss + broadcast
        assert_eq!(m.counters[3].count(Operation::WriteBroadcast), 1);
        let steals: u64 = (0..3)
            .map(|c| m.counters[c].count(Operation::CycleSteal))
            .sum();
        assert_eq!(steals, 3);
        assert_eq!(m.caches[3].peek(BlockAddr(7)), Some(LineState::SharedDirty));
    }

    #[test]
    fn store_miss_with_no_sharers_ends_dirty_exclusive() {
        let mut m = machine(2);
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.counters[0].count(Operation::WriteBroadcast), 0);
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
        assert_eq!(
            m.counters[0].count(Operation::DirtyMiss(MissSource::Memory)),
            1
        );
    }
}
