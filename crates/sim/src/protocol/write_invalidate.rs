//! Write-invalidate (Illinois/MESI-like) snoopy protocol — extension.
//!
//! The counterpart to [`super::dragon`]: instead of broadcasting the
//! written word so sharers can update, the writer broadcasts an
//! *invalidation* and the sharers drop their copies, paying a coherence
//! miss on their next reference.
//!
//! States map onto [`LineState`]: `Clean` = Exclusive, `Dirty` =
//! Modified, `SharedClean` = Shared. (`SharedDirty` — MOESI "Owned" —
//! is not used: when a dirty block is supplied to another cache the
//! supplier is invalidated on writes and downgraded on reads, with the
//! write-back folded into the supplying transfer, which Table 1 already
//! prices as a cache-sourced miss.)
//!
//! Costs reuse Table 1: the invalidation broadcast is priced like a
//! write-broadcast (2 CPU / 1 bus — one address cycle), and each
//! invalidated cache steals one cycle applying it.

use swcc_core::system::Operation;
use swcc_trace::BlockAddr;

use crate::cache::LineState;
use crate::machine::{snoop, Multiprocessor};

/// Handles a data reference under the write-invalidate protocol.
pub(crate) fn data(m: &mut Multiprocessor, cpu: usize, write: bool, block: BlockAddr) {
    match m.caches[cpu].touch(block) {
        Some(state) => {
            if write {
                match state {
                    LineState::Dirty => {}
                    LineState::Clean => {
                        // Exclusive: silent upgrade.
                        m.caches[cpu].set_state(block, LineState::Dirty);
                    }
                    LineState::SharedClean | LineState::SharedDirty => {
                        upgrade(m, cpu, block);
                    }
                }
            }
        }
        None => {
            m.counters[cpu].data_misses += 1;
            let found = snoop(&m.caches, cpu, block);
            let fill_state = if write {
                LineState::Dirty
            } else if found.holders == 0 {
                LineState::Clean
            } else {
                LineState::SharedClean
            };
            let dirty_victim = m.fill(cpu, block, fill_state);
            m.miss_op(cpu, dirty_victim, found.owner.is_some());
            if write {
                invalidate_others(m, cpu, block);
            } else if found.holders > 0 {
                // Every snooping holder observes the fill and downgrades
                // to Shared — including a dirty owner, whose supplying
                // transfer updates memory (Illinois).
                for o in (0..m.caches.len()).filter(|&o| o != cpu) {
                    m.caches[o].set_state(block, LineState::SharedClean);
                }
            }
        }
    }
}

/// A store to a Shared line: broadcast an invalidation, drop the other
/// copies, and take Modified ownership.
fn upgrade(m: &mut Multiprocessor, cpu: usize, block: BlockAddr) {
    m.counters[cpu].broadcasts += 1;
    m.bus_op(cpu, Operation::WriteBroadcast);
    invalidate_others(m, cpu, block);
    m.caches[cpu].set_state(block, LineState::Dirty);
}

/// Invalidates every other copy; each snooping cache steals one cycle.
fn invalidate_others(m: &mut Multiprocessor, cpu: usize, block: BlockAddr) {
    for o in 0..m.caches.len() {
        if o == cpu || m.caches[o].invalidate(block).is_none() {
            continue;
        }
        m.counters[o].invalidations += 1;
        m.counters[o].cycle_steals += 1;
        m.bus_op(o, Operation::CycleSteal);
    }
    m.caches[cpu].set_state(block, LineState::Dirty);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::protocol::ProtocolKind;

    fn machine(cpus: u16) -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(ProtocolKind::WriteInvalidate), cpus)
    }

    #[test]
    fn exclusive_write_is_silent() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7)); // E
        let t = m.time[0];
        data(&mut m, 0, true, BlockAddr(7)); // E -> M, no bus
        assert_eq!(m.time[0], t);
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.counters[0].broadcasts, 0);
    }

    #[test]
    fn shared_write_invalidates_other_copies() {
        let mut m = machine(3);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        data(&mut m, 2, false, BlockAddr(7));
        data(&mut m, 0, true, BlockAddr(7));
        assert_eq!(m.counters[0].broadcasts, 1);
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), None, "copy invalidated");
        assert_eq!(m.caches[2].peek(BlockAddr(7)), None);
        assert_eq!(m.counters[1].cycle_steals + m.counters[2].cycle_steals, 2);
    }

    #[test]
    fn invalidated_reader_misses_again() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, true, BlockAddr(7)); // invalidates cpu0
        data(&mut m, 0, false, BlockAddr(7)); // coherence miss
        assert_eq!(m.counters[0].data_misses, 2);
    }

    #[test]
    fn dirty_block_supplied_from_owner_cache() {
        let mut m = machine(2);
        data(&mut m, 0, true, BlockAddr(7)); // M in cpu0
        data(&mut m, 1, false, BlockAddr(7)); // supplied by cpu0
        assert_eq!(m.counters[1].cache_sourced_misses, 1);
        // Illinois: supplier downgrades to Shared, memory updated.
        assert_eq!(m.caches[0].peek(BlockAddr(7)), Some(LineState::SharedClean));
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::SharedClean));
    }

    #[test]
    fn write_miss_takes_exclusive_ownership() {
        let mut m = machine(3);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, true, BlockAddr(7)); // write miss: fetch + invalidate
        assert_eq!(m.caches[1].peek(BlockAddr(7)), Some(LineState::Dirty));
        assert_eq!(m.caches[0].peek(BlockAddr(7)), None);
    }

    #[test]
    fn repeated_writes_in_a_run_cost_one_upgrade() {
        let mut m = machine(2);
        data(&mut m, 0, false, BlockAddr(7));
        data(&mut m, 1, false, BlockAddr(7));
        data(&mut m, 0, true, BlockAddr(7)); // upgrade (broadcast)
        let t = m.time[0];
        for _ in 0..5 {
            data(&mut m, 0, true, BlockAddr(7)); // M hits: free
        }
        assert_eq!(m.time[0], t);
        assert_eq!(m.counters[0].broadcasts, 1);
    }
}
