//! No-Cache protocol: shared addresses bypass the cache.
//!
//! Loads of shared words become read-throughs (5 CPU / 4 bus cycles),
//! stores write-throughs (2 / 1). Unshared data behaves exactly like the
//! Base protocol. The shared predicate is the configured
//! [`crate::config::SharedPolicy`] — the simulator equivalent of the
//! page-table tag used by C.mmp and the Elxsi 6400.

use swcc_core::system::Operation;
use swcc_trace::BlockAddr;

use crate::protocol::{base, Machine};

/// Handles a data reference under the No-Cache protocol; `shared` is
/// the shared policy's verdict on the referenced address.
pub(crate) fn data(m: &mut impl Machine, cpu: usize, write: bool, shared: bool, block: BlockAddr) {
    match (shared, write) {
        (true, true) => m.charge(cpu, Operation::WriteThrough),
        (true, false) => m.charge(cpu, Operation::ReadThrough),
        (false, _) => base::data(m, cpu, write, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::Multiprocessor;
    use crate::protocol::ProtocolKind;
    use swcc_trace::{Access, AccessKind, Addr, AddressLayout, CpuId};

    fn machine() -> Multiprocessor {
        Multiprocessor::new(SimConfig::new(ProtocolKind::NoCache), 2)
    }

    const SHARED: u64 = AddressLayout::SHARED_BASE;

    #[test]
    fn shared_load_is_a_read_through() {
        let mut m = machine();
        m.step(
            0,
            Access::new(CpuId(0), AccessKind::Load, Addr(SHARED + 0x40)),
        );
        assert_eq!(m.counters[0].count(Operation::ReadThrough), 1);
        assert_eq!(m.time[0], 5);
        // Nothing was cached.
        assert_eq!(m.caches[0].occupancy(), 0);
    }

    #[test]
    fn shared_store_is_a_write_through() {
        let mut m = machine();
        m.step(0, Access::new(CpuId(0), AccessKind::Store, Addr(SHARED)));
        assert_eq!(m.counters[0].count(Operation::WriteThrough), 1);
        assert_eq!(m.time[0], 2);
    }

    #[test]
    fn repeated_shared_loads_never_hit() {
        let mut m = machine();
        let addr = Addr(SHARED + 0x10);
        for _ in 0..5 {
            data(&mut m, 0, false, true, addr.block(4));
        }
        assert_eq!(m.counters[0].count(Operation::ReadThrough), 5);
        assert_eq!(m.time[0], 25);
    }

    #[test]
    fn private_data_behaves_like_base() {
        let mut m = machine();
        let addr = Addr(AddressLayout::PRIVATE_BASE);
        for _ in 0..2 {
            m.step(0, Access::new(CpuId(0), AccessKind::Load, addr));
        }
        assert_eq!(m.counters[0].data_misses, 1);
        assert_eq!(m.counters[0].count(Operation::ReadThrough), 0);
        assert_eq!(m.time[0], 10, "one clean miss, then a free hit");
    }
}
