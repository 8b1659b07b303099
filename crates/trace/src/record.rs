//! Trace records: the unit of a multiprocessor address trace.
//!
//! A trace is a time-ordered interleaving of memory references from all
//! processors, in the style of the ATUM-2 traces the paper used for
//! validation. Each record carries the issuing processor, the kind of
//! reference, and a byte address.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a processor in a trace (0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct CpuId(pub u16);

impl CpuId {
    /// The processor's 0-based index as a `usize`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl From<u16> for CpuId {
    fn from(v: u16) -> Self {
        CpuId(v)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A byte address in the traced machine's physical address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache block containing this address, for `block_bits` of
    /// block offset (e.g. 4 for the paper's 16-byte blocks).
    pub fn block(self, block_bits: u32) -> BlockAddr {
        BlockAddr(self.0 >> block_bits)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A block (cache-line) address: a byte address with the block offset
/// shifted out.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The first byte address of this block.
    pub fn base(self, block_bits: u32) -> Addr {
        Addr(self.0 << block_bits)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

/// The kind of one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccessKind {
    /// An instruction fetch. Each executed instruction produces exactly
    /// one fetch record; the data reference (if any) follows it.
    Fetch,
    /// A data load.
    Load,
    /// A data store.
    Store,
    /// An explicit flush of the block containing the address
    /// (Software-Flush scheme only; other schemes ignore these records).
    Flush,
}

impl AccessKind {
    /// Whether this is a data reference (load or store).
    pub fn is_data(self) -> bool {
        matches!(self, AccessKind::Load | AccessKind::Store)
    }

    /// Whether this reference writes memory.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Fetch => "fetch",
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Flush => "flush",
        })
    }
}

/// One memory reference by one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// The issuing processor.
    pub cpu: CpuId,
    /// Fetch, load, store, or flush.
    pub kind: AccessKind,
    /// The referenced byte address.
    pub addr: Addr,
}

impl Access {
    /// Creates a record.
    pub fn new(cpu: impl Into<CpuId>, kind: AccessKind, addr: impl Into<Addr>) -> Self {
        Access {
            cpu: cpu.into(),
            kind,
            addr: addr.into(),
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.cpu, self.kind, self.addr)
    }
}

/// An in-memory multiprocessor address trace.
///
/// A thin, well-behaved wrapper over `Vec<Access>` that knows how many
/// processors it involves.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<Access>,
    cpus: u16,
}

impl Trace {
    /// Creates an empty trace for `cpus` processors.
    pub fn new(cpus: u16) -> Self {
        Trace {
            records: Vec::new(),
            cpus,
        }
    }

    /// Builds a trace from records, inferring the processor count from
    /// the largest `CpuId` present (empty traces get 0 processors).
    pub fn from_records(records: Vec<Access>) -> Self {
        let cpus = records.iter().map(|r| r.cpu.0 + 1).max().unwrap_or(0);
        Trace { records, cpus }
    }

    /// A trace of `cpus` processors over records whose processor ids are
    /// all below `cpus`, as the generator's are by construction.
    pub(crate) fn generated(cpus: u16, records: Vec<Access>) -> Self {
        debug_assert!(records.iter().all(|r| r.cpu.0 < cpus));
        Trace { records, cpus }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if the record's processor id is outside this trace's
    /// processor count.
    pub fn push(&mut self, access: Access) {
        assert!(
            access.cpu.0 < self.cpus,
            "record for {} in a {}-processor trace",
            access.cpu,
            self.cpus
        );
        self.records.push(access);
    }

    /// Number of processors.
    pub fn cpus(&self) -> u16 {
        self.cpus
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[Access] {
        &self.records
    }

    /// Iterates over the records in trace order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.records.iter()
    }

    /// Restricts the trace to the first `cpus` processors, dropping
    /// records from the others. Useful for scaling studies that compare
    /// 1-, 2-, and 4-processor runs of the same workload.
    pub fn restrict_cpus(&self, cpus: u16) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.cpu.0 < cpus)
                .collect(),
            cpus: cpus.min(self.cpus),
        }
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Trace::from_records(iter.into_iter().collect())
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        for a in iter {
            self.cpus = self.cpus.max(a.cpu.0 + 1);
            self.records.push(a);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_uses_block_bits() {
        let a = Addr(0x1234);
        assert_eq!(a.block(4), BlockAddr(0x123));
        assert_eq!(a.block(0), BlockAddr(0x1234));
        assert_eq!(BlockAddr(0x123).base(4), Addr(0x1230));
    }

    #[test]
    fn addresses_in_same_16_byte_block_share_a_block_addr() {
        let a = Addr(0x1000);
        let b = Addr(0x100f);
        let c = Addr(0x1010);
        assert_eq!(a.block(4), b.block(4));
        assert_ne!(a.block(4), c.block(4));
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Load.is_data());
        assert!(AccessKind::Store.is_data());
        assert!(!AccessKind::Fetch.is_data());
        assert!(!AccessKind::Flush.is_data());
        assert!(AccessKind::Store.is_write());
        assert!(!AccessKind::Load.is_write());
    }

    #[test]
    fn from_records_infers_cpu_count() {
        let t = Trace::from_records(vec![
            Access::new(0u16, AccessKind::Fetch, 0u64),
            Access::new(3u16, AccessKind::Load, 16u64),
        ]);
        assert_eq!(t.cpus(), 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "4-processor trace")]
    fn push_rejects_out_of_range_cpu() {
        let mut t = Trace::new(4);
        t.push(Access::new(4u16, AccessKind::Fetch, 0u64));
    }

    #[test]
    fn restrict_cpus_filters_records() {
        let t = Trace::from_records(vec![
            Access::new(0u16, AccessKind::Fetch, 0u64),
            Access::new(1u16, AccessKind::Fetch, 4u64),
            Access::new(2u16, AccessKind::Fetch, 8u64),
        ]);
        let r = t.restrict_cpus(2);
        assert_eq!(r.cpus(), 2);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|a| a.cpu.0 < 2));
    }

    #[test]
    fn trace_collects_from_iterator() {
        let t: Trace = (0..10u64)
            .map(|i| Access::new(0u16, AccessKind::Fetch, i * 4))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.cpus(), 1);
    }

    #[test]
    fn display_formats() {
        let a = Access::new(1u16, AccessKind::Store, 0x40u64);
        assert_eq!(a.to_string(), "cpu1 store 0x00000040");
    }

    #[test]
    fn empty_trace_reports_empty() {
        let t = Trace::new(2);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }
}
