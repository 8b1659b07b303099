//! Workload-parameter extraction from traces.
//!
//! The paper derived its Table 7 ranges by measuring the Table 2
//! parameters from ATUM-2 traces. [`TraceStats`] implements the
//! trace-only measurements:
//!
//! * `ls` — data references per instruction,
//! * `wr` — fraction of data references that are stores,
//! * `shd` — fraction of data references to blocks touched by more than
//!   one processor (the paper's Dragon-style definition of "shared"),
//! * `apl` — estimated as the mean number of uninterrupted references to
//!   a shared block by one processor (with at least one write in the
//!   run) between references by another processor, the same optimistic
//!   estimator described in §4,
//! * `mdshd` — estimated as the fraction of such runs containing a write.
//!
//! Cache-dependent parameters (`msdat`, `mains`, `md`, `oclean`,
//! `opres`, `nshd`) depend on cache geometry and are measured by the
//! simulator (`swcc-sim::measure`).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use serde::{Deserialize, Serialize};

use crate::record::{AccessKind, BlockAddr, CpuId, Trace};

/// Builds [`BlockHasher`]s, the cheap hasher for block addresses.
///
/// Block addresses can come from a trace file, so the state starts from
/// a seed drawn once per instance from [`RandomState`]: without it, a
/// crafted trace could pile its blocks into one bucket. A key is xored
/// into the seed and `finish` applies splitmix64's finalizer: two
/// multiplies where SipHash spends dozens of rounds.
#[derive(Debug, Clone)]
struct BlockHashState {
    seed: u64,
}

impl BlockHashState {
    fn new() -> Self {
        BlockHashState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for BlockHashState {
    type Hasher = BlockHasher;

    fn build_hasher(&self) -> BlockHasher {
        BlockHasher(self.seed)
    }
}

/// The hasher [`BlockHashState`] builds.
#[derive(Debug, Clone)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        // splitmix64's finalizer: a bijection in which every output bit
        // depends on every input bit.
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }
}

/// Per-block state of the measuring pass: the open run of
/// same-processor references, and the block's data references.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// The processor whose run is open.
    cpu: CpuId,
    /// Whether a second processor ever referenced the block.
    shared: bool,
    /// Whether the open run contains a store.
    wrote: bool,
    /// References in the open run.
    len: u64,
    /// Data references to the block.
    refs: u64,
}

/// The blocks that data references from more than one processor touch
/// (the paper's Dragon-style "shared"), as measured by
/// [`TraceStats::measure_shared`].
#[derive(Debug, Clone)]
pub struct SharedBlocks(HashSet<BlockAddr, BlockHashState>);

impl SharedBlocks {
    /// Whether `block` is shared.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.0.contains(&block)
    }

    /// Number of shared blocks.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no block is shared.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Summary statistics of a multiprocessor trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    instructions: u64,
    loads: u64,
    stores: u64,
    flushes: u64,
    shared_data_refs: u64,
    data_blocks: u64,
    shared_blocks: u64,
    runs: u64,
    write_runs: u64,
    write_run_refs: u64,
    per_cpu_instructions: Vec<u64>,
}

impl TraceStats {
    /// Measures a trace with the given block-offset width in bits
    /// (4 for the paper's 16-byte blocks).
    pub fn measure(trace: &Trace, block_bits: u32) -> Self {
        Self::measure_shared(trace, block_bits).0
    }

    /// Like [`TraceStats::measure`], also returning the shared blocks.
    ///
    /// One pass over the trace. A run closes exactly when a second
    /// processor references its block, which is also when the block
    /// becomes shared, so every closed run is a shared block's run and
    /// the run statistics need not know in advance which blocks are
    /// shared. Each block counts its data references, and the shared
    /// blocks' counts add up to the references behind `shd`.
    pub fn measure_shared(trace: &Trace, block_bits: u32) -> (Self, SharedBlocks) {
        let mut stats = TraceStats {
            instructions: 0,
            loads: 0,
            stores: 0,
            flushes: 0,
            shared_data_refs: 0,
            data_blocks: 0,
            shared_blocks: 0,
            runs: 0,
            write_runs: 0,
            write_run_refs: 0,
            per_cpu_instructions: vec![0; usize::from(trace.cpus())],
        };
        let hasher = BlockHashState::new();
        let mut blocks: HashMap<BlockAddr, Block, BlockHashState> =
            HashMap::with_hasher(hasher.clone());
        // Records of each kind, in `AccessKind` declaration order; the
        // counts and the per-processor tally need no branch on the kind.
        let mut kinds = [0u64; 4];
        for a in trace {
            kinds[a.kind as usize] += 1;
            stats.per_cpu_instructions[a.cpu.index()] += u64::from(a.kind == AccessKind::Fetch);
            if !a.kind.is_data() {
                continue;
            }
            let write = a.kind.is_write();
            let block = blocks.entry(a.addr.block(block_bits)).or_insert(Block {
                cpu: a.cpu,
                shared: false,
                wrote: false,
                len: 0,
                refs: 0,
            });
            if block.cpu != a.cpu {
                // Another processor took over: close the run.
                stats.runs += 1;
                if block.wrote {
                    stats.write_runs += 1;
                    stats.write_run_refs += block.len;
                }
                block.cpu = a.cpu;
                block.shared = true;
                block.wrote = false;
                block.len = 0;
            }
            block.len += 1;
            block.wrote |= write;
            block.refs += 1;
        }
        let [fetches, loads, stores, flushes] = kinds;
        stats.instructions = fetches;
        stats.loads = loads;
        stats.stores = stores;
        stats.flushes = flushes;
        let mut shared = SharedBlocks(HashSet::with_hasher(hasher));
        stats.data_blocks = blocks.len() as u64;
        for (&addr, block) in &blocks {
            if block.shared {
                stats.shared_data_refs += block.refs;
                shared.0.insert(addr);
            }
        }
        stats.shared_blocks = shared.len() as u64;
        (stats, shared)
    }

    /// Instructions executed (fetch records).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Data references (loads + stores).
    pub fn data_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Flush records.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Distinct data blocks touched.
    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// Distinct data blocks touched by more than one processor.
    pub fn shared_blocks(&self) -> u64 {
        self.shared_blocks
    }

    /// Instructions executed per processor.
    pub fn per_cpu_instructions(&self) -> &[u64] {
        &self.per_cpu_instructions
    }

    /// Measured `ls`: data references per instruction.
    pub fn ls(&self) -> f64 {
        ratio(self.data_refs(), self.instructions)
    }

    /// Measured `wr`: fraction of data references that are stores.
    pub fn wr(&self) -> f64 {
        ratio(self.stores, self.data_refs())
    }

    /// Measured `shd`: fraction of data references to shared blocks.
    pub fn shd(&self) -> f64 {
        ratio(self.shared_data_refs, self.data_refs())
    }

    /// Estimated `apl`: mean length of uninterrupted same-processor
    /// reference runs (containing at least one write) on shared blocks.
    ///
    /// Returns `None` if the trace contains no such completed run (e.g. a
    /// single-processor trace).
    pub fn apl_estimate(&self) -> Option<f64> {
        if self.write_runs == 0 {
            None
        } else {
            Some(self.write_run_refs as f64 / self.write_runs as f64)
        }
    }

    /// Estimated `mdshd`: fraction of completed runs containing a write.
    ///
    /// Returns `None` if no run completed.
    pub fn mdshd_estimate(&self) -> Option<f64> {
        if self.runs == 0 {
            None
        } else {
            Some(self.write_runs as f64 / self.runs as f64)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Access, AccessKind, Trace};
    use crate::synth::SynthConfig;

    fn acc(cpu: u16, kind: AccessKind, addr: u64) -> Access {
        Access::new(cpu, kind, addr)
    }

    #[test]
    fn counts_basic_quantities() {
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Fetch, 0x0),
            acc(0, AccessKind::Load, 0x1000),
            acc(0, AccessKind::Fetch, 0x4),
            acc(0, AccessKind::Store, 0x1004),
            acc(1, AccessKind::Fetch, 0x8),
            acc(1, AccessKind::Flush, 0x1000),
        ]);
        let s = TraceStats::measure(&t, 4);
        assert_eq!(s.instructions(), 3);
        assert_eq!(s.data_refs(), 2);
        assert_eq!(s.flushes(), 1);
        assert!((s.ls() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.wr() - 0.5).abs() < 1e-12);
        assert_eq!(s.per_cpu_instructions(), &[2, 1]);
    }

    #[test]
    fn sharedness_requires_two_processors() {
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Load, 0x100),
            acc(0, AccessKind::Load, 0x100),
            acc(1, AccessKind::Load, 0x200),
        ]);
        let s = TraceStats::measure(&t, 4);
        assert_eq!(s.shared_blocks(), 0);
        assert_eq!(s.shd(), 0.0);
        assert_eq!(s.data_blocks(), 2);
    }

    #[test]
    fn shared_block_detected_across_processors() {
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Load, 0x100),
            acc(1, AccessKind::Store, 0x104), // same 16-byte block
            acc(1, AccessKind::Load, 0x200),
        ]);
        let s = TraceStats::measure(&t, 4);
        assert_eq!(s.shared_blocks(), 1);
        assert!((s.shd() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn apl_counts_write_runs_between_processors() {
        // cpu0 makes a 3-reference run with a write, then cpu1 takes
        // over (closing it), then cpu1's 2-reference write-run is closed
        // by cpu0.
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Load, 0x100),
            acc(0, AccessKind::Store, 0x104),
            acc(0, AccessKind::Load, 0x108),
            acc(1, AccessKind::Store, 0x100),
            acc(1, AccessKind::Load, 0x104),
            acc(0, AccessKind::Load, 0x100),
        ]);
        let s = TraceStats::measure(&t, 4);
        // Two completed runs: [3 refs, wrote] and [2 refs, wrote].
        assert_eq!(s.apl_estimate(), Some(2.5));
        assert_eq!(s.mdshd_estimate(), Some(1.0));
    }

    #[test]
    fn read_only_runs_do_not_count_toward_apl() {
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Load, 0x100),
            acc(0, AccessKind::Load, 0x104),
            acc(1, AccessKind::Store, 0x100), // closes a read-only run
            acc(0, AccessKind::Load, 0x100),  // closes cpu1's write-run
        ]);
        let s = TraceStats::measure(&t, 4);
        assert_eq!(s.mdshd_estimate(), Some(0.5));
        assert_eq!(s.apl_estimate(), Some(1.0)); // only cpu1's 1-ref write run
    }

    #[test]
    fn single_processor_trace_has_no_apl_estimate() {
        let t = Trace::from_records(vec![
            acc(0, AccessKind::Store, 0x100),
            acc(0, AccessKind::Load, 0x100),
        ]);
        let s = TraceStats::measure(&t, 4);
        assert_eq!(s.apl_estimate(), None);
        assert_eq!(s.mdshd_estimate(), None);
    }

    #[test]
    fn empty_trace_yields_zero_ratios() {
        let s = TraceStats::measure(&Trace::new(1), 4);
        assert_eq!(s.ls(), 0.0);
        assert_eq!(s.wr(), 0.0);
        assert_eq!(s.shd(), 0.0);
    }

    #[test]
    fn synthetic_trace_ls_matches_config() {
        let mut b = SynthConfig::builder();
        b.cpus(4).instructions_per_cpu(25_000).ls(0.35).seed(17);
        let s = TraceStats::measure(&b.build().generate(), 4);
        assert!((s.ls() - 0.35).abs() < 0.02, "ls = {}", s.ls());
    }

    #[test]
    fn synthetic_trace_apl_tracks_run_length() {
        let apl = |run: f64| {
            let mut b = SynthConfig::builder();
            b.cpus(4)
                .instructions_per_cpu(30_000)
                .run_length(run)
                .hot_regions(8)
                .seed(23);
            TraceStats::measure(&b.build().generate(), 4)
                .apl_estimate()
                .expect("4-cpu trace with sharing has runs")
        };
        assert!(apl(16.0) > apl(2.0), "longer sections → longer runs");
    }

    /// The two passes [`TraceStats::measure_shared`] replaced, kept as
    /// its reference: pass 1 finds the shared blocks, pass 2 counts and
    /// follows runs on those blocks only.
    fn two_pass_reference(trace: &Trace, block_bits: u32) -> (TraceStats, HashSet<BlockAddr>) {
        #[derive(Clone, Copy, PartialEq)]
        enum Touch {
            One(CpuId),
            Many,
        }
        struct Run {
            cpu: CpuId,
            len: u64,
            wrote: bool,
        }
        let mut touched: HashMap<BlockAddr, Touch> = HashMap::new();
        for a in trace {
            if a.kind.is_data() {
                touched
                    .entry(a.addr.block(block_bits))
                    .and_modify(|t| {
                        if *t != Touch::One(a.cpu) {
                            *t = Touch::Many;
                        }
                    })
                    .or_insert(Touch::One(a.cpu));
            }
        }
        let shared: HashSet<BlockAddr> = touched
            .iter()
            .filter(|(_, &t)| t == Touch::Many)
            .map(|(&b, _)| b)
            .collect();
        let mut stats = TraceStats {
            instructions: 0,
            loads: 0,
            stores: 0,
            flushes: 0,
            shared_data_refs: 0,
            data_blocks: touched.len() as u64,
            shared_blocks: shared.len() as u64,
            runs: 0,
            write_runs: 0,
            write_run_refs: 0,
            per_cpu_instructions: vec![0; usize::from(trace.cpus())],
        };
        let mut runs: HashMap<BlockAddr, Run> = HashMap::new();
        for a in trace {
            match a.kind {
                AccessKind::Fetch => {
                    stats.instructions += 1;
                    stats.per_cpu_instructions[a.cpu.index()] += 1;
                }
                AccessKind::Flush => stats.flushes += 1,
                AccessKind::Load | AccessKind::Store => {
                    let write = a.kind.is_write();
                    if write {
                        stats.stores += 1;
                    } else {
                        stats.loads += 1;
                    }
                    let block = a.addr.block(block_bits);
                    if !shared.contains(&block) {
                        continue;
                    }
                    stats.shared_data_refs += 1;
                    let run = runs.entry(block).or_insert(Run {
                        cpu: a.cpu,
                        len: 0,
                        wrote: false,
                    });
                    if run.cpu != a.cpu {
                        stats.runs += 1;
                        if run.wrote {
                            stats.write_runs += 1;
                            stats.write_run_refs += run.len;
                        }
                        *run = Run {
                            cpu: a.cpu,
                            len: 0,
                            wrote: false,
                        };
                    }
                    run.len += 1;
                    run.wrote |= write;
                }
            }
        }
        (stats, shared)
    }

    proptest::proptest! {
        /// One pass gives the two-pass statistics and shared set, on
        /// traces dense enough in a few blocks that runs open, close
        /// and interleave across every processor.
        #[test]
        fn one_pass_matches_the_two_pass_reference(
            records in proptest::collection::vec((0u16..4, 0u8..4, 0u64..256), 0..400),
            block_bits in 0u32..6,
        ) {
            let kinds = [
                AccessKind::Fetch,
                AccessKind::Load,
                AccessKind::Store,
                AccessKind::Flush,
            ];
            let trace = Trace::from_records(
                records
                    .into_iter()
                    .map(|(cpu, kind, addr)| acc(cpu, kinds[usize::from(kind)], addr))
                    .collect(),
            );
            let (stats, shared) = TraceStats::measure_shared(&trace, block_bits);
            let (want, want_shared) = two_pass_reference(&trace, block_bits);
            proptest::prop_assert_eq!(&stats, &want);
            proptest::prop_assert_eq!(shared.len(), want_shared.len());
            for &block in &want_shared {
                proptest::prop_assert!(shared.contains(block));
            }
        }
    }
}
