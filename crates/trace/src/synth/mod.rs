//! Synthetic multiprocessor workload generation.
//!
//! The paper validated its model against ATUM-2 address traces (POPS,
//! THOR, PERO) from a four-processor VAX 8350. Those traces are not
//! available, so this module generates synthetic interleaved traces with
//! the same *structure*:
//!
//! * an instruction stream with loop-shaped locality (controls the
//!   instruction miss rate `mains`),
//! * per-processor private data with LRU-stack locality (controls the
//!   data miss rate `msdat` and dirty-replacement rate `md`),
//! * critical-section-structured shared data: a processor "acquires" a
//!   small region of shared blocks, references it in a run (geometric
//!   length, controls `apl`), optionally writes it (`wr`, `mdshd`), then
//!   releases it — optionally emitting explicit flush records for the
//!   Software-Flush scheme.
//!
//! The generator's knobs do not set the Table 2 parameters directly;
//! instead [`crate::stats::TraceStats`] *measures* them from the produced
//! trace, exactly as the paper measured its traces — so model-vs-simulator
//! validation exercises the same path the authors used.
//!
//! Everything is seeded and deterministic.

mod calibrate;
mod presets;

pub use calibrate::{calibrate, Calibration, CalibrationTarget};
pub use presets::{pero_like, pops_like, thor_like, Preset};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::layout::AddressLayout;
use crate::record::{Access, AccessKind, Addr, BlockAddr, CpuId, Trace};

/// Configuration of the synthetic workload generator.
///
/// Build one with [`SynthConfig::builder`] or start from a preset
/// ([`pops_like`], [`thor_like`], [`pero_like`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    cpus: u16,
    instructions_per_cpu: usize,
    seed: u64,
    ls: f64,
    shd: f64,
    wr_private: f64,
    wr_shared: f64,
    loop_words: f64,
    loop_repeats: f64,
    code_size: u64,
    private_size: u64,
    shared_size: u64,
    private_reuse: f64,
    private_depth: usize,
    region_blocks: u64,
    run_length: f64,
    hot_regions: u64,
    emit_flushes: bool,
}

impl SynthConfig {
    /// Starts building a configuration with reasonable defaults
    /// (4 cpus, 200k instructions each, middle-of-Table-7-ish mix).
    pub fn builder() -> SynthConfigBuilder {
        SynthConfigBuilder {
            config: SynthConfig {
                cpus: 4,
                instructions_per_cpu: 200_000,
                seed: 0x5ca1ab1e,
                ls: 0.3,
                shd: 0.25,
                wr_private: 0.30,
                wr_shared: 0.25,
                loop_words: 64.0,
                loop_repeats: 50.0,
                code_size: 256 * 1024,
                private_size: 1024 * 1024,
                shared_size: 256 * 1024,
                private_reuse: 0.96,
                private_depth: 256,
                region_blocks: 4,
                run_length: 8.0,
                hot_regions: 64,
                emit_flushes: false,
            },
        }
    }

    /// Number of processors.
    pub fn cpus(&self) -> u16 {
        self.cpus
    }

    /// Instructions generated per processor.
    pub fn instructions_per_cpu(&self) -> usize {
        self.instructions_per_cpu
    }

    /// The RNG seed (the trace is a pure function of the config).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether flush records are emitted at critical-section release.
    pub fn emits_flushes(&self) -> bool {
        self.emit_flushes
    }

    /// The address layout the generator references.
    pub fn layout(&self) -> AddressLayout {
        AddressLayout::new(
            self.cpus,
            self.code_size,
            self.private_size,
            self.shared_size,
        )
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        Generator::new(self.clone()).run()
    }

    /// A builder starting from this configuration, so a preset can be
    /// rebuilt with one knob changed.
    ///
    /// ```
    /// use swcc_trace::synth::thor_like;
    ///
    /// let plain = thor_like(2, 1_000, 7);
    /// let flushing = plain.to_builder().emit_flushes(true).build();
    /// assert!(flushing.emits_flushes());
    /// assert_eq!(flushing.seed(), plain.seed());
    /// ```
    pub fn to_builder(&self) -> SynthConfigBuilder {
        SynthConfigBuilder {
            config: self.clone(),
        }
    }
}

/// Builder for [`SynthConfig`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct SynthConfigBuilder {
    config: SynthConfig,
}

macro_rules! synth_setters {
    ($($(#[$doc:meta])* $field:ident : $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(&mut self, value: $ty) -> &mut Self {
                self.config.$field = value;
                self
            }
        )+
    };
}

impl SynthConfigBuilder {
    synth_setters! {
        /// Number of processors (>= 1).
        cpus: u16,
        /// Instructions to generate per processor.
        instructions_per_cpu: usize,
        /// RNG seed.
        seed: u64,
        /// Probability an instruction performs a data reference.
        ls: f64,
        /// Probability a data reference targets the shared segment.
        shd: f64,
        /// Probability a private data reference is a store.
        wr_private: f64,
        /// Probability a shared data reference is a store.
        wr_shared: f64,
        /// Mean loop body length in words (instruction locality).
        loop_words: f64,
        /// Mean iterations per loop before moving on.
        loop_repeats: f64,
        /// Per-cpu code segment size in bytes.
        code_size: u64,
        /// Per-cpu private data segment size in bytes.
        private_size: u64,
        /// Shared segment size in bytes.
        shared_size: u64,
        /// Probability a private reference reuses a recent block.
        private_reuse: f64,
        /// Depth of the private LRU reuse stack.
        private_depth: usize,
        /// Blocks per shared region (critical-section working set).
        region_blocks: u64,
        /// Mean references to shared data per critical section.
        run_length: f64,
        /// Number of distinct shared regions processors rotate through.
        hot_regions: u64,
        /// Emit explicit flush records at critical-section release
        /// (required when simulating the Software-Flush scheme).
        emit_flushes: bool,
    }

    /// Validates and produces the configuration.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`, any structural knob
    /// is zero, or the shared segment is smaller than one region. (The
    /// generator is test/bench infrastructure; misconfiguration is a
    /// programming error, not a runtime condition.)
    pub fn build(&self) -> SynthConfig {
        let c = &self.config;
        for (name, p) in [
            ("ls", c.ls),
            ("shd", c.shd),
            ("wr_private", c.wr_private),
            ("wr_shared", c.wr_shared),
            ("private_reuse", c.private_reuse),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        assert!(c.cpus >= 1, "need at least one cpu");
        assert!(
            c.instructions_per_cpu > 0,
            "need a positive instruction budget"
        );
        assert!(
            c.loop_words >= 1.0 && c.loop_repeats >= 1.0,
            "loop shape must be >= 1"
        );
        assert!(c.run_length >= 1.0, "run_length must be >= 1");
        assert!(
            c.region_blocks >= 1 && c.hot_regions >= 1,
            "region shape must be >= 1"
        );
        assert!(
            c.shared_size >= c.hot_regions * c.region_blocks * 16,
            "shared segment too small for {} regions of {} blocks",
            c.hot_regions,
            c.region_blocks
        );
        // Constructing the layout re-checks segment bounds.
        let _ = c.layout();
        c.clone()
    }
}

/// Block offset bits for the paper's 16-byte blocks.
const BLOCK_BITS: u32 = 4;
const BLOCK_BYTES: u64 = 1 << BLOCK_BITS;
const WORD_BYTES: u64 = 4;

/// A processor's critical-section state.
#[derive(Debug)]
struct CriticalSection {
    region: u64,
    remaining: u64,
    /// Blocks touched in this section, with a written flag (for flushes).
    touched: Vec<(BlockAddr, bool)>,
}

/// Per-processor generator state.
#[derive(Debug)]
struct CpuState {
    cpu: CpuId,
    /// Current loop: start byte address, body length in bytes, current
    /// offset, and remaining iterations.
    loop_start: u64,
    loop_len: u64,
    loop_off: u64,
    loop_iters: u64,
    /// Recently used private blocks, most recent first.
    private_stack: Vec<u64>,
    /// Bump pointer for touching fresh private blocks.
    private_next: u64,
    section: Option<CriticalSection>,
    generated: usize,
}

#[derive(Debug)]
struct Generator {
    config: SynthConfig,
    layout: AddressLayout,
    rng: StdRng,
    cpus: Vec<CpuState>,
}

impl Generator {
    fn new(config: SynthConfig) -> Self {
        let layout = config.layout();
        let cpus = (0..config.cpus)
            .map(|i| CpuState {
                cpu: CpuId(i),
                loop_start: layout.code_base(CpuId(i)).0,
                loop_len: BLOCK_BYTES,
                loop_off: 0,
                loop_iters: 1,
                private_stack: Vec::new(),
                private_next: 0,
                section: None,
                generated: 0,
            })
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        Generator {
            config,
            layout,
            rng,
            cpus,
        }
    }

    /// Geometric sample with the given mean (>= 1).
    fn geometric(rng: &mut StdRng, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        // Inverse CDF of the geometric distribution on {1, 2, ...}.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let k = (u.ln() / (1.0 - p).ln()).ceil();
        k.max(1.0) as u64
    }

    fn run(mut self) -> Trace {
        let total = self.config.instructions_per_cpu * usize::from(self.config.cpus);
        let mut trace = Trace::new(self.config.cpus);
        let mut active: Vec<usize> = (0..self.cpus.len()).collect();
        let mut out = Vec::new();
        for _ in 0..total {
            debug_assert!(!active.is_empty());
            let pick = self.rng.gen_range(0..active.len());
            let idx = active[pick];
            out.clear();
            self.step(idx, &mut out);
            for a in &out {
                trace.push(*a);
            }
            if self.cpus[idx].generated >= self.config.instructions_per_cpu {
                active.swap_remove(pick);
            }
        }
        trace
    }

    /// Generates one instruction (fetch + optional data access) for the
    /// chosen processor, appending records to `out`.
    fn step(&mut self, idx: usize, out: &mut Vec<Access>) {
        let fetch_addr = self.next_fetch(idx);
        let cpu = self.cpus[idx].cpu;
        out.push(Access::new(cpu, AccessKind::Fetch, fetch_addr));
        self.cpus[idx].generated += 1;
        if self.rng.gen_bool(self.config.ls) {
            if self.rng.gen_bool(self.config.shd) {
                self.shared_access(idx, out);
            } else {
                self.private_access(idx, out);
            }
        }
    }

    fn next_fetch(&mut self, idx: usize) -> Addr {
        let code_base = self.layout.code_base(self.cpus[idx].cpu).0;
        let code_size = self.layout.code_size();
        let st = &mut self.cpus[idx];
        let addr = st.loop_start + st.loop_off;
        st.loop_off += WORD_BYTES;
        if st.loop_off >= st.loop_len {
            st.loop_off = 0;
            st.loop_iters = st.loop_iters.saturating_sub(1);
            if st.loop_iters == 0 {
                // Pick a fresh loop somewhere in this cpu's code segment.
                let words = Self::geometric(&mut self.rng, self.config.loop_words);
                let len = (words * WORD_BYTES).min(code_size / 2).max(WORD_BYTES);
                let max_start = code_size - len;
                let start = if max_start == 0 {
                    0
                } else {
                    self.rng.gen_range(0..max_start / WORD_BYTES) * WORD_BYTES
                };
                let st = &mut self.cpus[idx];
                st.loop_start = code_base + start;
                st.loop_len = len;
                st.loop_iters = Self::geometric(&mut self.rng, self.config.loop_repeats);
            }
        }
        Addr(addr)
    }

    fn private_access(&mut self, idx: usize, out: &mut Vec<Access>) {
        let base = self.layout.private_base(self.cpus[idx].cpu).0;
        let size = self.layout.private_size();
        let reuse = self.config.private_reuse;
        let depth = self.config.private_depth;
        let block = {
            let stack_len = self.cpus[idx].private_stack.len();
            if stack_len > 0 && self.rng.gen_bool(reuse) {
                // Reuse a recent block, biased toward the top of the stack.
                let max = stack_len.min(depth);
                let pos = (Self::geometric(&mut self.rng, 4.0) as usize - 1).min(max - 1);
                self.cpus[idx].private_stack[pos]
            } else {
                // Touch the next fresh block (wrapping within the segment).
                let st = &mut self.cpus[idx];
                let b = st.private_next;
                st.private_next = (st.private_next + 1) % (size / BLOCK_BYTES);
                b
            }
        };
        let st = &mut self.cpus[idx];
        st.private_stack.retain(|&b| b != block);
        st.private_stack.insert(0, block);
        st.private_stack.truncate(depth);
        let offset = self.rng.gen_range(0..BLOCK_BYTES / WORD_BYTES) * WORD_BYTES;
        let kind = if self.rng.gen_bool(self.config.wr_private) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        out.push(Access::new(
            self.cpus[idx].cpu,
            kind,
            base + block * BLOCK_BYTES + offset,
        ));
    }

    fn shared_access(&mut self, idx: usize, out: &mut Vec<Access>) {
        let shared_base = self.layout.shared_base().0;
        if self.cpus[idx].section.is_none() {
            let region = self.rng.gen_range(0..self.config.hot_regions);
            let remaining = Self::geometric(&mut self.rng, self.config.run_length);
            self.cpus[idx].section = Some(CriticalSection {
                region,
                remaining,
                touched: Vec::new(),
            });
        }
        let region_blocks = self.config.region_blocks;
        let block_in_region = self.rng.gen_range(0..region_blocks);
        let offset = self.rng.gen_range(0..BLOCK_BYTES / WORD_BYTES) * WORD_BYTES;
        let is_write = self.rng.gen_bool(self.config.wr_shared);
        let cpu = self.cpus[idx].cpu;
        let section = self.cpus[idx]
            .section
            .as_mut()
            .expect("section was just ensured");
        let block_addr = BlockAddr(
            (shared_base >> BLOCK_BITS) + section.region * region_blocks + block_in_region,
        );
        let addr = Addr(block_addr.0 * BLOCK_BYTES + offset);
        let kind = if is_write {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        out.push(Access::new(cpu, kind, addr));
        if let Some(entry) = section.touched.iter_mut().find(|(b, _)| *b == block_addr) {
            entry.1 |= is_write;
        } else {
            section.touched.push((block_addr, is_write));
        }
        section.remaining -= 1;
        if section.remaining == 0 {
            let section = self.cpus[idx].section.take().expect("checked above");
            if self.config.emit_flushes {
                for (block, _) in &section.touched {
                    out.push(Access::new(cpu, AccessKind::Flush, block.base(BLOCK_BITS)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Region;

    fn tiny() -> SynthConfig {
        let mut b = SynthConfig::builder();
        b.cpus(2).instructions_per_cpu(5_000).seed(7);
        b.build()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny().generate();
        let b = tiny().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut b = SynthConfig::builder();
        b.cpus(2).instructions_per_cpu(5_000).seed(8);
        let other = b.build().generate();
        assert_ne!(tiny().generate(), other);
    }

    #[test]
    fn instruction_budget_is_exact_per_cpu() {
        let t = tiny().generate();
        let mut fetches = [0usize; 2];
        for a in &t {
            if a.kind == AccessKind::Fetch {
                fetches[a.cpu.index()] += 1;
            }
        }
        assert_eq!(fetches, [5_000, 5_000]);
    }

    #[test]
    fn every_record_maps_to_its_region() {
        let cfg = tiny();
        let layout = cfg.layout();
        for a in &cfg.generate() {
            match a.kind {
                AccessKind::Fetch => {
                    assert_eq!(layout.classify(a.addr), Region::Code(a.cpu), "{a}");
                }
                AccessKind::Load | AccessKind::Store => match layout.classify(a.addr) {
                    Region::Private(c) => assert_eq!(c, a.cpu, "{a}"),
                    Region::Shared => {}
                    r => panic!("data access {a} classified {r:?}"),
                },
                AccessKind::Flush => {
                    assert_eq!(layout.classify(a.addr), Region::Shared, "{a}");
                }
            }
        }
    }

    #[test]
    fn data_fraction_tracks_ls() {
        let mut b = SynthConfig::builder();
        b.cpus(1).instructions_per_cpu(50_000).ls(0.3).seed(3);
        let t = b.build().generate();
        let data = t.iter().filter(|a| a.kind.is_data()).count() as f64;
        let instr = t.iter().filter(|a| a.kind == AccessKind::Fetch).count() as f64;
        let ls = data / instr;
        assert!((ls - 0.3).abs() < 0.02, "ls = {ls}");
    }

    #[test]
    fn no_flushes_unless_requested() {
        let t = tiny().generate();
        assert!(t.iter().all(|a| a.kind != AccessKind::Flush));
    }

    #[test]
    fn flushes_emitted_when_requested() {
        let mut b = SynthConfig::builder();
        b.cpus(2)
            .instructions_per_cpu(20_000)
            .emit_flushes(true)
            .seed(9);
        let t = b.build().generate();
        let flushes = t.iter().filter(|a| a.kind == AccessKind::Flush).count();
        assert!(flushes > 0);
    }

    #[test]
    fn flush_rate_tracks_run_length() {
        // Longer critical sections => fewer flushes per shared reference.
        let rate = |run: f64| {
            let mut b = SynthConfig::builder();
            b.cpus(2)
                .instructions_per_cpu(40_000)
                .emit_flushes(true)
                .run_length(run)
                .seed(11);
            let t = b.build().generate();
            let flushes = t.iter().filter(|a| a.kind == AccessKind::Flush).count() as f64;
            let shared = t
                .iter()
                .filter(|a| a.kind.is_data() && a.addr.0 >= AddressLayout::SHARED_BASE)
                .count() as f64;
            flushes / shared
        };
        assert!(rate(2.0) > 2.0 * rate(16.0));
    }

    #[test]
    fn geometric_mean_is_approximately_right() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| Generator::geometric(&mut rng, 8.0)).sum();
        let mean = sum as f64 / f64::from(n);
        assert!((mean - 8.0).abs() < 0.35, "mean = {mean}");
    }

    #[test]
    fn geometric_of_mean_one_is_constant_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(Generator::geometric(&mut rng, 1.0), 1);
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn builder_rejects_bad_probability() {
        let mut b = SynthConfig::builder();
        b.ls(1.2);
        let _ = b.build();
    }

    #[test]
    fn single_cpu_trace_has_no_shared_writers_conflict() {
        let mut b = SynthConfig::builder();
        b.cpus(1).instructions_per_cpu(1_000).seed(5);
        let t = b.build().generate();
        assert_eq!(t.cpus(), 1);
        assert!(t.len() >= 1_000);
    }
}
