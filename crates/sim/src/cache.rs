//! A set-associative cache with true-LRU replacement.
//!
//! Matches the paper's simulated hardware: combined instruction/data
//! caches with 16-byte blocks (configurable), per-line coherence state.
//! The cache stores only tags and states — the simulator never models
//! data values, only timing and coherence traffic.
//!
//! ## Layout
//!
//! All lines live in one flat `sets × ways` array, set-major. A set's
//! resident lines form a prefix of its `ways` slots, most recently used
//! first; empty slots follow them. A hit moves the line to the front of
//! its set by rotating the slots before it, so no access allocates, and
//! a direct-mapped lookup is one array load.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use swcc_trace::BlockAddr;

/// Coherence state of a resident line.
///
/// * Base / No-Cache / Software-Flush use only [`LineState::Clean`] and
///   [`LineState::Dirty`].
/// * Dragon uses all four: `Clean` = exclusive-clean, `Dirty` =
///   exclusive-modified, `SharedClean` = valid in several caches and
///   consistent with memory (or owned elsewhere), `SharedDirty` = valid
///   in several caches and owned (this cache must supply and eventually
///   write back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineState {
    /// Exclusive, consistent with memory.
    Clean,
    /// Exclusive, modified (write-back owed).
    Dirty,
    /// Shared, not owner.
    SharedClean,
    /// Shared, owner (write-back owed).
    SharedDirty,
}

impl LineState {
    /// Whether replacing or flushing this line requires a write-back.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Dirty | LineState::SharedDirty)
    }

    /// Whether the line believes other caches hold the block.
    pub fn is_shared(self) -> bool {
        matches!(self, LineState::SharedClean | LineState::SharedDirty)
    }
}

/// One slot of a set: a resident line, or empty (`state` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: BlockAddr,
    state: Option<LineState>,
}

impl Line {
    const EMPTY: Line = Line {
        block: BlockAddr(0),
        state: None,
    };

    fn holds(&self, block: BlockAddr) -> bool {
        self.block == block && self.state.is_some()
    }
}

/// What `insert` evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced block and its state (dirty ⇒ write-back required).
    pub victim: Option<(BlockAddr, LineState)>,
}

/// Why a cache geometry is rejected (see [`check_geometry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeometryError {
    /// Associativity zero.
    NoWays,
    /// A block offset of 64 bits or more.
    BlockBits(u32),
    /// Capacity zero or not a multiple of the block size.
    Capacity {
        /// The requested capacity in bytes.
        capacity_bytes: u64,
        /// The block size in bytes.
        block_bytes: u64,
    },
    /// The blocks do not divide evenly into the ways.
    Ways {
        /// Blocks the capacity holds.
        blocks: u64,
        /// The requested associativity.
        ways: usize,
    },
    /// A set count that is not a power of two.
    Sets(u64),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::NoWays => f.write_str("need at least one way"),
            GeometryError::BlockBits(bits) => {
                write!(f, "block offset must be under 64 bits, got {bits}")
            }
            GeometryError::Capacity {
                capacity_bytes,
                block_bytes,
            } => write!(
                f,
                "capacity must be a positive multiple of the block size \
                 ({capacity_bytes} bytes, {block_bytes}-byte blocks)"
            ),
            GeometryError::Ways { blocks, ways } => write!(
                f,
                "capacity must divide evenly into {ways} ways ({blocks} blocks)"
            ),
            GeometryError::Sets(sets) => {
                write!(f, "set count must be a power of two, got {sets}")
            }
        }
    }
}

impl Error for GeometryError {}

/// Checks a cache geometry without building the cache: `capacity_bytes`
/// of `ways`-way sets of `2^block_bits`-byte blocks. Returns the set
/// count.
///
/// # Errors
///
/// Zero ways, a block offset of 64 bits or more, a capacity that is
/// zero or not a multiple of the block size, blocks that do not divide
/// into the ways, or a set count that is not a power of two.
pub fn check_geometry(
    capacity_bytes: u64,
    ways: usize,
    block_bits: u32,
) -> Result<u64, GeometryError> {
    if ways == 0 {
        return Err(GeometryError::NoWays);
    }
    let block_bytes = 1u64
        .checked_shl(block_bits)
        .ok_or(GeometryError::BlockBits(block_bits))?;
    let blocks = capacity_bytes / block_bytes;
    if blocks == 0 || !capacity_bytes.is_multiple_of(block_bytes) {
        return Err(GeometryError::Capacity {
            capacity_bytes,
            block_bytes,
        });
    }
    // `ways` above `u64::MAX` cannot divide a `u64` block count.
    let ways64 = u64::try_from(ways).map_err(|_| GeometryError::Ways { blocks, ways })?;
    if !blocks.is_multiple_of(ways64) {
        return Err(GeometryError::Ways { blocks, ways });
    }
    let sets = blocks / ways64;
    if !sets.is_power_of_two() {
        return Err(GeometryError::Sets(sets));
    }
    Ok(sets)
}

/// A set-associative cache indexed by block address.
///
/// Each set is kept in LRU order (most recent first). Capacity is
/// `sets × ways` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    /// `sets × ways` slots, set-major (see the module docs).
    lines: Vec<Line>,
    ways: usize,
    set_mask: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity
    /// and block size (`block_bits` of offset; 4 ⇒ 16-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`check_geometry`]):
    /// zero ways, capacity not a multiple of `ways × block_size`, or a
    /// non-power-of-two set count.
    pub fn new(capacity_bytes: u64, ways: usize, block_bits: u32) -> Self {
        let sets =
            check_geometry(capacity_bytes, ways, block_bits).unwrap_or_else(|e| panic!("{e}"));
        let slots = usize::try_from(sets)
            .ok()
            .and_then(|s| s.checked_mul(ways))
            .expect("the line array fits in memory");
        Cache {
            lines: vec![Line::EMPTY; slots],
            ways,
            set_mask: sets - 1,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lines.len() / self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The first slot of `block`'s set.
    fn set_start(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize * self.ways
    }

    /// The slots of `block`'s set.
    fn set(&self, block: BlockAddr) -> &[Line] {
        let start = self.set_start(block);
        &self.lines[start..start + self.ways]
    }

    /// The slots of `block`'s set, mutably.
    fn set_mut(&mut self, block: BlockAddr) -> &mut [Line] {
        let start = self.set_start(block);
        &mut self.lines[start..start + self.ways]
    }

    /// Looks up a block *without* touching LRU order.
    pub fn peek(&self, block: BlockAddr) -> Option<LineState> {
        self.set(block)
            .iter()
            .find(|l| l.holds(block))
            .and_then(|l| l.state)
    }

    /// Looks up a block and promotes it to most-recently-used.
    /// Returns its state if resident.
    pub fn touch(&mut self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_mut(block);
        let pos = set.iter().position(|l| l.holds(block))?;
        if pos > 0 {
            set[..=pos].rotate_right(1);
        }
        set[0].state
    }

    /// Sets the state of a resident block (no LRU change).
    ///
    /// Returns `true` if the block was resident.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        match self.set_mut(block).iter_mut().find(|l| l.holds(block)) {
            Some(line) => {
                line.state = Some(state);
                true
            }
            None => false,
        }
    }

    /// Inserts a block as most-recently-used with the given state,
    /// evicting the LRU line if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident (protocol logic must
    /// `touch`/`set_state` instead of re-inserting).
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Eviction {
        let set = self.set_mut(block);
        assert!(
            !set.iter().any(|l| l.holds(block)),
            "insert of resident block {block}"
        );
        // The first empty slot, or the LRU line when the set is full.
        let last = set
            .iter()
            .position(|l| l.state.is_none())
            .unwrap_or(set.len() - 1);
        let out = set[last];
        if last > 0 {
            set[..=last].rotate_right(1);
        }
        set[0] = Line {
            block,
            state: Some(state),
        };
        Eviction {
            victim: out.state.map(|s| (out.block, s)),
        }
    }

    /// Removes a block, returning its state if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_mut(block);
        let pos = set.iter().position(|l| l.holds(block))?;
        let state = set[pos].state;
        set[pos..].rotate_left(1);
        set[set.len() - 1] = Line::EMPTY;
        state
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.state.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(v: u64) -> BlockAddr {
        BlockAddr(v)
    }

    #[test]
    fn geometry_is_derived_from_capacity() {
        // 64 KiB, 1-way, 16-byte blocks => 4096 sets.
        let c = Cache::new(64 * 1024, 1, 4);
        assert_eq!(c.num_sets(), 4096);
        assert_eq!(c.ways(), 1);
        // 16 KiB, 4-way => 256 sets.
        let c = Cache::new(16 * 1024, 4, 4);
        assert_eq!(c.num_sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Cache::new(48, 1, 4); // 3 sets
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(256, 2, 4); // 16 blocks, 8 sets
        assert_eq!(c.touch(blk(5)), None);
        c.insert(blk(5), LineState::Clean);
        assert_eq!(c.touch(blk(5)), Some(LineState::Clean));
        assert_eq!(c.peek(blk(5)), Some(LineState::Clean));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(2 * 16, 2, 4); // one set, two ways
        c.insert(blk(0), LineState::Clean);
        c.insert(blk(2), LineState::Dirty);
        // Touch block 0 so block 2 becomes LRU.
        assert!(c.touch(blk(0)).is_some());
        let ev = c.insert(blk(4), LineState::Clean);
        assert_eq!(ev.victim, Some((blk(2), LineState::Dirty)));
        assert_eq!(c.peek(blk(0)), Some(LineState::Clean));
        assert_eq!(c.peek(blk(2)), None);
    }

    #[test]
    fn conflicting_blocks_map_to_same_set() {
        // 8 sets: blocks 1 and 9 conflict in a direct-mapped cache.
        let mut c = Cache::new(8 * 16, 1, 4);
        c.insert(blk(1), LineState::Clean);
        let ev = c.insert(blk(9), LineState::Clean);
        assert_eq!(ev.victim, Some((blk(1), LineState::Clean)));
    }

    #[test]
    fn non_conflicting_blocks_coexist() {
        let mut c = Cache::new(8 * 16, 1, 4);
        c.insert(blk(1), LineState::Clean);
        let ev = c.insert(blk(2), LineState::Clean);
        assert_eq!(ev.victim, None);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn set_state_updates_resident_lines_only() {
        let mut c = Cache::new(256, 2, 4);
        c.insert(blk(3), LineState::Clean);
        assert!(c.set_state(blk(3), LineState::SharedDirty));
        assert_eq!(c.peek(blk(3)), Some(LineState::SharedDirty));
        assert!(!c.set_state(blk(4), LineState::Clean));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(256, 2, 4);
        c.insert(blk(3), LineState::Dirty);
        assert_eq!(c.invalidate(blk(3)), Some(LineState::Dirty));
        assert_eq!(c.invalidate(blk(3)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "insert of resident block")]
    fn double_insert_is_a_bug() {
        let mut c = Cache::new(256, 2, 4);
        c.insert(blk(3), LineState::Clean);
        c.insert(blk(3), LineState::Clean);
    }

    #[test]
    fn state_predicates() {
        assert!(LineState::Dirty.is_dirty());
        assert!(LineState::SharedDirty.is_dirty());
        assert!(!LineState::Clean.is_dirty());
        assert!(!LineState::SharedClean.is_dirty());
        assert!(LineState::SharedClean.is_shared());
        assert!(!LineState::Dirty.is_shared());
    }

    #[test]
    fn geometry_errors_match_the_constructor_panics() {
        assert_eq!(check_geometry(64 * 1024, 1, 4), Ok(4096));
        assert_eq!(check_geometry(48, 3, 4), Ok(1));
        for (bytes, ways, bits, want) in [
            (48, 1, 4, GeometryError::Sets(3)),
            (48 * 1024, 1, 4, GeometryError::Sets(3072)),
            (64 * 1024, 0, 4, GeometryError::NoWays),
            (64, 3, 4, GeometryError::Ways { blocks: 4, ways: 3 }),
            (1024, 1, 64, GeometryError::BlockBits(64)),
            (
                0,
                1,
                4,
                GeometryError::Capacity {
                    capacity_bytes: 0,
                    block_bytes: 16,
                },
            ),
            (
                100,
                1,
                4,
                GeometryError::Capacity {
                    capacity_bytes: 100,
                    block_bytes: 16,
                },
            ),
        ] {
            assert_eq!(check_geometry(bytes, ways, bits), Err(want));
            let panic = std::panic::catch_unwind(|| Cache::new(bytes, ways, bits))
                .expect_err("Cache::new rejects what check_geometry rejects");
            let message = panic
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(*message, want.to_string());
        }
    }

    #[test]
    fn touch_promotes_to_mru() {
        // One set, 4 ways.
        let mut c = Cache::new(4 * 16, 4, 4);
        for b in 0..4 {
            c.insert(blk(b), LineState::Clean);
        }
        c.touch(blk(0)); // 0 is now MRU; LRU is 1.
        let ev = c.insert(blk(10), LineState::Clean);
        assert_eq!(ev.victim.unwrap().0, blk(1));
    }

    /// The layout the flat cache replaced, kept as its reference: one
    /// `Vec` per set, most recent first.
    struct ReferenceCache {
        sets: Vec<Vec<(BlockAddr, LineState)>>,
        ways: usize,
    }

    impl ReferenceCache {
        fn new(sets: usize, ways: usize) -> Self {
            ReferenceCache {
                sets: vec![Vec::new(); sets],
                ways,
            }
        }

        fn set(&mut self, block: BlockAddr) -> &mut Vec<(BlockAddr, LineState)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(block.0 % n) as usize]
        }

        fn peek(&mut self, block: BlockAddr) -> Option<LineState> {
            self.set(block).iter().find(|l| l.0 == block).map(|l| l.1)
        }

        fn touch(&mut self, block: BlockAddr) -> Option<LineState> {
            let set = self.set(block);
            let pos = set.iter().position(|l| l.0 == block)?;
            let line = set.remove(pos);
            set.insert(0, line);
            Some(line.1)
        }

        fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
            match self.set(block).iter_mut().find(|l| l.0 == block) {
                Some(line) => {
                    line.1 = state;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
            let ways = self.ways;
            let set = self.set(block);
            let victim = if set.len() == ways { set.pop() } else { None };
            set.insert(0, (block, state));
            victim
        }

        fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
            let set = self.set(block);
            let pos = set.iter().position(|l| l.0 == block)?;
            Some(set.remove(pos).1)
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    const STATES: [LineState; 4] = [
        LineState::Clean,
        LineState::Dirty,
        LineState::SharedClean,
        LineState::SharedDirty,
    ];

    proptest::proptest! {
        /// Every `sim-validate` point is direct-mapped, so the
        /// benchmark digest cannot see the LRU order of a wider set:
        /// the flat layout must match the one-`Vec`-per-set model on
        /// every call, at every associativity the simulator is run with.
        #[test]
        fn flat_cache_matches_the_lru_reference(
            ways_log in 0u32..4,
            sets_log in 0u32..3,
            ops in proptest::collection::vec((0u8..5, 0u64..24, 0usize..4), 1..300),
        ) {
            let ways = 1usize << ways_log;
            let sets = 1usize << sets_log;
            let mut flat = Cache::new((sets * ways * 16) as u64, ways, 4);
            let mut reference = ReferenceCache::new(sets, ways);
            proptest::prop_assert_eq!(flat.num_sets(), sets);
            for (op, block, state) in ops {
                let block = BlockAddr(block);
                let state = STATES[state];
                match op {
                    0 => proptest::prop_assert_eq!(flat.touch(block), reference.touch(block)),
                    1 => proptest::prop_assert_eq!(flat.peek(block), reference.peek(block)),
                    2 => proptest::prop_assert_eq!(
                        flat.set_state(block, state),
                        reference.set_state(block, state)
                    ),
                    3 => proptest::prop_assert_eq!(
                        flat.invalidate(block),
                        reference.invalidate(block)
                    ),
                    // Insert only what is absent, as the protocols do.
                    _ if reference.peek(block).is_none() => proptest::prop_assert_eq!(
                        flat.insert(block, state).victim,
                        reference.insert(block, state)
                    ),
                    _ => {}
                }
                proptest::prop_assert_eq!(flat.occupancy(), reference.occupancy());
            }
        }
    }
}
