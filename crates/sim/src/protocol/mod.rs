//! Coherence protocols simulated by the machine.
//!
//! Each protocol is a set of handlers over a `Machine` (below), one
//! module per protocol:
//!
//! * `base` — write-back caching, no coherence (the paper's upper
//!   bound).
//! * `no_cache` — shared addresses bypass the cache as read-/write-
//!   throughs.
//! * `software_flush` — shared data cached; explicit flush records
//!   invalidate (and write back) lines.
//! * `dragon` — write-update snoopy protocol with write-broadcast,
//!   cache-to-cache supply, and snoop cycle-stealing.
//! * `write_invalidate` — Illinois/MESI-like invalidation protocol
//!   (extension).
//!
//! A handler makes the line-state transitions and charges each
//! [`Operation`] they cause, a miss's fill included, to its `Machine`.
//! The timed [`crate::Multiprocessor`] prices and counts every charge;
//! parameter measurement ([`crate::measure`]) replays `dragon` without
//! clocks and counts only what Table 2 needs.

pub(crate) mod base;
pub(crate) mod dragon;
pub(crate) mod no_cache;
pub(crate) mod software_flush;
pub(crate) mod write_invalidate;

use std::fmt;

use serde::{Deserialize, Serialize};

use swcc_core::scheme::Scheme;
use swcc_core::system::{MissSource, Operation};
use swcc_trace::BlockAddr;

use crate::cache::{Cache, LineState};

/// What a protocol handler acts on: every processor's cache, and a sink
/// for the operations its transitions charge.
pub(crate) trait Machine {
    /// Every processor's cache, indexed by processor id.
    fn caches(&mut self) -> &mut [Cache];

    /// Charges one hardware operation to `cpu`.
    fn charge(&mut self, cpu: usize, op: Operation);

    /// Inserts `block` into `cpu`'s cache in `state` and charges the
    /// miss that brought it from `source`: a dirty miss when the victim
    /// it replaced was dirty, a clean one otherwise.
    fn fill(&mut self, cpu: usize, block: BlockAddr, state: LineState, source: MissSource) {
        let victim = self.caches()[cpu].insert(block, state).victim;
        let op = if victim.is_some_and(|(_, s)| s.is_dirty()) {
            Operation::DirtyMiss(source)
        } else {
            Operation::CleanMiss(source)
        };
        self.charge(cpu, op);
    }
}

/// What one snoop of the other caches found for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Snoop {
    /// Other caches holding the block.
    pub(crate) holders: u64,
    /// The lowest-numbered other cache holding it dirty.
    pub(crate) owner: Option<usize>,
    /// Another cache holding it in an exclusive state (`Clean` or
    /// `Dirty`).
    pub(crate) exclusive: Option<usize>,
}

impl Snoop {
    /// Where a miss on the block is served from: the dirty owner's
    /// cache if there is one, memory otherwise.
    pub(crate) fn source(self) -> MissSource {
        if self.owner.is_some() {
            MissSource::Cache
        } else {
            MissSource::Memory
        }
    }
}

/// Peeks once into every cache but `cpu`'s for `block`.
pub(crate) fn snoop(caches: &[Cache], cpu: usize, block: BlockAddr) -> Snoop {
    let mut found = Snoop {
        holders: 0,
        owner: None,
        exclusive: None,
    };
    for (o, cache) in caches.iter().enumerate() {
        if o == cpu {
            continue;
        }
        if let Some(state) = cache.peek(block) {
            found.holders += 1;
            if state.is_dirty() && found.owner.is_none() {
                found.owner = Some(o);
            }
            if !state.is_shared() {
                found.exclusive = Some(o);
            }
        }
    }
    found
}

/// Which coherence protocol the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Write-back caching without coherence.
    Base,
    /// Shared data is uncacheable.
    NoCache,
    /// Shared data cached between explicit flushes.
    SoftwareFlush,
    /// Dragon-like write-update snoopy protocol.
    Dragon,
    /// Illinois/MESI-like write-invalidate snoopy protocol (extension;
    /// not one of the paper's four schemes).
    WriteInvalidate,
}

impl ProtocolKind {
    /// All protocols, the paper's four first.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Base,
        ProtocolKind::NoCache,
        ProtocolKind::SoftwareFlush,
        ProtocolKind::Dragon,
        ProtocolKind::WriteInvalidate,
    ];

    /// The paper's four protocols (the ones with a [`Scheme`] in the
    /// analytical model).
    pub const PAPER: [ProtocolKind; 4] = [
        ProtocolKind::Base,
        ProtocolKind::NoCache,
        ProtocolKind::SoftwareFlush,
        ProtocolKind::Dragon,
    ];

    /// The analytical-model scheme this protocol corresponds to, or
    /// `None` for extension protocols outside the paper's four (their
    /// analytical counterparts live in dedicated modules, e.g.
    /// [`swcc_core::invalidate`] for [`ProtocolKind::WriteInvalidate`]).
    pub fn scheme(self) -> Option<Scheme> {
        match self {
            ProtocolKind::Base => Some(Scheme::Base),
            ProtocolKind::NoCache => Some(Scheme::NoCache),
            ProtocolKind::SoftwareFlush => Some(Scheme::SoftwareFlush),
            ProtocolKind::Dragon => Some(Scheme::Dragon),
            ProtocolKind::WriteInvalidate => None,
        }
    }

    /// Whether the protocol consumes flush records (others skip them).
    pub fn uses_flushes(self) -> bool {
        matches!(self, ProtocolKind::SoftwareFlush)
    }

    /// Whether the protocol needs a broadcast medium (a snoopy bus).
    /// Snoopy protocols cannot run on a multistage network.
    pub fn requires_bus(self) -> bool {
        matches!(self, ProtocolKind::Dragon | ProtocolKind::WriteInvalidate)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scheme() {
            Some(s) => write!(f, "{s}"),
            None => f.write_str("Write-Invalidate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_map_to_schemes() {
        assert_eq!(ProtocolKind::Base.scheme(), Some(Scheme::Base));
        assert_eq!(ProtocolKind::NoCache.scheme(), Some(Scheme::NoCache));
        assert_eq!(
            ProtocolKind::SoftwareFlush.scheme(),
            Some(Scheme::SoftwareFlush)
        );
        assert_eq!(ProtocolKind::Dragon.scheme(), Some(Scheme::Dragon));
        assert_eq!(ProtocolKind::WriteInvalidate.scheme(), None);
        for p in ProtocolKind::PAPER {
            assert!(p.scheme().is_some());
        }
    }

    #[test]
    fn only_software_flush_uses_flushes() {
        for p in ProtocolKind::ALL {
            assert_eq!(p.uses_flushes(), p == ProtocolKind::SoftwareFlush);
        }
    }

    #[test]
    fn display_matches_scheme_names() {
        assert_eq!(ProtocolKind::Dragon.to_string(), "Dragon");
        assert_eq!(ProtocolKind::SoftwareFlush.to_string(), "Software-Flush");
        assert_eq!(
            ProtocolKind::WriteInvalidate.to_string(),
            "Write-Invalidate"
        );
    }
}
