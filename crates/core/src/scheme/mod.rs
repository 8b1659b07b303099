//! The four cache-coherence schemes and their operation frequencies
//! (paper Tables 3–6).
//!
//! Each table is written once, as a function that pushes the expected
//! number of occurrences of each hardware [`Operation`] per (non-flush)
//! instruction, term by term in table order, into a sink. The sink is
//! the Eq. 1–2 accumulator of [`crate::demand`], which charges each term
//! its cost from a [`crate::system::CostModel`] as it arrives and hands
//! the priced term to any reader through
//! [`crate::demand::scheme_terms`]. No table is ever stored.

pub mod base;
pub mod dragon;
pub mod no_cache;
pub mod software_flush;

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::system::Operation;
use crate::workload::WorkloadParams;
use dragon::DragonTerms;

/// A cache-coherence scheme evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scheme {
    /// No coherence at all — an upper bound on performance.
    Base,
    /// Shared data is uncacheable; every shared reference goes to memory.
    NoCache,
    /// Shared data is cached between explicit flush instructions.
    SoftwareFlush,
    /// A Dragon-like write-update snoopy hardware protocol.
    Dragon,
}

impl Scheme {
    /// All four schemes, in the paper's order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Base,
        Scheme::NoCache,
        Scheme::SoftwareFlush,
        Scheme::Dragon,
    ];

    /// The one-letter code used in the paper's Figure 11 labels
    /// (`B`, `N`, `S`; Dragon has no network variant and has no code).
    pub fn code(self) -> Option<char> {
        match self {
            Scheme::Base => Some('B'),
            Scheme::NoCache => Some('N'),
            Scheme::SoftwareFlush => Some('S'),
            Scheme::Dragon => None,
        }
    }

    /// Whether the scheme requires a broadcast medium (a snoopy bus).
    ///
    /// Dragon listens to all memory traffic and therefore cannot run on a
    /// multistage network; the software schemes and Base can.
    pub fn requires_bus(self) -> bool {
        matches!(self, Scheme::Dragon)
    }

    /// Pushes this scheme's table terms under workload `w` into `sink`,
    /// in table order.
    #[inline]
    pub(crate) fn terms<S: TermSink>(self, w: &WorkloadParams, sink: &mut S) {
        match self {
            Scheme::Base => base::terms(w, sink),
            Scheme::NoCache => no_cache::terms(w, sink),
            Scheme::SoftwareFlush => software_flush::terms(w, sink),
            Scheme::Dragon => dragon::terms(w, DragonTerms::default(), sink),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Base => "Base",
            Scheme::NoCache => "No-Cache",
            Scheme::SoftwareFlush => "Software-Flush",
            Scheme::Dragon => "Dragon",
        })
    }
}

/// Where a table's `(operation, frequency)` terms go: the Eq. 1–2
/// accumulator of [`crate::demand`] that charges them, or a test's
/// collector.
pub(crate) trait TermSink {
    /// Takes one term of nonzero frequency.
    fn take(&mut self, op: Operation, freq: f64);

    /// Adds `freq` occurrences of `op` per instruction, under the rules
    /// every sink shares: the frequency must be finite and non-negative,
    /// and a zero-frequency term is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is negative or non-finite (frequencies are
    /// expectations and must be well-formed).
    #[inline]
    fn push(&mut self, op: Operation, freq: f64) {
        assert!(
            freq.is_finite() && freq >= 0.0,
            "operation frequency must be finite and non-negative, got {freq} for {op}"
        );
        // swcc-lint: allow(float-eq) — zero-frequency ops are skipped; -0.0 frequency is zero (finiteness checked above)
        if freq != 0.0 {
            self.take(op, freq);
        }
    }
}

/// Test-only reading of a table's terms.
#[cfg(test)]
pub(crate) mod collect {
    use super::{Scheme, TermSink};
    use crate::system::Operation;
    use crate::workload::WorkloadParams;

    /// A [`TermSink`] that keeps every term it takes, in push order, and
    /// prices none of them.
    #[derive(Debug, Default, PartialEq)]
    pub(crate) struct Collected(pub(crate) Vec<(Operation, f64)>);

    impl TermSink for Collected {
        fn take(&mut self, op: Operation, freq: f64) {
            self.0.push((op, freq));
        }
    }

    impl Collected {
        /// The terms `table` pushes.
        pub(crate) fn from(table: impl FnOnce(&mut Collected)) -> Collected {
            let mut terms = Collected::default();
            table(&mut terms);
            terms
        }

        /// The terms of `scheme`'s table under `w`.
        pub(crate) fn scheme(scheme: Scheme, w: &WorkloadParams) -> Collected {
            Collected::from(|sink| scheme.terms(w, sink))
        }

        /// The frequency pushed for `op` (0 if none was).
        pub(crate) fn freq(&self, op: Operation) -> f64 {
            self.0
                .iter()
                .find(|&&(o, _)| o == op)
                .map_or(0.0, |&(_, f)| f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::collect::Collected;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mix_drops_zero_frequency() {
        let terms = Collected::from(|sink| {
            sink.push(Operation::WriteThrough, 0.0);
            sink.push(Operation::ReadThrough, -0.0);
        });
        assert!(terms.0.is_empty(), "{terms:?}");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mix_rejects_negative_frequency() {
        Collected::from(|sink| sink.push(Operation::WriteThrough, -0.1));
    }

    #[test]
    fn push_rejects_non_finite_frequencies() {
        for freq in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pushed = catch_unwind(AssertUnwindSafe(|| {
                Collected::from(|sink| sink.push(Operation::WriteThrough, freq))
            }));
            assert!(pushed.is_err(), "{freq} was taken");
        }
    }

    #[test]
    fn every_scheme_mix_includes_instruction_execution() {
        let w = WorkloadParams::default();
        for s in Scheme::ALL {
            assert_eq!(
                Collected::scheme(s, &w).freq(Operation::Instruction),
                1.0,
                "{s}"
            );
        }
    }

    #[test]
    fn scheme_codes_match_figure11() {
        assert_eq!(Scheme::Base.code(), Some('B'));
        assert_eq!(Scheme::NoCache.code(), Some('N'));
        assert_eq!(Scheme::SoftwareFlush.code(), Some('S'));
        assert_eq!(Scheme::Dragon.code(), None);
    }

    #[test]
    fn only_dragon_requires_bus() {
        assert!(Scheme::Dragon.requires_bus());
        assert!(!Scheme::Base.requires_bus());
        assert!(!Scheme::NoCache.requires_bus());
        assert!(!Scheme::SoftwareFlush.requires_bus());
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::SoftwareFlush.to_string(), "Software-Flush");
        assert_eq!(Scheme::NoCache.to_string(), "No-Cache");
    }
}
