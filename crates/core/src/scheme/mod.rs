//! The four cache-coherence schemes and their operation frequencies
//! (paper Tables 3–6).
//!
//! Each table is written once, as a function that pushes the expected
//! number of occurrences of each hardware [`Operation`] per (non-flush)
//! instruction, term by term in table order, into a sink. The model's
//! entry points hand the table the Eq. 1–2 accumulator of
//! [`crate::demand`], which charges each term its cost from a
//! [`crate::system::CostModel`] as it arrives. [`Scheme::mix`] hands it
//! an [`OperationMix`] instead, which stores the terms for callers that
//! read them one by one.

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

    /// The operation frequencies of this scheme under workload `w`
    /// (Tables 3–6), per non-flush instruction.
    pub fn mix(self, w: &WorkloadParams) -> OperationMix {
        let mut mix = OperationMix::new();
        self.terms(w, &mut mix);
        mix
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

/// Where a table's `(operation, frequency)` terms go: an
/// [`OperationMix`] that stores them, or the Eq. 1–2 accumulator of
/// [`crate::demand`] that charges them.
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

/// Expected occurrences of each hardware operation per instruction,
/// stored.
///
/// Built by [`Scheme::mix`], [`crate::invalidate::invalidate_mix`] and
/// [`crate::directory::directory_mix`] for the callers that read the
/// terms themselves: the printed Tables 3–6, the network simulator's
/// sampling table, the packet-switched model and serde. The model's own
/// entry points never build one; they stream each table into the
/// Eq. 1–2 accumulator, and [`crate::demand::demand`] replays a stored
/// mix through that same accumulator. A mix keeps its terms in push
/// order, the order in which the accumulator adds them.
/// Frequencies are expectations, not probabilities, and may exceed 1 for
/// compound events (they never do for the paper's parameter ranges).
///
/// Entries live inline, in insertion order, one slot per distinct
/// [`Operation`]: building a mix never touches the heap.
#[derive(Debug, Clone)]
pub struct OperationMix {
    entries: [(Operation, f64); Operation::ALL.len()],
    len: usize,
}

impl Default for OperationMix {
    fn default() -> Self {
        OperationMix {
            entries: [(Operation::Instruction, 0.0); Operation::ALL.len()],
            len: 0,
        }
    }
}

impl PartialEq for OperationMix {
    /// Two mixes are equal when their live entries are, in order.
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl OperationMix {
    /// Creates an empty mix.
    pub fn new() -> Self {
        OperationMix::default()
    }

    /// The live entries, in insertion order.
    fn entries(&self) -> &[(Operation, f64)] {
        &self.entries[..self.len]
    }

    /// Adds `freq` occurrences of `op` per instruction.
    ///
    /// Zero-frequency entries are dropped; repeated pushes of the same
    /// operation accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is negative or non-finite (frequencies are
    /// expectations and must be well-formed).
    pub fn push(&mut self, op: Operation, freq: f64) {
        TermSink::push(self, op, freq);
    }

    /// The frequency of one operation (0 if absent).
    pub fn freq(&self, op: Operation) -> f64 {
        self.entries()
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0.0, |&(_, f)| f)
    }

    /// Iterates over `(operation, frequency)` pairs with nonzero
    /// frequency, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Operation, f64)> + '_ {
        self.entries().iter().copied()
    }

    /// Number of distinct operations in the mix.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mix is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl TermSink for OperationMix {
    fn take(&mut self, op: Operation, freq: f64) {
        let len = self.len;
        if let Some(entry) = self.entries[..len].iter_mut().find(|(o, _)| *o == op) {
            entry.1 += freq;
        } else {
            // At most one slot per distinct operation, so a new
            // operation always finds a free slot.
            self.entries[len] = (op, freq);
            self.len += 1;
        }
    }
}

/// Serialized as `{"entries": [[operation, frequency], ...]}`, the live
/// entries in insertion order.
impl Serialize for OperationMix {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("entries".to_string(), self.entries().to_value())])
    }
}

impl Deserialize for OperationMix {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let entries = value
            .get_field("entries")
            .ok_or_else(|| serde::DeError::custom("missing field entries"))?;
        let mut mix = OperationMix::new();
        for (op, freq) in Vec::<(Operation, f64)>::from_value(entries)? {
            if !(freq.is_finite() && freq >= 0.0) || mix.iter().any(|(o, _)| o == op) {
                return Err(serde::DeError::custom(
                    "operation mix entries must be distinct, finite and non-negative",
                ));
            }
            mix.push(op, freq);
        }
        Ok(mix)
    }
}

impl FromIterator<(Operation, f64)> for OperationMix {
    fn from_iter<I: IntoIterator<Item = (Operation, f64)>>(iter: I) -> Self {
        let mut mix = OperationMix::new();
        for (op, f) in iter {
            mix.push(op, f);
        }
        mix
    }
}

impl Extend<(Operation, f64)> for OperationMix {
    fn extend<I: IntoIterator<Item = (Operation, f64)>>(&mut self, iter: I) {
        for (op, f) in iter {
            self.push(op, f);
        }
    }
}

impl fmt::Display for OperationMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (op, freq) in self.iter() {
            writeln!(f, "{:<22} {freq:.6}", op.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MissSource;

    #[test]
    fn mix_accumulates_repeated_pushes() {
        let mut m = OperationMix::new();
        m.push(Operation::ReadThrough, 0.1);
        m.push(Operation::ReadThrough, 0.2);
        assert!((m.freq(Operation::ReadThrough) - 0.3).abs() < 1e-15);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn mix_drops_zero_frequency() {
        let mut m = OperationMix::new();
        m.push(Operation::WriteThrough, 0.0);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mix_rejects_negative_frequency() {
        let mut m = OperationMix::new();
        m.push(Operation::WriteThrough, -0.1);
    }

    #[test]
    fn mix_from_iterator() {
        let m: OperationMix = [
            (Operation::Instruction, 1.0),
            (Operation::CleanMiss(MissSource::Memory), 0.01),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.freq(Operation::Instruction), 1.0);
    }

    #[test]
    fn mix_keeps_insertion_order_and_compares_live_entries() {
        let mut a = OperationMix::new();
        a.push(Operation::WriteThrough, 0.2);
        a.push(Operation::Instruction, 1.0);
        a.push(Operation::WriteThrough, 0.1);
        let order: Vec<Operation> = a.iter().map(|(op, _)| op).collect();
        assert_eq!(order, [Operation::WriteThrough, Operation::Instruction]);
        let mut b = OperationMix::new();
        b.push(Operation::WriteThrough, 0.2 + 0.1);
        b.push(Operation::Instruction, 1.0);
        assert_eq!(a, b);
        b.push(Operation::ReadThrough, 0.5);
        assert_ne!(a, b);
        assert_eq!(OperationMix::new(), OperationMix::default());
    }

    #[test]
    fn mix_holds_every_operation_at_once() {
        let mut m = OperationMix::new();
        for round in 0..3 {
            for (i, op) in Operation::ALL.into_iter().enumerate() {
                m.push(op, (i + round + 1) as f64);
            }
        }
        assert_eq!(m.len(), Operation::ALL.len());
        for (i, op) in Operation::ALL.into_iter().enumerate() {
            assert_eq!(m.freq(op), (3 * i + 6) as f64, "{op}");
        }
    }

    #[test]
    fn mix_serializes_its_live_entries() {
        let w = WorkloadParams::default();
        for s in Scheme::ALL {
            let mix = s.mix(&w);
            let value = mix.to_value();
            let entries = value.get_field("entries").and_then(|e| e.as_array());
            assert_eq!(entries.map(Vec::len), Some(mix.len()), "{s}");
            assert_eq!(OperationMix::from_value(&value).unwrap(), mix, "{s}");
        }
        let one = (Operation::Instruction, 1.0).to_value();
        let duplicate = serde::Value::Object(vec![(
            "entries".to_string(),
            serde::Value::Array(vec![one.clone(), one]),
        )]);
        assert!(OperationMix::from_value(&duplicate).is_err());
    }

    #[test]
    fn every_scheme_mix_includes_instruction_execution() {
        let w = WorkloadParams::default();
        for s in Scheme::ALL {
            assert_eq!(s.mix(&w).freq(Operation::Instruction), 1.0, "{s}");
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
