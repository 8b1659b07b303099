//! The Software-Flush scheme (paper Table 5): shared data is cached
//! between explicit flush instructions.
//!
//! Flush instructions are inserted by the compiler or programmer — the
//! typical pattern operates on shared variables inside a critical section
//! and flushes them on exit — at an average rate of one per `apl`
//! references to shared data, i.e. `ls·shd/apl` flushes per instruction.
//!
//! Following §2.2.3, the inserted flushes increase the operation
//! frequencies in three ways (frequencies are reported *per non-flush
//! instruction*, so the flush overhead is amortized over useful work):
//!
//! 1. **The flush instruction itself.** With probability `mdshd` the
//!    flushed line is dirty ([`Operation::DirtyFlush`], which writes the
//!    block back), otherwise clean ([`Operation::CleanFlush`], one cycle).
//! 2. **The re-fetch miss.** Each flush implies approximately one later
//!    clean miss — the miss that brings the flushed line back into the
//!    cache. (The model ignores the small probability that the line would
//!    have been replaced before the flush anyway.)
//! 3. **Extra instruction misses.** Flush instructions lengthen the code
//!    stream, so instruction misses occur at rate `mains·(1 + ls·shd/apl)`
//!    per non-flush instruction.

use crate::scheme::TermSink;
use crate::system::{MissSource, Operation};
use crate::workload::WorkloadParams;

/// Table 5, the Software-Flush scheme's operation frequencies per
/// non-flush instruction: its terms, pushed into `sink` in table order.
#[inline]
pub(crate) fn terms<S: TermSink>(w: &WorkloadParams, sink: &mut S) {
    // Flush instructions per non-flush instruction.
    let flush = w.ls() * w.shd() / w.apl();
    // Instruction misses, inflated by the flushes added to the code
    // stream (effect 3).
    let imiss = w.mains() * (1.0 + flush);
    // Unshared data misses plus instruction misses.
    let miss = w.ls() * w.msdat() * (1.0 - w.shd()) + imiss;
    sink.push(Operation::Instruction, 1.0);
    // Effect 2: one clean re-fetch miss per flush. The re-fetched line
    // fills the slot invalidated by the flush, so no victim write-back.
    sink.push(
        Operation::CleanMiss(MissSource::Memory),
        miss * (1.0 - w.md()) + flush,
    );
    sink.push(Operation::DirtyMiss(MissSource::Memory), miss * w.md());
    // Effect 1: the flush instruction, dirty with probability mdshd.
    sink.push(Operation::CleanFlush, flush * (1.0 - w.mdshd()));
    sink.push(Operation::DirtyFlush, flush * w.mdshd());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::collect::Collected;
    use crate::scheme::Scheme;
    use crate::workload::{Level, ParamId};

    fn table(w: &WorkloadParams) -> Collected {
        Collected::from(|sink| terms(w, sink))
    }

    #[test]
    fn middle_values_match_hand_computation() {
        // ls=0.3, shd=0.25, apl=1/0.13, mdshd=0.25,
        // msdat=0.014, mains=0.0022, md=0.2.
        let w = WorkloadParams::at_level(Level::Middle);
        let m = table(&w);
        let flush = 0.3 * 0.25 * 0.13;
        let imiss = 0.0022 * (1.0 + flush);
        let miss = 0.3 * 0.014 * 0.75 + imiss;
        assert!(
            (m.freq(Operation::CleanMiss(MissSource::Memory)) - (miss * 0.8 + flush)).abs() < 1e-12
        );
        assert!((m.freq(Operation::DirtyMiss(MissSource::Memory)) - miss * 0.2).abs() < 1e-12);
        assert!((m.freq(Operation::CleanFlush) - flush * 0.75).abs() < 1e-12);
        assert!((m.freq(Operation::DirtyFlush) - flush * 0.25).abs() < 1e-12);
    }

    #[test]
    fn flush_rate_splits_by_mdshd() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let m = table(&w);
            let total = m.freq(Operation::CleanFlush) + m.freq(Operation::DirtyFlush);
            assert!((total - w.ls() * w.shd() / w.apl()).abs() < 1e-12);
        }
    }

    #[test]
    fn no_sharing_reduces_to_base() {
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 0.0)
            .unwrap();
        assert_eq!(table(&w), Collected::scheme(Scheme::Base, &w));
    }

    #[test]
    fn infinite_apl_limit_removes_flush_overhead() {
        // As apl grows the flush terms vanish and only the loss of
        // shared-data caching... no — unlike No-Cache, Software-Flush
        // still caches shared data, so apl→∞ approaches Base *minus*
        // shared-data misses (the model books shared-data misses only via
        // the per-flush re-fetch term).
        let w = WorkloadParams::default()
            .with_param(ParamId::Apl, 1e9)
            .unwrap();
        let m = table(&w);
        assert!(m.freq(Operation::CleanFlush) < 1e-9);
        assert!(m.freq(Operation::DirtyFlush) < 1e-9);
    }

    #[test]
    fn apl_one_is_heavier_than_no_cache_per_shared_reference() {
        // §5.3: at apl = 1 every shared reference costs a flush plus a
        // miss, heavier in both CPU and bus than No-Cache's throughs.
        use crate::demand::scheme_demand;
        use crate::system::BusSystemModel;
        let w = WorkloadParams::default()
            .with_param(ParamId::Apl, 1.0)
            .unwrap();
        let sys = BusSystemModel::new();
        let sf = scheme_demand(Scheme::SoftwareFlush, &w, &sys).unwrap();
        let nc = scheme_demand(Scheme::NoCache, &w, &sys).unwrap();
        assert!(sf.cpu() > nc.cpu());
        assert!(sf.interconnect() > nc.interconnect());
    }

    #[test]
    fn refetch_misses_scale_with_flush_rate() {
        let base = WorkloadParams::default();
        let frequent = base.with_param(ParamId::Apl, 2.0).unwrap();
        let rare = base.with_param(ParamId::Apl, 20.0).unwrap();
        let cm = |w: &WorkloadParams| table(w).freq(Operation::CleanMiss(MissSource::Memory));
        assert!(cm(&frequent) > cm(&rare));
    }
}
