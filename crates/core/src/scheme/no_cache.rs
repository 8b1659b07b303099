//! The No-Cache scheme (paper Table 4): shared data is uncacheable.
//!
//! Shared variables are identified by the programmer or compiler and
//! stored in memory regions marked non-cacheable (a page-table bit, as in
//! C.mmp or the Elxsi 6400). Loads and stores to those regions bypass the
//! cache: every shared load becomes a [`Operation::ReadThrough`] and every
//! shared store a [`Operation::WriteThrough`]. Only unshared data is
//! cached, so the data miss rate is scaled by `1 − shd`.

use crate::scheme::TermSink;
use crate::system::{MissSource, Operation};
use crate::workload::WorkloadParams;

/// Table 4, the No-Cache scheme's operation frequencies: its terms,
/// pushed into `sink` in table order.
#[inline]
pub(crate) fn terms<S: TermSink>(w: &WorkloadParams, sink: &mut S) {
    let miss = w.ls() * w.msdat() * (1.0 - w.shd()) + w.mains();
    sink.push(Operation::Instruction, 1.0);
    sink.push(
        Operation::CleanMiss(MissSource::Memory),
        miss * (1.0 - w.md()),
    );
    sink.push(Operation::DirtyMiss(MissSource::Memory), miss * w.md());
    sink.push(Operation::ReadThrough, w.ls() * w.shd() * (1.0 - w.wr()));
    sink.push(Operation::WriteThrough, w.ls() * w.shd() * w.wr());
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
        // ls=0.3, msdat=0.014, mains=0.0022, md=0.2, shd=0.25, wr=0.25
        // miss = 0.3*0.014*0.75 + 0.0022 = 0.00535
        // read-through = 0.3*0.25*0.75 = 0.05625
        // write-through = 0.3*0.25*0.25 = 0.01875
        let w = WorkloadParams::at_level(Level::Middle);
        let m = table(&w);
        assert!((m.freq(Operation::CleanMiss(MissSource::Memory)) - 0.00535 * 0.8).abs() < 1e-12);
        assert!((m.freq(Operation::DirtyMiss(MissSource::Memory)) - 0.00535 * 0.2).abs() < 1e-12);
        assert!((m.freq(Operation::ReadThrough) - 0.05625).abs() < 1e-12);
        assert!((m.freq(Operation::WriteThrough) - 0.01875).abs() < 1e-12);
    }

    #[test]
    fn throughs_sum_to_shared_reference_rate() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let m = table(&w);
            let throughs = m.freq(Operation::ReadThrough) + m.freq(Operation::WriteThrough);
            assert!((throughs - w.ls() * w.shd()).abs() < 1e-12);
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
    fn full_sharing_eliminates_data_misses() {
        let w = WorkloadParams::default()
            .with_param(ParamId::Shd, 1.0)
            .unwrap();
        let m = table(&w);
        // Only instruction misses remain.
        let total_miss = m.freq(Operation::CleanMiss(MissSource::Memory))
            + m.freq(Operation::DirtyMiss(MissSource::Memory));
        assert!((total_miss - w.mains()).abs() < 1e-12);
    }

    #[test]
    fn apl_is_irrelevant_to_no_cache() {
        let w = WorkloadParams::default();
        let w2 = w.with_param(ParamId::Apl, 1.0).unwrap();
        assert_eq!(table(&w), table(&w2));
    }

    #[test]
    fn no_cache_emits_no_flushes_or_broadcasts() {
        let m = table(&WorkloadParams::default());
        assert_eq!(m.freq(Operation::CleanFlush), 0.0);
        assert_eq!(m.freq(Operation::DirtyFlush), 0.0);
        assert_eq!(m.freq(Operation::WriteBroadcast), 0.0);
    }
}
