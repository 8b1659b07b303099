//! The Base scheme (paper Table 3): caches everything, no coherence.
//!
//! Base is an upper bound on performance: it pays only for cache misses.
//! A data miss occurs when a load/store (probability `ls`) misses
//! (probability `msdat`); an instruction miss occurs with probability
//! `mains`. A miss is dirty (requires a victim write-back) with
//! probability `md`.

use crate::scheme::TermSink;
use crate::system::{MissSource, Operation};
use crate::workload::WorkloadParams;

/// Table 3, the Base scheme's operation frequencies: its terms, pushed
/// into `sink` in table order.
#[inline]
pub(crate) fn terms<S: TermSink>(w: &WorkloadParams, sink: &mut S) {
    let miss = w.ls() * w.msdat() + w.mains();
    sink.push(Operation::Instruction, 1.0);
    sink.push(
        Operation::CleanMiss(MissSource::Memory),
        miss * (1.0 - w.md()),
    );
    sink.push(Operation::DirtyMiss(MissSource::Memory), miss * w.md());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::collect::Collected;
    use crate::workload::Level;

    fn table(w: &WorkloadParams) -> Collected {
        Collected::from(|sink| terms(w, sink))
    }

    #[test]
    fn middle_values_match_hand_computation() {
        // ls=0.3, msdat=0.014, mains=0.0022, md=0.2
        // miss = 0.3*0.014 + 0.0022 = 0.0064
        let w = WorkloadParams::at_level(Level::Middle);
        let m = table(&w);
        let clean = m.freq(Operation::CleanMiss(MissSource::Memory));
        let dirty = m.freq(Operation::DirtyMiss(MissSource::Memory));
        assert!((clean - 0.0064 * 0.8).abs() < 1e-12);
        assert!((dirty - 0.0064 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn clean_plus_dirty_equals_total_miss_rate() {
        for level in Level::ALL {
            let w = WorkloadParams::at_level(level);
            let m = table(&w);
            let total = m.freq(Operation::CleanMiss(MissSource::Memory))
                + m.freq(Operation::DirtyMiss(MissSource::Memory));
            assert!((total - (w.ls() * w.msdat() + w.mains())).abs() < 1e-12);
        }
    }

    #[test]
    fn base_ignores_sharing_parameters() {
        let w = WorkloadParams::default();
        let hi = w.with_param(crate::workload::ParamId::Shd, 0.9).unwrap();
        assert_eq!(table(&w), table(&hi));
    }

    #[test]
    fn base_emits_no_coherence_operations() {
        let m = table(&WorkloadParams::default());
        assert_eq!(m.freq(Operation::ReadThrough), 0.0);
        assert_eq!(m.freq(Operation::WriteThrough), 0.0);
        assert_eq!(m.freq(Operation::CleanFlush), 0.0);
        assert_eq!(m.freq(Operation::WriteBroadcast), 0.0);
        assert_eq!(m.freq(Operation::CleanMiss(MissSource::Cache)), 0.0);
    }

    #[test]
    fn zero_miss_rates_leave_only_instruction_execution() {
        let mut b = WorkloadParams::builder();
        b.msdat(0.0).mains(0.0);
        let m = table(&b.build().unwrap());
        assert_eq!(m.0.len(), 1);
        assert_eq!(m.freq(Operation::Instruction), 1.0);
    }
}
