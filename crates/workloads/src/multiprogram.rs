//! Multiprogrammed workloads.
//!
//! The SMT papers the paper builds on (Tullsen et al. \[16\], Lo et al. \[9\])
//! evaluate *multiprogrammed* mixes — several independent programs sharing
//! the chip — alongside parallel ones. This module provides that mode as an
//! extension: each application of a mix runs **sequentially** (its
//! single-thread version, exactly what FA1 executes in Figure 4) in its own
//! runtime group, so programs never synchronize with each other. A job
//! set is a workload of [`RunSpec`](crate::runner::RunSpec) like any other
//! ([`Workload::Jobs`](crate::runner::Workload)): one run is one
//! capacity-sized batch of it.
//!
//! This is the workload class where SMT shines brightest: with no barriers
//! coupling the contexts, any spare issue slot of one program is
//! immediately usable by another — while an FA chip strands the slots of
//! whichever narrow cluster its program happens to stall on.

use crate::apps::{build_streams, AppParams, AppSpec};
use csmt_core::RunResult;
use csmt_isa::InstStream;

/// The grouped streams of jobs `jobs` of a multiprogrammed job set: job
/// `j` is the sequential version of `mix[j % mix.len()]` (the usual "one
/// job per context" loading of the SMT literature cycles the mix
/// round-robin), in the runtime group of its position within `jobs`.
pub(crate) fn job_streams(
    mix: &[AppSpec],
    jobs: std::ops::Range<usize>,
    scale: f64,
    seed: u64,
) -> Vec<(Box<dyn InstStream + Send>, usize)> {
    jobs.enumerate()
        .map(|(group, job)| {
            // Each job has its own seed so two copies of the same program
            // are not in lockstep.
            let params = AppParams::new(1, 1, scale, seed ^ ((job as u64) << 24));
            let mut streams = build_streams(&mix[job % mix.len()], &params);
            debug_assert_eq!(streams.len(), 1);
            (streams.pop().expect("one sequential stream"), group)
        })
        .collect()
}

/// Outcome of running a fixed job set through capacity-sized batches:
/// collect it from the batches' [`RunResult`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Total cycles summed over the sequential batches.
    pub total_cycles: u64,
    /// Useful instructions committed across all batches.
    pub committed: u64,
    /// Jobs executed.
    pub jobs: usize,
    /// Batches needed (= ceil(jobs / contexts)).
    pub batches: usize,
}

impl BatchResult {
    /// Throughput in committed instructions per cycle over the whole job set.
    pub fn throughput(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.total_cycles as f64
        }
    }
}

impl<R: std::borrow::Borrow<RunResult>> FromIterator<R> for BatchResult {
    fn from_iter<I: IntoIterator<Item = R>>(batches: I) -> Self {
        let mut total = BatchResult::default();
        for r in batches {
            let r = r.borrow();
            total.total_cycles += r.cycles;
            total.committed += r.slots.committed;
            total.jobs += r.threads;
            total.batches += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::runner::RunSpec;
    use csmt_core::{ArchKind, ChipConfig, Policy};

    /// 8 sequential jobs of `mix` on one `chip` under `sched`, batch
    /// after batch, summed.
    fn eight_jobs(
        mix: &[AppSpec],
        chip: ChipConfig,
        scale: f64,
        seed: u64,
        sched: Policy,
    ) -> BatchResult {
        RunSpec::job_batches(mix, 8, chip, 1, scale, seed, sched)
            .map(|batch| batch.run())
            .collect()
    }

    #[test]
    fn streams_fill_all_contexts_round_robin() {
        let mix = [apps::swim(), apps::vpenta()];
        let groups = |jobs| -> Vec<usize> {
            job_streams(&mix, jobs, 0.02, 7)
                .iter()
                .map(|(_, g)| *g)
                .collect()
        };
        assert_eq!(groups(0..8), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(groups(8..11), vec![0, 1, 2]);
    }

    #[test]
    fn mix_completes_on_smt_and_fa() {
        let mix = [apps::swim(), apps::vpenta(), apps::mgrid(), apps::ocean()];
        for arch in [ArchKind::Smt2, ArchKind::Fa8, ArchKind::Fa2] {
            let r = eight_jobs(&mix, arch.chip(), 0.02, 7, Policy::Static);
            assert!(r.total_cycles > 0, "{}", arch.name());
            assert!(r.committed > 0);
        }
    }

    #[test]
    fn one_batch_job_set_reproduces_the_pinned_mix_run() {
        // Captured from the stand-alone mix run body (mix4x2 on SMT2, one
        // chip, scale 0.05, seed 0xC5317, "static": Fig 9's mix row at
        // --smoke scale) before it was folded into `RunSpec::run_probed`.
        let mix = [apps::swim(), apps::vpenta(), apps::tomcatv(), apps::ocean()];
        let r = eight_jobs(&mix, ArchKind::Smt2.chip(), 0.05, 0xC5_317, Policy::Static);
        let pinned = BatchResult {
            total_cycles: 11229,
            committed: 75360,
            jobs: 8,
            batches: 1,
        };
        assert_eq!(r, pinned);
    }

    #[test]
    fn copies_of_the_same_program_are_not_in_lockstep() {
        // Two copies of swim must have different dynamic behaviour (seeds
        // differ), otherwise they would thrash the same cache sets in sync.
        let streams = job_streams(&[apps::fmm()], 0..2, 0.02, 7);
        let drain = |mut s: Box<dyn InstStream + Send>| {
            let mut v = Vec::new();
            while let Some(i) = s.next_inst() {
                v.push(i.mem.map(|m| m.addr));
            }
            v
        };
        let mut it = streams.into_iter();
        let a = drain(it.next().unwrap().0);
        let b = drain(it.next().unwrap().0);
        assert_ne!(a, b, "irregular accesses must differ across copies");
    }

    #[test]
    fn batching_runs_every_job_exactly_once() {
        let mix = [apps::vpenta(), apps::tomcatv()];
        // FA2 has 2 contexts: 8 jobs → 4 batches.
        let r = eight_jobs(&mix, ArchKind::Fa2.chip(), 0.02, 7, Policy::Static);
        assert_eq!(r.batches, 4);
        assert_eq!(r.jobs, 8);
        // SMT2 has 8 contexts: one batch, same committed work (same seeds).
        let r2 = eight_jobs(&mix, ArchKind::Smt2.chip(), 0.02, 7, Policy::Static);
        assert_eq!(r2.batches, 1);
        let ratio = r.committed as f64 / r2.committed as f64;
        assert!(
            (0.99..1.01).contains(&ratio),
            "same work: {} vs {}",
            r.committed,
            r2.committed
        );
    }

    #[test]
    fn hazard_pairing_mix_conserves_committed_work() {
        let mix = [apps::swim(), apps::ocean()];
        let [stat, paired] = [Policy::Static, Policy::HazardPairing]
            .map(|sched| eight_jobs(&mix, ArchKind::Smt2.chip(), 0.02, 7, sched));
        assert_eq!(stat.committed, paired.committed);
    }

    #[test]
    fn smt_beats_fa_on_multiprogrammed_mixes() {
        // The classic SMT result: on a mix of independent sequential jobs,
        // the SMT chips outperform the same-width FA chips because idle
        // slots flow between programs.
        let mix = [apps::swim(), apps::vpenta(), apps::tomcatv(), apps::ocean()];
        let smt2 = eight_jobs(&mix, ArchKind::Smt2.chip(), 0.05, 7, Policy::Static);
        let fa8 = eight_jobs(&mix, ArchKind::Fa8.chip(), 0.05, 7, Policy::Static);
        assert_eq!((smt2.batches, fa8.batches), (1, 1));
        assert!(
            smt2.total_cycles < fa8.total_cycles,
            "SMT2 {} vs FA8 {}",
            smt2.total_cycles,
            fa8.total_cycles
        );
    }
}
