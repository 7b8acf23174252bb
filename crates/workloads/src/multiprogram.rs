//! Multiprogrammed workloads.
//!
//! The SMT papers the paper builds on (Tullsen et al. [16], Lo et al. [9])
//! evaluate *multiprogrammed* mixes — several independent programs sharing
//! the chip — alongside parallel ones. This module provides that mode as an
//! extension: each application of a mix runs **sequentially** (its
//! single-thread version, exactly what FA1 executes in Figure 4) in its own
//! runtime group, so programs never synchronize with each other.
//!
//! This is the workload class where SMT shines brightest: with no barriers
//! coupling the contexts, any spare issue slot of one program is
//! immediately usable by another — while an FA chip strands the slots of
//! whichever narrow cluster its program happens to stall on.

use crate::apps::{build_streams, AppParams, AppSpec};
use csmt_core::{ArchKind, ChipConfig, Machine, RunResult};
use csmt_isa::InstStream;
use csmt_mem::MemConfig;

/// Ceiling on simulated cycles; hitting it means a deadlock (a bug).
const MAX_CYCLES: u64 = 2_000_000_000;

/// Build the grouped streams of a multiprogrammed mix: program `k` of
/// `apps` becomes one sequential thread in group `k`. Programs are cloned
/// round-robin until `n_contexts` hardware contexts are filled (the usual
/// "one job per context" loading of the SMT literature).
pub fn multiprogram_streams(
    apps: &[AppSpec],
    n_contexts: usize,
    scale: f64,
    seed: u64,
) -> Vec<(Box<dyn InstStream + Send>, usize)> {
    assert!(!apps.is_empty());
    assert!(n_contexts >= 1);
    (0..n_contexts)
        .map(|k| {
            let app = &apps[k % apps.len()];
            // Each job is the app's sequential version with its own seed so
            // two copies of the same program are not in lockstep.
            let params = AppParams::new(1, 1, scale, seed ^ ((k as u64) << 24));
            let mut streams = build_streams(app, &params);
            debug_assert_eq!(streams.len(), 1);
            (streams.pop().expect("one sequential stream"), k)
        })
        .collect()
}

/// Simulate a multiprogrammed mix of `apps` on `arch`: every hardware
/// context runs one sequential job (mixes shorter than the context count
/// are repeated round-robin) under the scheduling policy named `sched`
/// (resolved by [`csmt_core::sched::for_chip`]). Multiprogrammed mixes
/// never hit a barrier, so quantum-driven policies (hazard pairing) are the
/// interesting dynamic ones here.
///
/// # Panics
/// On a `sched` name outside `csmt_core::sched::POLICY_NAMES`.
pub fn simulate_multiprogram(
    apps: &[AppSpec],
    arch: ArchKind,
    n_chips: usize,
    scale: f64,
    seed: u64,
    sched: &str,
) -> RunResult {
    let mut machine =
        crate::runner::machine_with_policy(arch.chip(), n_chips, MemConfig::table3(), seed, sched);
    let n = machine.hw_thread_capacity();
    machine.attach_threads_grouped(multiprogram_streams(apps, n, scale, seed));
    machine.run(MAX_CYCLES)
}

/// Outcome of running a fixed job set through capacity-sized batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Run exactly `n_jobs` sequential jobs (apps cycled round-robin) on the
/// chip, batching when the job count exceeds the hardware contexts — the
/// fair fixed-work comparison across architectures with different context
/// counts (an FA2 chip runs 8 jobs as 4 batches of 2).
pub fn simulate_job_batches(
    apps: &[AppSpec],
    n_jobs: usize,
    chip: ChipConfig,
    n_chips: usize,
    scale: f64,
    seed: u64,
) -> BatchResult {
    assert!(n_jobs >= 1);
    let mut total_cycles = 0u64;
    let mut committed = 0u64;
    let mut batches = 0usize;
    let mut job = 0usize;
    while job < n_jobs {
        let mut machine = Machine::new(chip, n_chips, MemConfig::table3(), seed ^ (batches as u64));
        let cap = machine.hw_thread_capacity();
        let batch_jobs = cap.min(n_jobs - job);
        let streams: Vec<(Box<dyn InstStream + Send>, usize)> = (0..batch_jobs)
            .map(|k| {
                let idx = job + k;
                let app = &apps[idx % apps.len()];
                let params = AppParams::new(1, 1, scale, seed ^ ((idx as u64) << 24));
                let mut s = build_streams(app, &params);
                (s.pop().expect("one stream"), k)
            })
            .collect();
        machine.attach_threads_grouped(streams);
        let r = machine.run(MAX_CYCLES);
        total_cycles += r.cycles;
        committed += r.slots.committed;
        batches += 1;
        job += batch_jobs;
    }
    BatchResult {
        total_cycles,
        committed,
        jobs: n_jobs,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn streams_fill_all_contexts_round_robin() {
        let mix = [apps::swim(), apps::vpenta()];
        let streams = multiprogram_streams(&mix, 8, 0.02, 7);
        assert_eq!(streams.len(), 8);
        let groups: Vec<usize> = streams.iter().map(|(_, g)| *g).collect();
        assert_eq!(groups, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn mix_completes_on_smt_and_fa() {
        let mix = [apps::swim(), apps::vpenta(), apps::mgrid(), apps::ocean()];
        for arch in [ArchKind::Smt2, ArchKind::Fa8, ArchKind::Fa2] {
            let r = simulate_multiprogram(&mix, arch, 1, 0.02, 7, "static");
            assert!(r.cycles > 0, "{}", arch.name());
            assert!(r.slots.committed > 0);
        }
    }

    #[test]
    fn copies_of_the_same_program_are_not_in_lockstep() {
        // Two copies of swim must have different dynamic behaviour (seeds
        // differ), otherwise they would thrash the same cache sets in sync.
        let streams = multiprogram_streams(&[apps::fmm()], 2, 0.02, 7);
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
        let r = simulate_job_batches(&mix, 8, ArchKind::Fa2.chip(), 1, 0.02, 7);
        assert_eq!(r.batches, 4);
        assert_eq!(r.jobs, 8);
        // SMT2 has 8 contexts: one batch, same committed work (same seeds).
        let r2 = simulate_job_batches(&mix, 8, ArchKind::Smt2.chip(), 1, 0.02, 7);
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
        let stat = simulate_multiprogram(&mix, ArchKind::Smt2, 1, 0.02, 7, "static");
        let paired = simulate_multiprogram(&mix, ArchKind::Smt2, 1, 0.02, 7, "hazard_pairing");
        assert_eq!(stat.slots.committed, paired.slots.committed);
    }

    #[test]
    fn smt_beats_fa_on_multiprogrammed_mixes() {
        // The classic SMT result: on a mix of independent sequential jobs,
        // the SMT chips outperform the same-width FA chips because idle
        // slots flow between programs.
        let mix = [apps::swim(), apps::vpenta(), apps::tomcatv(), apps::ocean()];
        let smt2 = simulate_multiprogram(&mix, ArchKind::Smt2, 1, 0.05, 7, "static");
        let fa8 = simulate_multiprogram(&mix, ArchKind::Fa8, 1, 0.05, 7, "static");
        assert!(
            smt2.cycles < fa8.cycles,
            "SMT2 {} vs FA8 {}",
            smt2.cycles,
            fa8.cycles
        );
    }
}
