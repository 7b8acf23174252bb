//! One-call simulation of (workload × architecture × machine size).
//!
//! [`RunSpec::run_probed`] is the function every figure reduces to: build
//! the machine, install the scheduling policy, create "as many threads as
//! are required by the processor" (§4) — or one sequential job per
//! context, for a multiprogrammed batch — run to completion, return the
//! statistics. [`simulate`] and [`simulate_probed`] are its positional
//! shorthands for the paper's static placement.

use crate::apps::{build_streams, AppParams, AppSpec};
use crate::multiprogram::job_streams;
use csmt_core::{ArchKind, ChipConfig, Machine, Policy, RunResult};
use csmt_mem::MemConfig;

/// Ceiling on simulated cycles; hitting it means a deadlock (a bug).
const MAX_CYCLES: u64 = 2_000_000_000;

/// What one machine runs.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a> {
    /// One parallel application, forked into one thread per hardware
    /// context (Table 2 × chips): SMT2 × 4 chips = 32 threads, FA1 × 4
    /// chips = 4 threads.
    App(&'a AppSpec),
    /// One capacity-sized batch of independent sequential jobs
    /// ([`multiprogram`](crate::multiprogram)): with `contexts` hardware
    /// contexts, jobs `batch × contexts ..` of a job set that cycles `mix`,
    /// one per context. The size of the whole set is not part of the run
    /// (see [`RunSpec::job_batches`]).
    Jobs {
        /// The programs the job set cycles through.
        mix: &'a [AppSpec],
        /// Which capacity-sized batch of the job set this run is.
        batch: usize,
        /// Jobs in it (at most one per hardware context).
        count: usize,
    },
}

impl std::fmt::Display for Workload<'_> {
    /// The application's name; for a job set, its mix joined by `+`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::App(app) => f.write_str(app.name),
            Workload::Jobs { mix, .. } => {
                let names: Vec<&str> = mix.iter().map(|a| a.name).collect();
                f.write_str(&names.join("+"))
            }
        }
    }
}

/// Everything that determines one run — the simulator is a pure function
/// of these seven fields, never of the environment, and the sweep cache
/// keys a run by exactly them. Start from [`RunSpec::new`] and override
/// what the experiment varies:
/// `RunSpec { mem, ..RunSpec::new(&app, arch, 1, scale, seed) }.run()`.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// What to run.
    pub workload: Workload<'a>,
    /// Chip configuration: a Table 2 row ([`ArchKind::chip`]), possibly
    /// with an ablated fetch policy, predictor or store buffer.
    pub chip: ChipConfig,
    /// Machine size in chips.
    pub n_chips: usize,
    /// Work scale (1.0 = full figure quality).
    pub scale: f64,
    /// Seed of all stochastic state.
    pub seed: u64,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Thread-to-cluster scheduling policy, resolved for `chip` by
    /// [`Policy::for_chip`].
    pub sched: Policy,
}

impl<'a> RunSpec<'a> {
    /// The paper's configuration of `app` on `arch`: the Table-2 chip,
    /// the Table-3 memory hierarchy and the static thread placement.
    pub fn new(app: &'a AppSpec, arch: ArchKind, n_chips: usize, scale: f64, seed: u64) -> Self {
        RunSpec {
            workload: Workload::App(app),
            chip: arch.chip(),
            n_chips,
            scale,
            seed,
            mem: MemConfig::table3(),
            sched: Policy::Static,
        }
    }

    /// The capacity-sized batches that run `n_jobs` sequential jobs of
    /// `mix` on `n_chips` × `chip`, in order, under Table 3 and `sched` —
    /// the fair fixed-work comparison across architectures with different
    /// context counts (an FA2 chip runs 8 jobs as 4 batches of 2, SMT2 as
    /// one batch of 8).
    pub fn job_batches(
        mix: &'a [AppSpec],
        n_jobs: usize,
        chip: ChipConfig,
        n_chips: usize,
        scale: f64,
        seed: u64,
        sched: Policy,
    ) -> impl Iterator<Item = RunSpec<'a>> {
        assert!(n_jobs >= 1 && !mix.is_empty());
        let contexts = n_chips * chip.threads_per_chip();
        (0..n_jobs.div_ceil(contexts)).map(move |batch| RunSpec {
            workload: Workload::Jobs {
                mix,
                batch,
                count: contexts.min(n_jobs - batch * contexts),
            },
            chip,
            n_chips,
            scale,
            seed,
            mem: MemConfig::table3(),
            sched,
        })
    }

    /// Simulate to completion with no observer attached.
    pub fn run(&self) -> RunResult {
        self.run_probed(&mut csmt_trace::NullProbe)
    }

    /// Simulate to completion with an observability probe attached to
    /// every cycle (heartbeat samplers, pipeline trace writers — see
    /// `csmt-trace`); with [`csmt_trace::NullProbe`] this is exactly
    /// [`run`](RunSpec::run). Probes with buffered output should have
    /// their `finish()` called after this returns.
    pub fn run_probed<P: csmt_trace::Probe>(&self, probe: &mut P) -> RunResult {
        // Batches of one job set must not share machine-level randomness.
        let machine_seed = match self.workload {
            Workload::App(_) => self.seed,
            Workload::Jobs { batch, .. } => self.seed ^ batch as u64,
        };
        let mut machine = Machine::new(self.chip, self.n_chips, self.mem.clone(), machine_seed);
        machine
            .set_scheduler(self.sched.for_chip(&self.chip))
            .expect("for_chip resolves to a policy the chip accepts");
        let contexts = machine.hw_thread_capacity();
        match self.workload {
            Workload::App(app) => {
                let params = AppParams::new(contexts, self.n_chips, self.scale, self.seed);
                machine.attach_threads(build_streams(app, &params));
            }
            Workload::Jobs { mix, batch, count } => {
                let first = batch * contexts;
                let jobs = first..first + count;
                machine.attach_threads_grouped(job_streams(mix, jobs, self.scale, self.seed));
            }
        }
        machine.run_probed(MAX_CYCLES, probe)
    }
}

/// Simulate `app` on `arch` with `n_chips` chips at work scale `scale` in
/// the paper's configuration ([`RunSpec::new`]).
pub fn simulate(app: &AppSpec, arch: ArchKind, n_chips: usize, scale: f64, seed: u64) -> RunResult {
    RunSpec::new(app, arch, n_chips, scale, seed).run()
}

/// Positional form of [`RunSpec::run_probed`] under the static policy: any
/// chip and memory configuration, with `probe` attached.
pub fn simulate_probed<P: csmt_trace::Probe>(
    app: &AppSpec,
    chip: ChipConfig,
    n_chips: usize,
    scale: f64,
    seed: u64,
    mem: MemConfig,
    probe: &mut P,
) -> RunResult {
    RunSpec {
        chip,
        mem,
        ..RunSpec::new(app, chip.kind(), n_chips, scale, seed)
    }
    .run_probed(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    const SCALE: f64 = 0.03;

    #[test]
    fn every_app_completes_on_every_arch_low_end() {
        for app in apps::all_apps() {
            for arch in ArchKind::ALL {
                let r = simulate(&app, arch, 1, SCALE, 42);
                assert!(r.cycles > 0, "{} on {}", app.name, arch.name());
                assert!(r.slots.committed > 0);
            }
        }
    }

    #[test]
    fn high_end_runs_with_four_chips() {
        let app = apps::ocean();
        let r = simulate(&app, ArchKind::Smt2, 4, SCALE, 42);
        assert_eq!(r.chips, 4);
        assert_eq!(r.threads, 32);
        assert!(
            r.mem.remote_mem + r.mem.remote_l2 > 0,
            "NUMA traffic expected"
        );
    }

    #[test]
    fn thread_counts_match_table2_times_chips() {
        let app = apps::swim();
        for (arch, chips, expect) in [
            (ArchKind::Fa8, 1, 8),
            (ArchKind::Fa1, 1, 1),
            (ArchKind::Smt2, 1, 8),
            (ArchKind::Fa8, 4, 32),
            (ArchKind::Fa4, 4, 16),
            (ArchKind::Fa2, 4, 8),
            (ArchKind::Fa1, 4, 4),
            (ArchKind::Smt2, 4, 32),
        ] {
            let r = simulate(&app, arch, chips, 0.01, 1);
            assert_eq!(r.threads, expect, "{} × {chips}", arch.name());
        }
    }

    #[test]
    fn fa1_commits_all_the_work_single_threaded() {
        let app = apps::vpenta();
        let r1 = simulate(&app, ArchKind::Fa1, 1, SCALE, 42);
        let r8 = simulate(&app, ArchKind::Fa8, 1, SCALE, 42);
        // Same total work modulo per-thread iteration truncation (each of
        // the 8 threads loses up to one iteration per loop — visible at the
        // tiny test scale, ~1% at figure scale).
        let ratio = r1.slots.committed as f64 / r8.slots.committed as f64;
        assert!((0.85..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic_end_to_end() {
        let app = apps::fmm();
        let a = simulate(&app, ArchKind::Smt4, 1, SCALE, 9);
        let b = simulate(&app, ArchKind::Smt4, 1, SCALE, 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn dynamic_policy_conserves_committed_work() {
        let app = apps::mgrid();
        let stat = simulate(&app, ArchKind::Smt2, 1, SCALE, 42);
        let dynamic = RunSpec {
            sched: Policy::Barrier,
            ..RunSpec::new(&app, ArchKind::Smt2, 1, SCALE, 42)
        }
        .run();
        assert_eq!(stat.slots.committed, dynamic.slots.committed);
        assert_eq!(stat.migrations, 0);
    }

    #[test]
    fn locks_are_exercised_by_fmm() {
        let r = simulate(&apps::fmm(), ArchKind::Smt2, 1, SCALE, 42);
        assert!(r.lock_acquisitions > 0);
    }

    #[test]
    fn barriers_are_exercised_by_every_app() {
        for app in apps::all_apps() {
            let r = simulate(&app, ArchKind::Fa4, 1, SCALE, 42);
            assert!(r.barrier_episodes > 0, "{}", app.name);
        }
    }
}
