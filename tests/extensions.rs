//! Integration tests for the features built beyond the paper's nine
//! systems. DESIGN.md §7 keeps an extension only while a test here pins
//! the sentence EXPERIMENTS.md writes with it:
//!
//! * fetch policies — ICOUNT costs nothing where it cannot help, and the
//!   §5.2 susceptibility ordering (partitioned fetch helps SMT1, hurts
//!   SMT4; ICOUNT lowers the fetch hazard on both);
//! * `StaticTaken` — wide speculative machines lose without prediction;
//! * gshare — cross-thread pollution of the shared history on SMT;
//! * multiprogrammed mixes — same work, SMT2 at least ties the best FA;
//! * the memory ablations — SMT2's margin over FA2 is memory-level
//!   parallelism (banks, MSHRs);
//! * the store buffer — backpressure only when the buffer is tiny.

use clustered_smt::prelude::*;
use csmt_core::ArchKind;
use csmt_cpu::{FetchPolicy, PredictorKind};

const SCALE: f64 = 0.15;

#[test]
fn icount_never_catastrophically_loses_to_round_robin() {
    for app in ["swim", "ocean"] {
        let app = by_name(app).unwrap();
        let with_policy = |policy| {
            RunSpec {
                chip: ArchKind::Smt2.chip().with_fetch_policy(policy),
                ..RunSpec::new(&app, ArchKind::Smt2, 1, SCALE, 7)
            }
            .run()
        };
        let rr = with_policy(FetchPolicy::RoundRobin);
        let ic = with_policy(FetchPolicy::ICount);
        assert!(
            (ic.cycles as f64) < rr.cycles as f64 * 1.05,
            "{}: ICOUNT {} vs RR {}",
            app.name,
            ic.cycles,
            rr.cycles
        );
        assert_eq!(
            ic.slots.committed, rr.slots.committed,
            "same work either way"
        );
    }
}

/// Total cycles and mean fetch-hazard fraction of the six applications on
/// the low-end machine — the quantities `fetch_policies` and
/// `ablation_study` tabulate.
fn six_app_total(arch: ArchKind, chip: ChipConfig, mem: &MemConfig) -> (u64, f64) {
    let apps = all_apps();
    let (mut cycles, mut fetch) = (0, 0.0);
    for app in &apps {
        let r = RunSpec {
            chip,
            mem: mem.clone(),
            ..RunSpec::new(app, arch, 1, SCALE, 7)
        }
        .run();
        cycles += r.cycles;
        fetch += r.hazard_fraction(Hazard::Fetch);
    }
    (cycles, fetch / apps.len() as f64)
}

#[test]
fn fetch_policy_susceptibility_follows_section_5_2() {
    // EXPERIMENTS.md, "Fetch policies": partitioned fetch helps the
    // centralized SMT1 and hurts the narrow-cluster SMT4; ICOUNT lowers
    // the fetch-hazard fraction on both.
    let table3 = MemConfig::table3();
    let with_policy =
        |arch: ArchKind, p| six_app_total(arch, arch.chip().with_fetch_policy(p), &table3);
    for (arch, partitioned_wins) in [(ArchKind::Smt1, true), (ArchKind::Smt4, false)] {
        let (rr, rr_fetch) = with_policy(arch, FetchPolicy::RoundRobin);
        let (part, _) = with_policy(arch, FetchPolicy::Partitioned2);
        let (_, ic_fetch) = with_policy(arch, FetchPolicy::ICount);
        assert_eq!(
            part < rr,
            partitioned_wins,
            "{}: partitioned-2 {part} vs round-robin {rr}",
            arch.name()
        );
        assert!(
            ic_fetch < rr_fetch,
            "{}: ICOUNT fetch hazard {ic_fetch:.4} vs round-robin {rr_fetch:.4}",
            arch.name()
        );
    }
}

#[test]
fn smt2_advantage_over_fa2_is_memory_level_parallelism() {
    // EXPERIMENTS.md, "Memory-system ablations": SMT2's ~1.4x over FA2
    // shrinks to under 1.2x with one bank per level or with 4 MSHRs.
    let speedup = |mem: MemConfig| {
        let (fa2, _) = six_app_total(ArchKind::Fa2, ArchKind::Fa2.chip(), &mem);
        let (smt2, _) = six_app_total(ArchKind::Smt2, ArchKind::Smt2.chip(), &mem);
        fa2 as f64 / smt2 as f64
    };
    let baseline = speedup(MemConfig::table3());
    assert!(baseline > 1.3, "baseline SMT2 speedup {baseline:.2}");
    let one_bank = speedup(MemConfig {
        banks: 1,
        ..MemConfig::table3()
    });
    let four_mshrs = speedup(MemConfig {
        max_outstanding_loads: 4,
        ..MemConfig::table3()
    });
    assert!(one_bank < 1.2, "1 bank/level: {one_bank:.2}");
    assert!(four_mshrs < 1.2, "4 MSHRs: {four_mshrs:.2}");
}

#[test]
fn static_taken_prediction_costs_cycles() {
    let app = by_name("fmm").unwrap(); // branch-noisy
    let bimodal = simulate(&app, ArchKind::Fa1, 1, SCALE, 7);
    let static_taken = RunSpec {
        chip: ArchKind::Fa1
            .chip()
            .with_predictor(PredictorKind::StaticTaken),
        ..RunSpec::new(&app, ArchKind::Fa1, 1, SCALE, 7)
    }
    .run();
    assert!(
        static_taken.cycles > bimodal.cycles,
        "prediction must matter: {} vs {}",
        static_taken.cycles,
        bimodal.cycles
    );
    assert!(static_taken.mispredict_rate() > bimodal.mispredict_rate() * 3.0);
}

#[test]
fn gshare_history_pollution_on_smt() {
    // The shared global history register is poisoned by thread interleaving:
    // gshare's mispredict rate on SMT1 (8 threads) exceeds its rate on the
    // single-threaded FA1 by a wide margin.
    let app = by_name("mgrid").unwrap();
    let gshare = PredictorKind::GShare { history_bits: 8 };
    let with_gshare = |arch: ArchKind| {
        RunSpec {
            chip: arch.chip().with_predictor(gshare),
            ..RunSpec::new(&app, arch, 1, SCALE, 7)
        }
        .run()
    };
    let fa1 = with_gshare(ArchKind::Fa1);
    let smt1 = with_gshare(ArchKind::Smt1);
    assert!(
        smt1.mispredict_rate() > fa1.mispredict_rate() * 2.0,
        "SMT sharing should pollute gshare history: {:.3} vs {:.3}",
        smt1.mispredict_rate(),
        fa1.mispredict_rate()
    );
}

#[test]
fn multiprogram_batches_preserve_work_and_order_smt_first() {
    let mix: Vec<AppSpec> = ["vpenta", "tomcatv"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect();
    let [smt2, fa2, fa8] = [ArchKind::Smt2, ArchKind::Fa2, ArchKind::Fa8].map(|arch| {
        RunSpec::job_batches(&mix, 8, arch.chip(), 1, SCALE, 7, Policy::Static)
            .map(|batch| batch.run())
            .collect::<BatchResult>()
    });
    // Same committed work everywhere (seeds per job are identical).
    assert_eq!(smt2.committed, fa2.committed);
    assert_eq!(smt2.committed, fa8.committed);
    // SMT2 at least matches the best FA on total time for the fixed job set.
    assert!(
        smt2.total_cycles <= fa2.total_cycles.min(fa8.total_cycles),
        "SMT2 {} vs FA2 {} / FA8 {}",
        smt2.total_cycles,
        fa2.total_cycles,
        fa8.total_cycles
    );
}

#[test]
fn store_buffer_backpressure_visible_only_when_tiny() {
    let app = by_name("swim").unwrap();
    let roomy = simulate(&app, ArchKind::Fa2, 1, SCALE, 7);
    let tiny = RunSpec {
        chip: ArchKind::Fa2.chip().with_store_buffer(1),
        ..RunSpec::new(&app, ArchKind::Fa2, 1, SCALE, 7)
    }
    .run();
    assert!(
        tiny.cycles >= roomy.cycles,
        "{} vs {}",
        tiny.cycles,
        roomy.cycles
    );
    assert_eq!(tiny.slots.committed, roomy.slots.committed);
}
