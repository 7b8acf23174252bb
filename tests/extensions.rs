//! Integration tests for the features built beyond the paper's baseline:
//! fetch policies, branch predictors, multiprogrammed mixes, store-buffer
//! backpressure — all exercised end to end through the public API.

use clustered_smt::prelude::*;
use csmt_core::ArchKind;
use csmt_cpu::{FetchPolicy, PredictorKind};
use csmt_workloads::simulate_job_batches;

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
    let smt2 = simulate_job_batches(&mix, 8, ArchKind::Smt2.chip(), 1, SCALE, 7);
    let fa2 = simulate_job_batches(&mix, 8, ArchKind::Fa2.chip(), 1, SCALE, 7);
    let fa8 = simulate_job_batches(&mix, 8, ArchKind::Fa8.chip(), 1, SCALE, 7);
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
fn replacement_policy_changes_are_bounded() {
    // LRU vs random: measurable but not catastrophic on these workloads
    // (sanity that the policy plumbing affects only victim choice).
    let app = by_name("mgrid").unwrap();
    let lru = simulate(&app, ArchKind::Smt2, 1, SCALE, 7);
    let rnd = RunSpec {
        mem: MemConfig {
            replacement: csmt_mem::Replacement::Random,
            ..MemConfig::table3()
        },
        ..RunSpec::new(&app, ArchKind::Smt2, 1, SCALE, 7)
    }
    .run();
    assert_eq!(lru.slots.committed, rnd.slots.committed);
    let ratio = rnd.cycles as f64 / lru.cycles as f64;
    assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
}

#[test]
fn store_buffer_backpressure_visible_only_when_tiny() {
    let app = by_name("swim").unwrap();
    let roomy = simulate(&app, ArchKind::Fa2, 1, SCALE, 7);
    let tiny = RunSpec {
        chip: ArchKind::Fa2
            .chip()
            .with_cluster(|c| c.with_store_buffer(1)),
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
