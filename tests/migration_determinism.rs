//! Differential proof that dynamic thread scheduling is deterministic:
//! for random (architecture × chips × application × seed × policy)
//! points, two runs of the same configuration must produce the
//! *identical* serialized `RunResult` (including the migration counters)
//! and the identical full probe-event stream, the scheduler's own
//! attach/depart/arrive events included.
//!
//! Runs under `profile.test` with `debug_assertions` on, so every
//! simulated cycle of these random multi-chip points also checks the
//! incremental §4.1 class counts against the full window scan.
//!
//! Only the three dynamic-capable architectures appear in the sweep:
//! SMT4, SMT2 and SMT1 are the Table 2 configurations with more than one
//! hardware context per cluster, so they are the only ones where
//! `Machine::set_scheduler` accepts a migrating policy.

use csmt_core::sched::by_name;
use csmt_core::{ArchKind, Machine};
use csmt_mem::MemConfig;
use csmt_verify::EventDigest;
use csmt_workloads::{build_streams, by_name as app_by_name, AppParams};
use proptest::prelude::*;

const SCALE: f64 = 0.05;
const MAX_CYCLES: u64 = 2_000_000_000;

/// One run of `app` on (`arch` × `chips`) under `policy`; returns
/// (serialized RunResult, cycles, event digest, event count, migrations).
fn run_once(
    arch: ArchKind,
    chips: usize,
    app_name: &str,
    seed: u64,
    policy: &str,
) -> (String, u64, u64, u64, u64) {
    let app = app_by_name(app_name).expect("paper app");
    let mut m = Machine::new(arch.chip(), chips, MemConfig::table3(), seed);
    m.set_scheduler(by_name(policy).expect("known policy"))
        .expect("dynamic-capable arch");
    let n_threads = m.hw_thread_capacity();
    let params = AppParams::new(n_threads, chips, SCALE, seed);
    m.attach_threads(build_streams(&app, &params));
    let mut probe = EventDigest::new();
    let r = m.run_probed(MAX_CYCLES, &mut probe);
    let json = serde_json::to_string(&r).expect("RunResult serializes");
    (json, r.cycles, probe.hash(), probe.events(), r.migrations)
}

/// The dynamic-capable architectures: >1 hardware context per cluster.
fn arb_arch() -> impl Strategy<Value = ArchKind> {
    prop_oneof![
        Just(ArchKind::Smt4),
        Just(ArchKind::Smt2),
        Just(ArchKind::Smt1),
    ]
}

fn arb_app() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("mgrid"), Just("ocean"), Just("fmm"), Just("swim")]
}

fn arb_policy() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("static"), Just("barrier"), Just("hazard_pairing")]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Same (arch × chips × app × seed × policy) twice: identical
    /// RunResult JSON and identical event stream — migration events
    /// included.
    #[test]
    fn same_policy_same_seed_is_bit_for_bit_reproducible(
        arch in arb_arch(),
        chips in prop_oneof![Just(1usize), Just(2), Just(4)],
        app in arb_app(),
        seed in 0u64..1 << 48,
        policy in arb_policy(),
    ) {
        let a = run_once(arch, chips, app, seed, policy);
        let b = run_once(arch, chips, app, seed, policy);
        prop_assert_eq!(&a, &b, "non-deterministic run");
    }
}

/// A deterministic anchor alongside the random sweep: the golden-digest
/// configuration (`mgrid`, seed 0xC5317) under every policy, checked on
/// every test run regardless of proptest's case stream.
#[test]
fn every_policy_is_reproducible_on_the_golden_config() {
    for policy in ["static", "barrier", "hazard_pairing"] {
        let a = run_once(ArchKind::Smt2, 1, "mgrid", 0xC5_317, policy);
        let b = run_once(ArchKind::Smt2, 1, "mgrid", 0xC5_317, policy);
        assert_eq!(a, b, "{policy}");
    }
}
