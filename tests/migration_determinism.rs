//! Differential proof that dynamic thread scheduling is deterministic:
//! for random (architecture × application × seed × policy) points, two
//! runs of the same configuration must produce the *identical* serialized
//! `RunResult` (including the migration counters) and the identical full
//! probe-event stream — here extended with the scheduler's own
//! attach/depart/arrive events, which the golden digests deliberately
//! ignore — and the fast-forward must stay bit-for-bit invisible under
//! every policy, exactly as `tests/fastforward_equiv.rs` proves for the
//! static machine.
//!
//! Only the three dynamic-capable architectures appear in the sweep:
//! SMT4, SMT2 and SMT1 are the Table 2 configurations with more than one
//! hardware context per cluster, so they are the only ones where
//! `Machine::set_scheduler` accepts a migrating policy.

use csmt_core::sched::by_name;
use csmt_core::{ArchKind, Machine};
use csmt_mem::MemConfig;
use csmt_verify::SchedEventDigest;
use csmt_workloads::{build_streams, by_name as app_by_name, AppParams};
use proptest::prelude::*;

const SCALE: f64 = 0.05;
const MAX_CYCLES: u64 = 2_000_000_000;

/// One run of `app` on single-chip `arch` under `policy`; returns
/// (serialized RunResult, cycles, event digest, event count, migrations).
fn run_once(
    arch: ArchKind,
    app_name: &str,
    seed: u64,
    policy: &str,
    fastforward: bool,
) -> (String, u64, u64, u64, u64) {
    let app = app_by_name(app_name).expect("paper app");
    let mut m = Machine::new(arch.chip(), 1, MemConfig::table3(), seed);
    m.set_fastforward(fastforward);
    m.set_scheduler(by_name(policy).expect("known policy"))
        .expect("dynamic-capable arch");
    let n_threads = m.hw_thread_capacity();
    let params = AppParams::new(n_threads, 1, SCALE, seed);
    m.attach_threads(build_streams(&app, &params));
    let mut probe = SchedEventDigest::new();
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

    /// Same (arch × app × seed × policy) twice: identical RunResult JSON
    /// and identical event stream — migration events included — with the
    /// fast-forward both off and on, and no divergence between the two
    /// fast-forward modes either.
    #[test]
    fn same_policy_same_seed_is_bit_for_bit_reproducible(
        arch in arb_arch(),
        app in arb_app(),
        seed in 0u64..1 << 48,
        policy in arb_policy(),
    ) {
        for ff in [false, true] {
            let a = run_once(arch, app, seed, policy, ff);
            let b = run_once(arch, app, seed, policy, ff);
            prop_assert_eq!(&a, &b, "non-deterministic run (ff={})", ff);
        }
        let stepped = run_once(arch, app, seed, policy, false);
        let fastfwd = run_once(arch, app, seed, policy, true);
        prop_assert_eq!(stepped.1, fastfwd.1, "cycle counts differ across ff");
        prop_assert_eq!(stepped.4, fastfwd.4, "migration counts differ across ff");
        prop_assert_eq!(stepped.3, fastfwd.3, "event counts differ across ff");
        prop_assert_eq!(stepped.2, fastfwd.2, "event streams differ across ff");
        prop_assert_eq!(&stepped.0, &fastfwd.0, "RunResults differ across ff");
    }
}

/// A deterministic anchor alongside the random sweep: the golden-digest
/// configuration (`mgrid`, seed 0xC5317) under every policy, checked on
/// every test run regardless of proptest's case stream.
#[test]
fn every_policy_is_reproducible_on_the_golden_config() {
    for policy in ["static", "barrier", "hazard_pairing"] {
        for ff in [false, true] {
            let a = run_once(ArchKind::Smt2, "mgrid", 0xC5_317, policy, ff);
            let b = run_once(ArchKind::Smt2, "mgrid", 0xC5_317, policy, ff);
            assert_eq!(a, b, "{policy} ff={ff}");
        }
        let stepped = run_once(ArchKind::Smt2, "mgrid", 0xC5_317, policy, false);
        let fastfwd = run_once(ArchKind::Smt2, "mgrid", 0xC5_317, policy, true);
        assert_eq!(stepped, fastfwd, "{policy}: fast-forward must be invisible");
    }
}
