//! Differential proof that the event-driven stall fast-forward is
//! bit-for-bit invisible: for random (architecture × chips × application ×
//! seed) points, a machine run with the fast-forward enabled must produce
//! the *identical* serialized `RunResult` (every statistic, including the
//! `f64` hazard accumulations), the identical cycle count, and the
//! identical full probe-event stream — every fetch/issue/commit event and
//! every per-cycle `cycle_end` snapshot, including those fired during
//! skipped spans — as the same machine stepped cycle by cycle.
//!
//! Runs under `profile.test` with `debug_assertions` on, so the per-cycle
//! weight-drift assertion inside the skip path is also live.

use csmt_core::{ArchKind, Machine};
use csmt_mem::MemConfig;
use csmt_verify::EventDigest;
use csmt_workloads::{build_streams, by_name, AppParams};
use proptest::prelude::*;

const SCALE: f64 = 0.05;
const MAX_CYCLES: u64 = 2_000_000_000;

/// Run `app` on (`arch` × `chips`) with the fast-forward forced to
/// `fastforward`; returns (serialized RunResult, cycles, event digest,
/// event count).
fn run_once(
    arch: ArchKind,
    chips: usize,
    app_name: &str,
    seed: u64,
    fastforward: bool,
) -> (String, u64, u64, u64) {
    let app = by_name(app_name).expect("paper app");
    let mut m = Machine::new(arch.chip(), chips, MemConfig::table3(), seed);
    m.set_fastforward(fastforward);
    let n_threads = m.hw_thread_capacity();
    let params = AppParams::new(n_threads, chips, SCALE, seed);
    m.attach_threads(build_streams(&app, &params));
    let mut probe = EventDigest::new();
    let r = m.run_probed(MAX_CYCLES, &mut probe);
    let json = serde_json::to_string(&r).expect("RunResult serializes");
    (json, r.cycles, probe.hash(), probe.events())
}

fn arb_arch() -> impl Strategy<Value = ArchKind> {
    prop_oneof![
        Just(ArchKind::Fa8),
        Just(ArchKind::Fa4),
        Just(ArchKind::Fa2),
        Just(ArchKind::Fa1),
        Just(ArchKind::Smt4),
        Just(ArchKind::Smt2),
        Just(ArchKind::Smt1),
    ]
}

fn arb_chips() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

fn arb_app() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("mgrid"), Just("ocean"), Just("fmm"), Just("swim")]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Fast-forward on vs. off: identical RunResult (bit-for-bit, via its
    /// JSON serialization), identical cycle count, identical event stream.
    #[test]
    fn fastforward_is_bit_for_bit_invisible(
        arch in arb_arch(),
        chips in arb_chips(),
        app in arb_app(),
        seed in 0u64..1 << 48,
    ) {
        let stepped = run_once(arch, chips, app, seed, false);
        let fastfwd = run_once(arch, chips, app, seed, true);
        prop_assert_eq!(stepped.1, fastfwd.1, "cycle counts differ");
        prop_assert_eq!(stepped.3, fastfwd.3, "event counts differ");
        prop_assert_eq!(stepped.2, fastfwd.2, "event streams differ");
        prop_assert_eq!(&stepped.0, &fastfwd.0, "RunResults differ");
    }
}

/// A deterministic anchor alongside the random sweep: the exact
/// golden-digest configuration (`mgrid`, seed 0xC5317) plus a 4-chip
/// high-end point, checked on every test run regardless of proptest's
/// case stream.
#[test]
fn fastforward_matches_stepped_on_golden_configs() {
    for (arch, chips) in [
        (ArchKind::Smt2, 1),
        (ArchKind::Fa8, 1),
        (ArchKind::Fa4, 4),
        (ArchKind::Smt4, 4),
    ] {
        let stepped = run_once(arch, chips, "mgrid", 0xC5_317, false);
        let fastfwd = run_once(arch, chips, "mgrid", 0xC5_317, true);
        assert_eq!(stepped, fastfwd, "{} × {chips} chips", arch.name());
    }
}
