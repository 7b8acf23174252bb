//! `csmt-metrics` acceptance tests.
//!
//! Two guarantees, on real runs of every distinct Table 2 architecture
//! (mgrid, scale 0.2, seed `0xC5317` — the golden-determinism
//! configuration):
//!
//! 1. **Digest neutrality** — composing a `MetricsProbe` next to the
//!    golden `EventDigest` leaves the digest (and the `RunResult`)
//!    bit-for-bit unchanged: turning metrics on cannot perturb the
//!    simulation.
//! 2. **Exact reconciliation** — the top-down attribution tree's leaves
//!    are bit-equal (`f64 ==`, no epsilon) to the run's `SlotStats`
//!    accumulators, and its totals match the run's slot/cycle/committed
//!    counts.
//!
//! The report a `MetricsProbe` exports is pinned byte for byte too.

use csmt_core::{ArchKind, Policy};
use csmt_cpu::Hazard;
use csmt_metrics::{MetricsProbe, MetricsReport};
use csmt_trace::{CycleStats, Event, Probe, Wants};
use csmt_verify::{EventDigest, Fnv64};
use csmt_workloads::{by_name, simulate_probed, RunSpec};

const SCALE: f64 = 0.2;
const SEED: u64 = 0xC5_317;
const APP: &str = "mgrid";

/// The seven distinct Table 2 configurations (SMT8 is an alias of FA8).
const ARCHS: [ArchKind; 7] = [
    ArchKind::Fa8,
    ArchKind::Fa4,
    ArchKind::Fa2,
    ArchKind::Fa1,
    ArchKind::Smt4,
    ArchKind::Smt2,
    ArchKind::Smt1,
];

/// One pass over every Table 2 architecture proving guarantees 1 and 2
/// together: the digest next to a `MetricsProbe` equals the digest
/// alone, and the metrics distilled from that very same paired run
/// reconcile exactly with the `RunResult`.
#[test]
fn metrics_probe_is_digest_neutral_and_reconciles_exactly() {
    let app = by_name(APP).expect("paper app");
    for arch in ARCHS {
        // Reference: digest alone (what the golden test pins).
        let mut solo = EventDigest::new();
        let r_solo = simulate_probed(
            &app,
            arch.chip(),
            1,
            SCALE,
            SEED,
            csmt_mem::MemConfig::table3(),
            &mut solo,
        );
        // Same run with metrics composed in, which may not leak into the
        // digest's stream or the run's behavior.
        let mut paired = (EventDigest::new(), MetricsProbe::default());
        let r = simulate_probed(
            &app,
            arch.chip(),
            1,
            SCALE,
            SEED,
            csmt_mem::MemConfig::table3(),
            &mut paired,
        );
        assert_eq!(
            solo.hash(),
            paired.0.hash(),
            "{}: metrics probe perturbed the event stream",
            arch.name()
        );
        assert_eq!(r_solo.cycles, r.cycles, "{}", arch.name());
        assert_eq!(r_solo.slots, r.slots, "{}", arch.name());
        assert_eq!(r_solo.mem, r.mem, "{}", arch.name());

        let report = paired.1.finish();
        let tree = &report.topdown;
        // Totals.
        assert_eq!(tree.total_slots, r.slots.slots, "{}", arch.name());
        assert_eq!(tree.cycles, r.slots.cycles, "{}", arch.name());
        assert_eq!(tree.committed, r.slots.committed, "{}", arch.name());
        // Leaves: bit-equal copies of the SlotStats accumulators.
        let useful = tree.node("useful").expect("useful leaf");
        assert!(
            useful.slots == r.slots.useful,
            "{}: useful {} != {}",
            arch.name(),
            useful.slots,
            r.slots.useful
        );
        let leaf_of = |h: Hazard| match h {
            Hazard::Other => "rename_squash",
            Hazard::Structural => "issue_retire_bound",
            Hazard::Memory => "memory_bound",
            Hazard::Data => "data_dependence",
            Hazard::Control => "bad_speculation",
            Hazard::Sync => "sync_bound",
            Hazard::Fetch => "fetch_starved",
        };
        for h in Hazard::ALL {
            let leaf = tree.node(leaf_of(h)).expect("hazard leaf");
            assert!(
                leaf.slots == r.slots.wasted[h.index()],
                "{}: {} {} != wasted[{}] {}",
                arch.name(),
                leaf.name,
                leaf.slots,
                h.label(),
                r.slots.wasted[h.index()]
            );
        }
        // Conservation: leaves sum back to the offered slots (the same
        // guarantee SlotStats::record_cycle maintains per cycle).
        assert!(
            (tree.leaf_total() - r.slots.slots as f64).abs() < 1e-6 * r.slots.slots as f64,
            "{}: leaf total {} vs slots {}",
            arch.name(),
            tree.leaf_total(),
            r.slots.slots
        );
    }
}

/// Captures the last end-of-cycle [`CycleStats`] snapshot of a run.
#[derive(Default)]
struct LastSnapshot(Option<CycleStats>);

impl Probe for LastSnapshot {
    const WANTS: Wants = Wants::CYCLE_STATS;
    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        if let Event::CycleEnd(stats) = ev {
            self.0 = Some(**stats);
        }
    }
}

/// The machine assembles each cycle's `CycleStats` from O(1) running
/// aggregates (`useful`/`committed` integer deltas, closed-form
/// `slots`/`cycles`) instead of re-merging every cluster's full
/// `SlotStats`. This pins the equivalence: the *final* snapshot of a run
/// must be bit-equal (`f64 ==`, no epsilon) to the `RunResult`'s
/// merge-based accumulators, on every Table 2 architecture and on a
/// multi-chip machine.
#[test]
fn cycle_stats_aggregates_match_the_slotstats_merge_exactly() {
    let app = by_name(APP).expect("paper app");
    for (arch, chips) in [
        (ArchKind::Fa8, 1),
        (ArchKind::Fa4, 1),
        (ArchKind::Fa2, 1),
        (ArchKind::Fa1, 1),
        (ArchKind::Smt4, 1),
        (ArchKind::Smt2, 1),
        (ArchKind::Smt1, 1),
        (ArchKind::Fa4, 4),
        (ArchKind::Smt2, 4),
    ] {
        let mut probe = LastSnapshot::default();
        let r = simulate_probed(
            &app,
            arch.chip(),
            chips,
            SCALE,
            SEED,
            csmt_mem::MemConfig::table3(),
            &mut probe,
        );
        let last = probe.0.expect("run emitted at least one cycle");
        let name = arch.name();
        assert!(
            last.useful == r.slots.useful,
            "{name}×{chips}: useful {} != {}",
            last.useful,
            r.slots.useful
        );
        for h in Hazard::ALL {
            assert!(
                last.wasted[h.index()] == r.slots.wasted[h.index()],
                "{name}×{chips}: wasted[{}] {} != {}",
                h.label(),
                last.wasted[h.index()],
                r.slots.wasted[h.index()]
            );
        }
        assert_eq!(last.slots, r.slots.slots, "{name}×{chips}");
        assert_eq!(last.cycles, r.slots.cycles, "{name}×{chips}");
        assert_eq!(last.committed, r.slots.committed, "{name}×{chips}");
        assert_eq!(last.accesses, r.mem.accesses, "{name}×{chips}");
        assert_eq!(last.l1_hits, r.mem.l1_hits, "{name}×{chips}");
        assert_eq!(last.l2_hits, r.mem.l2_hits, "{name}×{chips}");
        assert_eq!(last.tlb_misses, r.mem.tlb_misses, "{name}×{chips}");
    }
}

/// `app` on `arch` × `chips` under the `sched` policy at the golden seed,
/// with a `MetricsProbe` attached.
fn probed(arch: ArchKind, app: &str, chips: usize, scale: f64, sched: Policy) -> MetricsReport {
    let app = by_name(app).expect("paper app");
    let mut probe = MetricsProbe::default();
    RunSpec {
        sched,
        ..RunSpec::new(&app, arch, chips, scale, SEED)
    }
    .run_probed(&mut probe);
    probe.finish()
}

/// FNV-64 of `text`'s UTF-8 bytes.
fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.update(text.as_bytes());
    h.finish()
}

/// One exported cell: `(arch, app, chips, scale, sched)`, then the
/// FNV-64 of its pretty-printed report.
type ExportPin = (ArchKind, &'static str, usize, f64, Policy, u64);

/// Report digests of a 4-chip cell, a cell whose policy
/// migrates threads (a dynamic policy degrades to static on FA chips, so
/// this is SMT2) and a plain one. Each is the digest of the same three
/// keys rendered from the report that also carried histograms, an IPC
/// timeline and a Perfetto trace: deleting those left these bytes alone.
#[rustfmt::skip]
const EXPORT_PINS: [ExportPin; 3] = [
    (ArchKind::Smt2, "swim", 4, 0.1, Policy::Static, 0x1bac_3b6a_5e74_5e32),
    (ArchKind::Smt2, APP, 1, SCALE, Policy::HazardPairing, 0x32cc_5722_83b0_8a22),
    (ArchKind::Smt2, APP, 1, SCALE, Policy::Static, 0xe8ad_8e90_336b_7b43),
];

#[test]
fn exports_are_byte_identical_to_the_pinned_digests() {
    for (arch, app, chips, scale, sched, report_pin) in EXPORT_PINS {
        let report = probed(arch, app, chips, scale, sched);
        let cell = format!("{}×{chips} {app} {scale} {}", arch.name(), sched.name());
        if sched != Policy::Static {
            assert!(report.migrations > 0, "{cell}: no migration");
        }
        let mut pretty = String::new();
        report.to_value().render_pretty(&mut pretty);
        assert_eq!(fnv(&pretty), report_pin, "{cell}: report");
    }
}
