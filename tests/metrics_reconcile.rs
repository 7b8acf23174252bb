//! `csmt-metrics` acceptance tests.
//!
//! Three guarantees, on real runs of every distinct Table 2 architecture
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
//! 3. **Loadable Perfetto export** — the exported trace-event JSON
//!    parses back and passes the schema validator.

use csmt_core::ArchKind;
use csmt_cpu::Hazard;
use csmt_metrics::{validate_trace, MetricsProbe, MetricsReport};
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

/// `MetricsReport::committed_by_thread` per architecture, in [`ARCHS`]
/// order: `((cluster, context), committed)` ascending, one entry per
/// context that committed anything. Captured with the hash-map-and-sort
/// `MetricsProbe` that preceded the per-context table, so key order and
/// counts are pinned rather than inferred; `lifetime_by_thread` carries
/// the same keys with one lifetime sample per commit.
type ByThread = &'static [((u32, u32), u64)];
#[rustfmt::skip]
const COMMITTED_BY_THREAD: [ByThread; 7] = [
    &[((0, 0), 4724), ((1, 0), 2564), ((2, 0), 2564), ((3, 0), 2564),
      ((4, 0), 2436), ((5, 0), 2436), ((6, 0), 2436), ((7, 0), 2436)],
    &[((0, 0), 7160), ((1, 0), 5000), ((2, 0), 5000), ((3, 0), 5000)],
    &[((0, 0), 12160), ((1, 0), 10000)],
    &[((0, 0), 22160)],
    &[((0, 0), 4724), ((0, 1), 2436), ((1, 0), 2564), ((1, 1), 2436),
      ((2, 0), 2564), ((2, 1), 2436), ((3, 0), 2564), ((3, 1), 2436)],
    &[((0, 0), 4724), ((0, 1), 2564), ((0, 2), 2436), ((0, 3), 2436),
      ((1, 0), 2564), ((1, 1), 2564), ((1, 2), 2436), ((1, 3), 2436)],
    &[((0, 0), 4724), ((0, 1), 2564), ((0, 2), 2564), ((0, 3), 2564),
      ((0, 4), 2436), ((0, 5), 2436), ((0, 6), 2436), ((0, 7), 2436)],
];

/// One pass over every Table 2 architecture proving guarantees 1 and 2
/// together: the digest next to a `MetricsProbe` equals the digest
/// alone, and the metrics distilled from that very same paired run
/// reconcile exactly with the `RunResult`.
#[test]
fn metrics_probe_is_digest_neutral_and_reconciles_exactly() {
    let app = by_name(APP).expect("paper app");
    for (arch, by_thread) in ARCHS.into_iter().zip(COMMITTED_BY_THREAD) {
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
        // Same run with metrics composed in. The MetricsProbe enables
        // extra channels (cycle stats, occupancy) — none of which may
        // leak into the digest's stream or the run's behavior.
        let mut paired = (EventDigest::new(), MetricsProbe::new(500));
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
        // Every committed instruction contributed exactly one lifetime
        // sample and one per-thread committed count.
        let lifetimes: u64 = report
            .lifetime_by_cluster
            .iter()
            .map(csmt_metrics::LogHistogram::count)
            .sum();
        assert_eq!(lifetimes, r.slots.committed, "{}", arch.name());
        let per_thread: u64 = report.committed_by_thread.iter().map(|(_, n)| n).sum();
        assert_eq!(per_thread, r.slots.committed, "{}", arch.name());
        assert_eq!(report.committed_by_thread, by_thread, "{}", arch.name());
        let lifetime_samples: Vec<((u32, u32), u64)> = report
            .lifetime_by_thread
            .iter()
            .map(|(key, h)| (*key, h.count()))
            .collect();
        assert_eq!(lifetime_samples, by_thread, "{}", arch.name());
    }
}

/// Captures the last end-of-cycle [`CycleStats`] snapshot of a run.
#[derive(Default)]
struct LastSnapshot(Option<CycleStats>);

impl Probe for LastSnapshot {
    const WANTS: Wants = Wants::CYCLE_STATS;
    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        if let Event::CycleEnd { stats, .. } = ev {
            self.0 = stats.copied();
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

/// Guarantee 3: the Perfetto export of a real run parses back and is
/// schema-clean, with both slice and counter tracks present.
#[test]
fn perfetto_export_from_a_real_run_loads_cleanly() {
    let app = by_name(APP).expect("paper app");
    let mut probe = MetricsProbe::new(500);
    let r = simulate_probed(
        &app,
        ArchKind::Smt2.chip(),
        1,
        SCALE,
        SEED,
        csmt_mem::MemConfig::table3(),
        &mut probe,
    );
    let report = probe.finish();
    let json = report.trace.to_json();
    let parsed: serde::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let n = validate_trace(&parsed).expect("trace is schema-clean");
    assert_eq!(n, report.trace.len());
    let events = parsed
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents");
    let count_ph = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some(ph))
            .count()
    };
    assert!(count_ph("X") > 0, "no occupancy slices");
    assert!(count_ph("C") > 0, "no counter samples");
    // One named track per hardware context that fetched anything: SMT2
    // has 2 clusters x 4 contexts on one chip.
    let thread_names = events
        .iter()
        .filter(|e| e.get("name").and_then(serde::Value::as_str) == Some("thread_name"))
        .count();
    assert_eq!(thread_names, 8);
    assert!(r.cycles > 0);
}

/// `app` on `arch` × `chips` under the `sched` policy at the golden seed,
/// with a `MetricsProbe` sampling every 500 cycles.
fn probed(arch: ArchKind, app: &str, chips: usize, scale: f64, sched: &str) -> MetricsReport {
    let app = by_name(app).expect("paper app");
    let mut probe = MetricsProbe::new(500);
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
/// FNV-64 of its Perfetto document and of its pretty-printed report.
type ExportPin = (ArchKind, &'static str, usize, f64, &'static str, u64, u64);

/// Export digests captured from the trace that kept every event as a
/// `serde::Value` tree, so the typed records must render the same bytes:
/// a slice-heavy 4-chip cell, a cell whose policy migrates threads (sched
/// instants of all three kinds; a dynamic policy degrades to static on
/// FA chips, so this is SMT2), and the cell of
/// `perfetto_export_from_a_real_run_loads_cleanly`.
#[rustfmt::skip]
const EXPORT_PINS: [ExportPin; 3] = [
    (ArchKind::Smt2, "swim", 4, 0.1, "static", 0xb5e4_3015_47ab_ba07, 0xe1a2_e0a9_094a_d47c),
    (ArchKind::Smt2, APP, 1, SCALE, "hazard_pairing", 0xc4e3_3754_3e19_a34a, 0xe060_5ee4_975a_86f3),
    (ArchKind::Smt2, APP, 1, SCALE, "static", 0x93b6_2ddc_a96c_6da3, 0x4bc0_6031_0754_1ba2),
];

#[test]
fn exports_are_byte_identical_to_the_pinned_digests() {
    for (arch, app, chips, scale, sched, trace_pin, report_pin) in EXPORT_PINS {
        let report = probed(arch, app, chips, scale, sched);
        let cell = format!("{}×{chips} {app} {scale} {sched}", arch.name());
        if sched != "static" {
            assert!(report.migrations > 0, "{cell}: no arrive instant");
        }
        let mut pretty = String::new();
        report.to_value().render_pretty(&mut pretty);
        assert_eq!(fnv(&report.trace.to_json()), trace_pin, "{cell}: trace");
        assert_eq!(fnv(&pretty), report_pin, "{cell}: report");
    }
}

/// The histograms of a real run carry plausible pipeline numbers — a
/// smoke check that the channels are wired to the right quantities
/// (lifetimes at least the pipeline depth, occupancy within the window).
#[test]
fn histograms_carry_pipeline_shaped_values() {
    let app = by_name(APP).expect("paper app");
    let mut probe = MetricsProbe::new(500);
    let r = simulate_probed(
        &app,
        ArchKind::Fa4.chip(),
        1,
        SCALE,
        SEED,
        csmt_mem::MemConfig::table3(),
        &mut probe,
    );
    let report = probe.finish();
    // Fetch→commit takes at least the front-end + commit latency.
    for (c, h) in report.lifetime_by_cluster.iter().enumerate() {
        assert!(h.count() > 0, "cluster {c} committed nothing");
        assert!(h.min() >= 2, "cluster {c}: lifetime {} too short", h.min());
    }
    // Loads were observed, and misses resided in MSHRs.
    assert!(report.load_use.count() > 0);
    assert!(report.mshr_residency.count() > 0);
    assert!(report.mshr_residency.min() >= 1);
    // Occupancy snapshots: one per cluster per cycle, bounded by the
    // window size.
    let window = ArchKind::Fa4.chip().cluster().window_entries() as u64;
    for (c, h) in report.window_occ.iter().enumerate() {
        assert_eq!(h.count(), r.cycles, "cluster {c} occupancy samples");
        assert!(h.max() <= window, "cluster {c}: occupancy above window");
    }
    // The IPC timeline averages back to the run's IPC.
    assert!(!report.ipc_timeline.is_empty());
}
