//! Mutation tests: seed one fault at a time into the event stream between
//! the simulator and the [`InvariantProbe`], and assert the checker
//! reports the violation kind that fault was designed to trip. A checker
//! that passes the golden run but misses these mutations is vacuous —
//! this is the test of the tests.
//!
//! The [`FaultInjector`] is a probe wrapper: it forwards every event to an
//! inner `InvariantProbe`, except that the armed fault fires once at its
//! trigger point (duplicating, dropping, reordering, or corrupting an
//! event). Faults may knock on secondary violations (a dropped commit also
//! leaks the instruction at drain, a held commit desynchronizes the
//! per-cycle committed counter); each test therefore asserts the *target*
//! kind is present, not that it is alone.

use csmt_core::{ArchKind, ChipConfig};
use csmt_mem::MemConfig;
use csmt_trace::{
    CacheEvent, CycleStats, Event, FetchEvent, MigrationEvent, MigrationEventKind, Probe,
    RenamePoolEvent, StageEvent, Wants,
};
use csmt_verify::{InvariantProbe, VerifySummary, Violation, ViolationKind};
use csmt_workloads::{by_name, simulate_probed};
use std::collections::HashMap;

/// Seed shared with the figure binaries and golden tests.
const SEED: u64 = 0xC5_317;
const SCALE: f64 = 0.05;

/// Which single fault to seed into the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Forward everything untouched (control run — must be clean).
    None,
    /// Inject a burst of phantom fetches past the window budget.
    PhantomFetchBurst,
    /// Report one fewer free integer rename register than reality.
    RenamePoolSkew,
    /// Hold a commit and release it after a later same-thread commit.
    CommitSwap,
    /// Replay an issue event relabeled to a cluster the machine lacks.
    ClusterRelabel,
    /// Add a slot to one hazard bucket of a `CycleStats` snapshot.
    SlotSkim,
    /// Deliver the same commit event twice.
    DoubleCommit,
    /// Replay an issue event until the cluster's width is exceeded.
    IssueBurst,
    /// Swallow a commit event entirely.
    CommitDrop,
    /// Inject phantom committed stores past the node's buffer capacity.
    StoreFlood,
    /// Rewind the cumulative committed counter by one.
    StatsRewind,
    /// Synthesize a `Depart` for a thread whose context still has an
    /// instruction in flight — a migration that skipped the drain.
    ThreadTeleport,
    /// Swallow one of the initial `Attach` events: that context then
    /// fetches with no owner on record.
    AttachDrop,
    /// Deliver one initial `Attach` twice: the second lands on a context
    /// that already has an owner.
    AttachDup,
}

/// Probe wrapper that forwards to an [`InvariantProbe`], firing `fault`
/// exactly once at its trigger point.
struct FaultInjector {
    inner: InvariantProbe,
    fault: Fault,
    /// True until the fault has fired.
    armed: bool,
    /// Per-cluster window budget (phantom-fetch burst size).
    window_cap: usize,
    /// Per-cluster issue width (issue-burst size).
    issue_width: usize,
    /// Per-node store-buffer capacity (store-flood size).
    store_cap: usize,
    /// Total clusters in the machine (for the out-of-range relabel).
    n_clusters: u32,
    /// Cluster-0 uid → hardware thread, from fetch events (for the swap).
    threads: HashMap<u64, u32>,
    /// (cluster, context) → software thread id, from `Attach` migration
    /// events (for the teleport fault's owner lookup).
    slot_tid: HashMap<(u32, u32), u32>,
    held_commit: Option<StageEvent>,
}

impl FaultInjector {
    fn new(chip: &ChipConfig, n_chips: usize, fault: Fault) -> Self {
        FaultInjector {
            inner: InvariantProbe::new(chip, n_chips),
            fault,
            armed: fault != Fault::None,
            window_cap: chip.cluster().window_entries(),
            issue_width: chip.cluster().issue_width,
            store_cap: chip.clusters() * chip.cluster().store_buffer,
            n_clusters: (chip.clusters() * n_chips) as u32,
            threads: HashMap::new(),
            slot_tid: HashMap::new(),
            held_commit: None,
        }
    }

    /// Flush any held event, assert the fault actually fired, and run the
    /// inner checker's drain.
    fn finish(mut self) -> Result<VerifySummary, Vec<Violation>> {
        if let Some(h) = self.held_commit.take() {
            self.inner.on(&Event::Commit(h));
        }
        assert!(
            !self.armed,
            "fault {:?} never reached its trigger point",
            self.fault
        );
        self.inner.finish()
    }
}

impl Probe for FaultInjector {
    const WANTS: Wants = InvariantProbe::WANTS;

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::Fetch(e) => self.fetch(e),
            Event::Issue(e) => self.issue(e),
            Event::Commit(e) => self.commit(e),
            Event::Cache(e) => self.cache_access(e),
            Event::Migration(e) => self.migration(e),
            Event::RenamePools(e) => self.rename_pools(e),
            Event::CycleEnd(s) => self.cycle_end(s),
            _ => self.inner.on(ev),
        }
    }
}

/// The events a fault can fire on; everything else forwards untouched.
impl FaultInjector {
    fn fetch(&mut self, e: FetchEvent) {
        if e.cluster == 0 {
            self.threads.insert(e.uid, e.thread);
        }
        self.inner.on(&Event::Fetch(e));
        if self.armed && self.fault == Fault::PhantomFetchBurst && e.cluster == 0 {
            self.armed = false;
            for i in 0..=self.window_cap as u64 {
                self.inner.on(&Event::Fetch(FetchEvent {
                    uid: 1_000_000 + i,
                    ..e
                }));
            }
        }
        if self.armed && self.fault == Fault::ThreadTeleport && e.cluster == 0 {
            // The fetch just forwarded is in flight on this context, so a
            // depart right now is a migration that skipped the drain.
            if let Some(&tid) = self.slot_tid.get(&(e.cluster, e.thread)) {
                self.armed = false;
                self.inner.on(&Event::Migration(MigrationEvent {
                    cycle: e.cycle,
                    thread: tid,
                    cluster: e.cluster,
                    ctx: e.thread,
                    kind: MigrationEventKind::Depart,
                    wait: 0,
                }));
            }
        }
    }

    fn issue(&mut self, e: StageEvent) {
        self.inner.on(&Event::Issue(e));
        if self.armed {
            match self.fault {
                Fault::ClusterRelabel => {
                    self.armed = false;
                    self.inner.on(&Event::Issue(StageEvent {
                        cluster: self.n_clusters,
                        ..e
                    }));
                }
                Fault::IssueBurst if e.cluster == 0 => {
                    self.armed = false;
                    for _ in 0..self.issue_width {
                        self.inner.on(&Event::Issue(e));
                    }
                }
                _ => {}
            }
        }
    }

    fn commit(&mut self, e: StageEvent) {
        if self.armed && e.cluster == 0 {
            match self.fault {
                Fault::CommitDrop => {
                    self.armed = false;
                    return;
                }
                Fault::DoubleCommit => {
                    self.armed = false;
                    self.inner.on(&Event::Commit(e));
                    self.inner.on(&Event::Commit(e));
                    return;
                }
                Fault::CommitSwap => {
                    let Some(held) = self.held_commit else {
                        self.held_commit = Some(e);
                        return;
                    };
                    if self.threads.get(&e.uid) == self.threads.get(&held.uid) {
                        // Later same-thread commit found: release it first,
                        // then the held (earlier) one — out of order.
                        self.armed = false;
                        self.held_commit = None;
                        self.inner.on(&Event::Commit(e));
                        self.inner.on(&Event::Commit(held));
                    } else {
                        self.inner.on(&Event::Commit(e));
                    }
                    return;
                }
                _ => {}
            }
        }
        self.inner.on(&Event::Commit(e));
    }

    fn cache_access(&mut self, e: CacheEvent) {
        self.inner.on(&Event::Cache(e));
        if self.armed && self.fault == Fault::StoreFlood && e.write {
            self.armed = false;
            for _ in 0..self.store_cap {
                self.inner.on(&Event::Cache(CacheEvent {
                    complete_at: e.cycle + 100_000,
                    ..e
                }));
            }
        }
    }

    fn migration(&mut self, e: MigrationEvent) {
        if e.kind == MigrationEventKind::Attach {
            self.slot_tid.insert((e.cluster, e.ctx), e.thread);
            if self.armed {
                match self.fault {
                    Fault::AttachDrop => {
                        self.armed = false;
                        return;
                    }
                    Fault::AttachDup => {
                        self.armed = false;
                        self.inner.on(&Event::Migration(e));
                    }
                    _ => {}
                }
            }
        }
        self.inner.on(&Event::Migration(e));
    }

    fn rename_pools(&mut self, e: RenamePoolEvent) {
        if self.armed && self.fault == Fault::RenamePoolSkew {
            self.armed = false;
            self.inner.on(&Event::RenamePools(RenamePoolEvent {
                int_free: e.int_free + 1,
                ..e
            }));
            return;
        }
        self.inner.on(&Event::RenamePools(e));
    }

    fn cycle_end(&mut self, s: &CycleStats) {
        if self.armed {
            match self.fault {
                Fault::SlotSkim if s.slots > 0 => {
                    self.armed = false;
                    let mut skimmed = *s;
                    skimmed.wasted[0] += 1.0;
                    self.inner.on(&Event::CycleEnd(&skimmed));
                    return;
                }
                Fault::StatsRewind if s.committed > 0 => {
                    self.armed = false;
                    let mut rewound = *s;
                    rewound.committed -= 1;
                    self.inner.on(&Event::CycleEnd(&rewound));
                    return;
                }
                _ => {}
            }
        }
        self.inner.on(&Event::CycleEnd(s));
    }
}

/// Run mgrid on SMT2 (2-wide clusters, 2 contexts each — small enough to
/// be fast, multithreaded enough to exercise every event type) with the
/// given fault seeded.
fn run_with(fault: Fault) -> Result<VerifySummary, Vec<Violation>> {
    let chip = ArchKind::Smt2.chip();
    let app = by_name("mgrid").expect("mgrid is a registered app");
    let mut fi = FaultInjector::new(&chip, 1, fault);
    simulate_probed(&app, chip, 1, SCALE, SEED, MemConfig::table3(), &mut fi);
    fi.finish()
}

/// Assert the fault is caught and the target kind is among the reports.
fn caught(fault: Fault, kind: ViolationKind) {
    let errs = run_with(fault).expect_err("seeded fault must not verify clean");
    assert!(
        errs.iter().any(|v| v.kind == kind),
        "fault {:?}: wanted {:?} among {} violation(s), first few: {:#?}",
        fault,
        kind,
        errs.len(),
        &errs[..errs.len().min(4)]
    );
}

#[test]
fn control_run_is_clean() {
    let summary = run_with(Fault::None).expect("unmutated run must verify clean");
    assert!(summary.committed > 0);
    assert!(summary.cycles > 0);
}

#[test]
fn phantom_fetch_burst_trips_window_overflow() {
    caught(Fault::PhantomFetchBurst, ViolationKind::WindowOverflow);
}

#[test]
fn rename_pool_skew_trips_rename_conservation() {
    caught(Fault::RenamePoolSkew, ViolationKind::RenameConservation);
}

#[test]
fn commit_swap_trips_out_of_order_commit() {
    caught(Fault::CommitSwap, ViolationKind::OutOfOrderCommit);
}

#[test]
fn cluster_relabel_trips_cross_cluster() {
    caught(Fault::ClusterRelabel, ViolationKind::CrossCluster);
}

#[test]
fn slot_skim_trips_slot_conservation() {
    caught(Fault::SlotSkim, ViolationKind::SlotConservation);
}

#[test]
fn double_commit_trips_lifecycle_order() {
    caught(Fault::DoubleCommit, ViolationKind::LifecycleOrder);
}

#[test]
fn issue_burst_trips_issue_width() {
    caught(Fault::IssueBurst, ViolationKind::IssueWidthExceeded);
}

#[test]
fn commit_drop_trips_leak_at_drain() {
    caught(Fault::CommitDrop, ViolationKind::LeakedInstruction);
}

#[test]
fn store_flood_trips_store_buffer_overflow() {
    caught(Fault::StoreFlood, ViolationKind::StoreBufferOverflow);
}

#[test]
fn stats_rewind_trips_stats_regression() {
    caught(Fault::StatsRewind, ViolationKind::StatsRegression);
}

#[test]
fn thread_teleport_trips_migration_without_drain() {
    caught(Fault::ThreadTeleport, ViolationKind::MigrationWithoutDrain);
}

#[test]
fn attach_drop_trips_placement_conflict() {
    caught(Fault::AttachDrop, ViolationKind::PlacementConflict);
}

#[test]
fn attach_dup_trips_placement_conflict() {
    caught(Fault::AttachDup, ViolationKind::PlacementConflict);
}
