//! The [`InvariantProbe`]: a [`Probe`] that re-derives the pipeline's
//! structural state from the event stream and checks, cycle by cycle, that
//! the machine never leaves the envelope the paper's Table 2 budgets and
//! §3.1/§4.1 semantics define.
//!
//! Checked invariants (see DESIGN.md §9 for the paper citations):
//!
//! * **Lifecycle order** — every `(cluster, uid)` moves strictly through
//!   fetch → rename → issue → writeback → commit (or is squashed after
//!   rename), with no stage repeated, skipped, or applied to a retired or
//!   never-fetched instruction.
//! * **In-order commit** — per `(cluster, hardware thread)`, committed
//!   uids are strictly increasing (§3.1: "instructions are committed on a
//!   per-thread basis", in order).
//! * **Window occupancy** — in-flight instructions per cluster never
//!   exceed the Table 2 IQ/ROB entry budget.
//! * **Issue width** — per cluster per cycle, issue events never exceed
//!   the cluster's issue width.
//! * **Rename conservation** — per cluster and register file,
//!   `free + held == pool` at every end-of-cycle snapshot
//!   ([`RenamePoolEvent`], the `Wants::POOL` channel).
//! * **Store-buffer bound** — committed stores still in flight per node
//!   never exceed `clusters/chip × store_buffer`.
//! * **Slot conservation** — `useful + Σ wasted == slots` in every
//!   [`CycleStats`] snapshot (§4.1 accounting), and the cumulative
//!   counters advance monotonically with the right per-cycle slot delta.
//! * **Drain** — at end of run, `fetched == committed + squashed` and no
//!   instruction is left in flight.
//! * **Cluster confinement** — no event references a cluster the machine
//!   does not have, or an instruction its cluster never fetched (the
//!   observable signature of a wakeup crossing a cluster boundary).
//! * **Confinement between migrations** — once migration events identify
//!   context ownership (the probe latches *sched-aware* on the first
//!   [`MigrationEvent`]), a thread departs only from a context it owns and
//!   only after a full drain, arrives only at a free context and only
//!   after a matching depart, and no context fetches without an owner.

use csmt_core::{ChipConfig, CHIP_ISSUE_WIDTH};
use csmt_trace::{
    CacheEvent, CycleStats, Event, FetchEvent, InstMirror, MigrationEvent, MigrationEventKind,
    Misstep, Probe, RenamePoolEvent, StageEvent, Step, Wants,
};
use std::fmt;

/// The class of invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A cluster held more in-flight instructions than its Table 2
    /// IQ/ROB budget.
    WindowOverflow,
    /// A rename-pool snapshot where `free + held != pool`.
    RenameConservation,
    /// More committed-but-in-flight stores on a node than its clusters'
    /// store buffers can hold.
    StoreBufferOverflow,
    /// More issue events in one cluster-cycle than the issue width.
    IssueWidthExceeded,
    /// A hardware thread committed a lower uid after a higher one.
    OutOfOrderCommit,
    /// A stage event out of fetch → rename → issue → writeback →
    /// commit/squash order (skipped, repeated, or after retirement).
    LifecycleOrder,
    /// An event referencing a cluster/node outside the machine, or an
    /// instruction its cluster never fetched — a wakeup or event that
    /// crossed a cluster boundary.
    CrossCluster,
    /// A [`CycleStats`] snapshot where `useful + Σ wasted != slots`.
    SlotConservation,
    /// Cumulative [`CycleStats`] counters that regressed, skipped, or
    /// disagree with the observed event stream.
    StatsRegression,
    /// An instruction fetched but neither committed nor squashed by the
    /// end of the run.
    LeakedInstruction,
    /// A thread left (or appeared at) a context in violation of the
    /// drain-based migration protocol: departing with instructions still
    /// in flight, arriving without a matching depart, or still in transit
    /// when the run drained.
    MigrationWithoutDrain,
    /// Context ownership broke: two threads on one context, a depart by a
    /// non-owner, or activity on a context no thread owns.
    PlacementConflict,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One invariant violation, with enough context to localize it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Cycle of the offending event (or last cycle, for drain checks).
    pub cycle: u64,
    /// Machine-global cluster index, when the event carries one.
    pub cluster: Option<u32>,
    /// Hardware context within the cluster, when known.
    pub thread: Option<u32>,
    /// Cluster-local instruction uid, when the event carries one.
    pub uid: Option<u64>,
    /// Human-readable specifics (observed vs. budget, stage seen, …).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.kind, self.cycle)?;
        if let Some(c) = self.cluster {
            write!(f, " cluster {c}")?;
        }
        if let Some(t) = self.thread {
            write!(f, " thread {t}")?;
        }
        if let Some(u) = self.uid {
            write!(f, " uid {u}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Totals reported by [`InvariantProbe::finish`] on a clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifySummary {
    /// Machine cycles observed (cycle_end calls).
    pub cycles: u64,
    /// Instructions fetched, summed over clusters (wrong path included).
    pub fetched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions squashed.
    pub squashed: u64,
    /// Probe events processed.
    pub events: u64,
}

/// One cluster's budgets and the state the checker keeps beside the
/// instruction mirror.
struct ClusterState {
    window_cap: usize,
    issue_width: usize,
    /// Size of each renaming pool (int and FP are equal, Table 2).
    rename_regs: u64,
    hw_threads: u32,
    /// Context → owning software thread, tracked once sched-aware.
    owner: Vec<Option<u32>>,
    /// Last committed uid per hardware thread (0 = none yet).
    last_commit: Vec<u64>,
    /// Cycle the issue counter below belongs to.
    issue_cycle: u64,
    issued_this_cycle: usize,
    fetched: u64,
    committed: u64,
    squashed: u64,
}

/// Mirror of one node's store buffer: completed-store drain times.
struct NodeState {
    cap: usize,
    pending: Vec<u64>,
}

/// The invariant checker. Attach it (alone or in a probe tuple) to any
/// `*_probed` entry point, run the simulation, then call
/// [`finish`](InvariantProbe::finish).
pub struct InvariantProbe {
    clusters: Vec<ClusterState>,
    /// Every in-flight instruction's stage and context.
    mirror: InstMirror,
    nodes: Vec<NodeState>,
    /// Issue slots the whole machine offers per cycle.
    machine_slots: u64,
    thread_capacity: u32,
    prev_stats: Option<CycleStats>,
    commit_events: u64,
    cycles: u64,
    last_cycle: u64,
    events: u64,
    violations: Vec<Violation>,
    /// Violations beyond the cap, counted but not stored.
    dropped: u64,
    /// Latched on the first migration event: from then on context
    /// ownership is tracked and fetch on an unowned context is flagged.
    sched_aware: bool,
    /// Software threads currently between contexts (departed, not yet
    /// arrived).
    in_transit: Vec<u32>,
}

/// Cap on stored violations: a genuinely broken pipeline violates
/// invariants every cycle, and the first few are the informative ones.
const MAX_STORED: usize = 1024;

impl InvariantProbe {
    /// A checker for `n_chips` chips of configuration `chip`. It records
    /// every violation (up to a cap) and keeps simulating; the caller
    /// inspects [`finish`](InvariantProbe::finish).
    pub fn new(chip: &ChipConfig, n_chips: usize) -> Self {
        let c = chip.cluster();
        let clusters = (0..chip.clusters() * n_chips)
            .map(|_| ClusterState {
                window_cap: c.window_entries(),
                issue_width: c.issue_width,
                rename_regs: c.rename_regs() as u64,
                hw_threads: c.hw_threads as u32,
                owner: vec![None; c.hw_threads],
                last_commit: vec![0; c.hw_threads],
                issue_cycle: u64::MAX,
                issued_this_cycle: 0,
                fetched: 0,
                committed: 0,
                squashed: 0,
            })
            .collect();
        let nodes = (0..n_chips)
            .map(|_| NodeState {
                cap: chip.clusters() * c.store_buffer,
                pending: Vec::new(),
            })
            .collect();
        InvariantProbe {
            clusters,
            mirror: InstMirror::new(),
            nodes,
            machine_slots: (CHIP_ISSUE_WIDTH * n_chips) as u64,
            thread_capacity: (chip.threads_per_chip() * n_chips) as u32,
            prev_stats: None,
            commit_events: 0,
            cycles: 0,
            last_cycle: 0,
            events: 0,
            violations: Vec::new(),
            dropped: 0,
            sched_aware: false,
            in_transit: Vec::new(),
        }
    }

    /// Violations recorded so far (empty on a clean run).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no invariant has broken.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Run the end-of-run drain checks and consume the checker: `Ok` with
    /// run totals when every invariant held, `Err` with the collected
    /// violations otherwise.
    pub fn finish(mut self) -> Result<VerifySummary, Vec<Violation>> {
        let last = self.last_cycle;
        if !self.in_transit.is_empty() {
            let threads = std::mem::take(&mut self.in_transit);
            self.violations.push(Violation {
                kind: ViolationKind::MigrationWithoutDrain,
                cycle: last,
                cluster: None,
                thread: threads.first().copied(),
                uid: None,
                detail: format!("thread(s) {threads:?} still in transit at drain"),
            });
        }
        for (i, c) in self.clusters.iter().enumerate() {
            let leaked = self.mirror.len(i);
            if leaked > 0 {
                let uids: Vec<u64> = self
                    .mirror
                    .in_flight(i)
                    .map(|(uid, _)| uid)
                    .take(4)
                    .collect();
                let v = Violation {
                    kind: ViolationKind::LeakedInstruction,
                    cycle: last,
                    cluster: Some(i as u32),
                    thread: None,
                    uid: uids.first().copied(),
                    detail: format!(
                        "{leaked} instruction(s) still in flight at drain (first uids {uids:?})"
                    ),
                };
                self.violations.push(v);
            }
            if c.fetched != c.committed + c.squashed {
                let v = Violation {
                    kind: ViolationKind::LeakedInstruction,
                    cycle: last,
                    cluster: Some(i as u32),
                    thread: None,
                    uid: None,
                    detail: format!(
                        "fetched {} != committed {} + squashed {}",
                        c.fetched, c.committed, c.squashed
                    ),
                };
                self.violations.push(v);
            }
        }
        if self.violations.is_empty() && self.dropped == 0 {
            Ok(VerifySummary {
                cycles: self.cycles,
                fetched: self.clusters.iter().map(|c| c.fetched).sum(),
                committed: self.clusters.iter().map(|c| c.committed).sum(),
                squashed: self.clusters.iter().map(|c| c.squashed).sum(),
                events: self.events,
            })
        } else {
            Err(self.violations)
        }
    }

    fn record(&mut self, v: Violation) {
        if self.violations.len() < MAX_STORED {
            self.violations.push(v);
        } else {
            self.dropped += 1;
        }
    }

    /// Bounds-check a cluster index; records [`ViolationKind::CrossCluster`]
    /// and returns `None` when it points outside the machine.
    fn cluster_checked(&mut self, cycle: u64, cluster: u32, uid: Option<u64>) -> Option<usize> {
        if (cluster as usize) < self.clusters.len() {
            Some(cluster as usize)
        } else {
            let n = self.clusters.len();
            self.record(Violation {
                kind: ViolationKind::CrossCluster,
                cycle,
                cluster: Some(cluster),
                thread: None,
                uid,
                detail: format!("event references cluster {cluster}, machine has {n}"),
            });
            None
        }
    }

    /// Apply a stage event to the mirror, flagging the events it has no
    /// instruction for: a uid above the cluster's fetch horizon was never
    /// fetched *here* (the signature of a cross-cluster wakeup); one at or
    /// below it has already retired.
    fn step(
        &mut self,
        stage: &'static str,
        ev: &Event<'_>,
        e: StageEvent,
    ) -> Option<(usize, Step<()>)> {
        let ci = self.cluster_checked(e.cycle, e.cluster, Some(e.uid))?;
        let (kind, detail) = match self.mirror.on(ev) {
            Ok(step) => return step.map(|s| (ci, s)),
            Err(Misstep::NeverFetched { horizon }) => (
                ViolationKind::CrossCluster,
                format!(
                    "{stage} of an instruction this cluster never fetched \
                     (fetch horizon {horizon}) — wakeup across a cluster boundary?"
                ),
            ),
            Err(Misstep::Retired | Misstep::Refetch { .. }) => (
                ViolationKind::LifecycleOrder,
                format!("{stage} of an already-retired instruction"),
            ),
        };
        self.record(Violation {
            kind,
            cycle: e.cycle,
            cluster: Some(e.cluster),
            thread: None,
            uid: Some(e.uid),
            detail,
        });
        None
    }

    /// Flag a stage event the mirror found out of lifecycle order.
    fn out_of_order(&mut self, e: StageEvent, step: &Step<()>, what: &str) {
        if !step.in_order {
            self.record(Violation {
                kind: ViolationKind::LifecycleOrder,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(step.inst.thread),
                uid: Some(e.uid),
                detail: format!("{what} {}", step.inst.stage.label()),
            });
        }
    }
}

impl Probe for InvariantProbe {
    const WANTS: Wants = Wants::INST
        .union(Wants::CACHE)
        .union(Wants::CYCLE_STATS)
        .union(Wants::POOL)
        .union(Wants::SCHED);

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::Fetch(e) => self.fetch(e),
            Event::Rename(e) => self.rename(e),
            Event::Issue(e) => self.issue(e),
            Event::Writeback(e) => self.writeback(e),
            Event::Commit(e) => self.commit(e),
            Event::Squash(e) => self.squash(e),
            Event::Cache(e) => self.cache_access(e),
            Event::Sync(e) => self.sync_event(e),
            Event::RenamePools(e) => self.rename_pools(e),
            Event::Migration(e) => self.migration(e),
            Event::CycleEnd { cycle, stats } => self.cycle_end(cycle, stats),
            _ => {}
        }
    }
}

/// The per-event checks behind [`Probe::on`].
impl InvariantProbe {
    fn fetch(&mut self, e: FetchEvent) {
        self.events += 1;
        let Some(ci) = self.cluster_checked(e.cycle, e.cluster, Some(e.uid)) else {
            return;
        };
        let hw = self.clusters[ci].hw_threads;
        if e.thread >= hw {
            self.record(Violation {
                kind: ViolationKind::CrossCluster,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(e.thread),
                uid: Some(e.uid),
                detail: format!("fetch for context {} of {hw}", e.thread),
            });
            return;
        }
        if self.sched_aware && self.clusters[ci].owner[e.thread as usize].is_none() {
            self.record(Violation {
                kind: ViolationKind::PlacementConflict,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(e.thread),
                uid: Some(e.uid),
                detail: "fetch on a context no software thread owns".to_string(),
            });
        }
        if let Err(Misstep::Refetch { last }) = self.mirror.on(&Event::Fetch(e)) {
            self.record(Violation {
                kind: ViolationKind::LifecycleOrder,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(e.thread),
                uid: Some(e.uid),
                detail: format!("fetch uid not strictly increasing (last was {last})"),
            });
            return;
        }
        self.clusters[ci].fetched += 1;
        let (occ, cap) = (self.mirror.len(ci), self.clusters[ci].window_cap);
        if occ > cap {
            self.record(Violation {
                kind: ViolationKind::WindowOverflow,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(e.thread),
                uid: Some(e.uid),
                detail: format!("window occupancy {occ} exceeds Table 2 budget {cap}"),
            });
        }
    }

    fn rename(&mut self, e: StageEvent) {
        self.events += 1;
        if let Some((_, step)) = self.step("rename", &Event::Rename(e), e) {
            self.out_of_order(e, &step, "rename of an instruction already");
        }
    }

    fn issue(&mut self, e: StageEvent) {
        self.events += 1;
        let Some((ci, step)) = self.step("issue", &Event::Issue(e), e) else {
            return;
        };
        let c = &mut self.clusters[ci];
        if e.cycle != c.issue_cycle {
            c.issue_cycle = e.cycle;
            c.issued_this_cycle = 0;
        }
        c.issued_this_cycle += 1;
        let (n, w) = (c.issued_this_cycle, c.issue_width);
        if n > w {
            self.record(Violation {
                kind: ViolationKind::IssueWidthExceeded,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(step.inst.thread),
                uid: Some(e.uid),
                detail: format!("{n} issues in one cycle on a {w}-issue cluster"),
            });
        }
        self.out_of_order(e, &step, "issue of an instruction already");
    }

    fn writeback(&mut self, e: StageEvent) {
        self.events += 1;
        if let Some((_, step)) = self.step("writeback", &Event::Writeback(e), e) {
            self.out_of_order(e, &step, "writeback of an instruction");
        }
    }

    fn commit(&mut self, e: StageEvent) {
        self.events += 1;
        self.commit_events += 1;
        let Some((ci, step)) = self.step("commit", &Event::Commit(e), e) else {
            return;
        };
        self.out_of_order(e, &step, "commit of an instruction only");
        let thread = step.inst.thread;
        let c = &mut self.clusters[ci];
        c.committed += 1;
        let last = c.last_commit[thread as usize];
        if e.uid <= last {
            self.record(Violation {
                kind: ViolationKind::OutOfOrderCommit,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(thread),
                uid: Some(e.uid),
                detail: format!("commit after uid {last} of the same thread"),
            });
        } else {
            c.last_commit[thread as usize] = e.uid;
        }
    }

    fn squash(&mut self, e: StageEvent) {
        self.events += 1;
        if let Some((ci, _)) = self.step("squash", &Event::Squash(e), e) {
            self.clusters[ci].squashed += 1;
        }
    }

    fn migration(&mut self, e: MigrationEvent) {
        self.events += 1;
        self.sched_aware = true;
        let Some(ci) = self.cluster_checked(e.cycle, e.cluster, None) else {
            return;
        };
        let hw = self.clusters[ci].hw_threads;
        if e.ctx >= hw || e.thread >= self.thread_capacity {
            let cap = self.thread_capacity;
            self.record(Violation {
                kind: ViolationKind::CrossCluster,
                cycle: e.cycle,
                cluster: Some(e.cluster),
                thread: Some(e.thread),
                uid: None,
                detail: format!(
                    "migration event for context {} of {hw} / thread {} of {cap}",
                    e.ctx, e.thread
                ),
            });
            return;
        }
        let ctx = e.ctx as usize;
        match e.kind {
            MigrationEventKind::Attach => {
                if let Some(owner) = self.clusters[ci].owner[ctx] {
                    self.record(Violation {
                        kind: ViolationKind::PlacementConflict,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: format!("attach to a context already owned by thread {owner}"),
                    });
                }
                self.clusters[ci].owner[ctx] = Some(e.thread);
            }
            MigrationEventKind::Depart => {
                match self.clusters[ci].owner[ctx] {
                    Some(owner) if owner == e.thread => self.clusters[ci].owner[ctx] = None,
                    Some(owner) => self.record(Violation {
                        kind: ViolationKind::PlacementConflict,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: format!("depart from a context owned by thread {owner}"),
                    }),
                    None => self.record(Violation {
                        kind: ViolationKind::PlacementConflict,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: "depart from a context no thread owns".to_string(),
                    }),
                }
                let inflight: Vec<u64> = self
                    .mirror
                    .in_flight(ci)
                    .filter(|(_, inst)| inst.thread == e.ctx)
                    .map(|(uid, _)| uid)
                    .take(4)
                    .collect();
                if !inflight.is_empty() {
                    self.record(Violation {
                        kind: ViolationKind::MigrationWithoutDrain,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: inflight.first().copied(),
                        detail: format!(
                            "departed with instruction(s) still in flight (first uids {inflight:?})"
                        ),
                    });
                }
                if self.in_transit.contains(&e.thread) {
                    self.record(Violation {
                        kind: ViolationKind::MigrationWithoutDrain,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: "depart of a thread already in transit".to_string(),
                    });
                } else {
                    self.in_transit.push(e.thread);
                }
            }
            MigrationEventKind::Arrive => {
                if self.in_transit.contains(&e.thread) {
                    self.in_transit.retain(|&t| t != e.thread);
                } else {
                    self.record(Violation {
                        kind: ViolationKind::MigrationWithoutDrain,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: "arrival without a matching depart (teleport)".to_string(),
                    });
                }
                if let Some(owner) = self.clusters[ci].owner[ctx] {
                    self.record(Violation {
                        kind: ViolationKind::PlacementConflict,
                        cycle: e.cycle,
                        cluster: Some(e.cluster),
                        thread: Some(e.thread),
                        uid: None,
                        detail: format!("arrival at a context owned by thread {owner}"),
                    });
                }
                self.clusters[ci].owner[ctx] = Some(e.thread);
            }
        }
    }

    fn cache_access(&mut self, e: CacheEvent) {
        self.events += 1;
        if (e.node as usize) >= self.nodes.len() {
            let n = self.nodes.len();
            self.record(Violation {
                kind: ViolationKind::CrossCluster,
                cycle: e.cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!("cache access on node {}, machine has {n}", e.node),
            });
            return;
        }
        if e.complete_at < e.cycle {
            self.record(Violation {
                kind: ViolationKind::LifecycleOrder,
                cycle: e.cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!(
                    "access completes at {} before it starts at {}",
                    e.complete_at, e.cycle
                ),
            });
        }
        if !e.write {
            return;
        }
        // Mirror the store buffers' drain rule: entries with
        // `complete_at <= now` leave at the next commit phase.
        let node = &mut self.nodes[e.node as usize];
        node.pending.retain(|&t| t > e.cycle);
        node.pending.push(e.complete_at);
        let (occ, cap) = (node.pending.len(), node.cap);
        if occ > cap {
            self.record(Violation {
                kind: ViolationKind::StoreBufferOverflow,
                cycle: e.cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!(
                    "{occ} committed stores in flight on node {}, buffers hold {cap}",
                    e.node
                ),
            });
        }
    }

    fn sync_event(&mut self, e: csmt_trace::SyncEvent) {
        self.events += 1;
        if e.thread >= self.thread_capacity {
            let cap = self.thread_capacity;
            self.record(Violation {
                kind: ViolationKind::CrossCluster,
                cycle: e.cycle,
                cluster: None,
                thread: Some(e.thread),
                uid: None,
                detail: format!("sync event for software thread {} of {cap}", e.thread),
            });
        }
    }

    fn rename_pools(&mut self, e: RenamePoolEvent) {
        self.events += 1;
        let Some(ci) = self.cluster_checked(e.cycle, e.cluster, None) else {
            return;
        };
        let c = &self.clusters[ci];
        for (file, free, held, pool) in [
            ("int", e.int_free, e.int_held, c.rename_regs),
            ("fp", e.fp_free, e.fp_held, c.rename_regs),
        ] {
            if u64::from(free) + u64::from(held) != pool {
                self.record(Violation {
                    kind: ViolationKind::RenameConservation,
                    cycle: e.cycle,
                    cluster: Some(e.cluster),
                    thread: None,
                    uid: None,
                    detail: format!(
                        "{file} rename registers: {free} free + {held} held != pool of {pool}"
                    ),
                });
            }
        }
    }

    fn cycle_end(&mut self, cycle: u64, stats: Option<&CycleStats>) {
        self.events += 1;
        self.cycles += 1;
        self.last_cycle = cycle;
        let Some(s) = stats else { return };
        let wasted: f64 = s.wasted.iter().sum();
        let total = s.useful + wasted;
        let tol = 1e-6 * (s.slots.max(1) as f64);
        if (total - s.slots as f64).abs() > tol {
            self.record(Violation {
                kind: ViolationKind::SlotConservation,
                cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!(
                    "useful {:.3} + wasted {:.3} != {} slots offered",
                    s.useful, wasted, s.slots
                ),
            });
        }
        if s.committed != self.commit_events {
            let seen = self.commit_events;
            self.record(Violation {
                kind: ViolationKind::StatsRegression,
                cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!(
                    "stats say {} committed, event stream delivered {seen}",
                    s.committed
                ),
            });
        }
        if s.running_threads > self.thread_capacity {
            let cap = self.thread_capacity;
            self.record(Violation {
                kind: ViolationKind::StatsRegression,
                cycle,
                cluster: None,
                thread: None,
                uid: None,
                detail: format!("{} running threads, capacity {cap}", s.running_threads),
            });
        }
        if let Some(p) = self.prev_stats {
            let mut bad: Vec<String> = Vec::new();
            if s.cycles != p.cycles + 1 {
                bad.push(format!("cycles {} -> {}", p.cycles, s.cycles));
            }
            if s.slots != p.slots + self.machine_slots {
                bad.push(format!(
                    "slots {} -> {} (machine offers {}/cycle)",
                    p.slots, s.slots, self.machine_slots
                ));
            }
            if s.useful + 1e-9 < p.useful {
                bad.push(format!("useful {} -> {}", p.useful, s.useful));
            }
            for (name, prev, now) in [
                ("committed", p.committed, s.committed),
                ("accesses", p.accesses, s.accesses),
                ("l1_hits", p.l1_hits, s.l1_hits),
                ("l2_hits", p.l2_hits, s.l2_hits),
                ("tlb_misses", p.tlb_misses, s.tlb_misses),
            ] {
                if now < prev {
                    bad.push(format!("{name} {prev} -> {now}"));
                }
            }
            for detail in bad {
                self.record(Violation {
                    kind: ViolationKind::StatsRegression,
                    cycle,
                    cluster: None,
                    thread: None,
                    uid: None,
                    detail: format!("cumulative counter went backwards: {detail}"),
                });
            }
        }
        self.prev_stats = Some(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_core::ArchKind;

    fn probe() -> InvariantProbe {
        InvariantProbe::new(&ArchKind::Smt2.chip(), 1)
    }

    fn fetch(cycle: u64, cluster: u32, thread: u32, uid: u64) -> FetchEvent {
        FetchEvent {
            cycle,
            cluster,
            thread,
            uid,
            pc: 0x1000 + uid * 4,
            op: csmt_isa::OpClass::IntAlu,
            wrong_path: false,
        }
    }

    fn stage(cycle: u64, cluster: u32, uid: u64) -> StageEvent {
        StageEvent {
            cycle,
            cluster,
            uid,
        }
    }

    /// Push one instruction through its full legal lifecycle.
    fn retire(p: &mut InvariantProbe, cycle: u64, uid: u64) {
        p.fetch(fetch(cycle, 0, 0, uid));
        p.rename(stage(cycle, 0, uid));
        p.issue(stage(cycle + 1, 0, uid));
        p.writeback(stage(cycle + 2, 0, uid));
        p.commit(stage(cycle + 3, 0, uid));
    }

    #[test]
    fn clean_lifecycle_is_clean() {
        let mut p = probe();
        retire(&mut p, 1, 1);
        retire(&mut p, 2, 2);
        assert!(p.is_clean(), "{:?}", p.violations());
        let s = p.finish().expect("clean");
        assert_eq!((s.fetched, s.committed, s.squashed), (2, 2, 0));
    }

    #[test]
    fn squash_resolves_an_instruction() {
        let mut p = probe();
        p.fetch(fetch(1, 0, 0, 1));
        p.rename(stage(1, 0, 1));
        p.squash(stage(2, 0, 1));
        assert!(p.finish().is_ok());
    }

    #[test]
    fn out_of_order_commit_is_flagged() {
        let mut p = probe();
        for uid in [1u64, 2] {
            p.fetch(fetch(1, 0, 0, uid));
            p.rename(stage(1, 0, uid));
            p.issue(stage(2, 0, uid));
            p.writeback(stage(3, 0, uid));
        }
        p.commit(stage(4, 0, 2));
        p.commit(stage(4, 0, 1));
        assert_eq!(p.violations()[0].kind, ViolationKind::OutOfOrderCommit);
    }

    #[test]
    fn never_fetched_uid_reads_as_cross_cluster() {
        let mut p = probe();
        p.issue(stage(1, 0, 99));
        assert_eq!(p.violations()[0].kind, ViolationKind::CrossCluster);
    }

    /// The in-flight ring answers "absent" three ways — below its base,
    /// in a retired slot inside its span, past its end — and the fetch
    /// horizon, not the ring, decides which verdict each gets.
    #[test]
    fn stage_events_at_the_ring_edges_keep_their_verdicts() {
        let mut p = probe();
        retire(&mut p, 1, 1);
        p.fetch(fetch(2, 0, 0, 2));
        p.fetch(fetch(2, 0, 1, 3));
        p.fetch(fetch(2, 0, 0, 4));
        p.rename(stage(2, 0, 3));
        p.squash(stage(3, 0, 3)); // uid 3 retires between live 2 and 4
        assert!(p.is_clean(), "{:?}", p.violations());
        p.issue(stage(4, 0, 1)); // below the ring's base
        p.issue(stage(4, 0, 3)); // a retired slot inside the span
        p.issue(stage(4, 0, 5)); // one past the newest fetch
        p.issue(stage(4, 0, 0)); // uids start at 1
        let got: Vec<(ViolationKind, Option<u64>)> =
            p.violations().iter().map(|v| (v.kind, v.uid)).collect();
        assert_eq!(
            got,
            [
                (ViolationKind::LifecycleOrder, Some(1)),
                (ViolationKind::LifecycleOrder, Some(3)),
                (ViolationKind::CrossCluster, Some(5)),
                (ViolationKind::CrossCluster, Some(0)),
            ]
        );
        assert!(p.violations()[..2]
            .iter()
            .all(|v| v.detail.contains("already-retired")));
    }

    #[test]
    fn skipped_stage_is_flagged() {
        let mut p = probe();
        p.fetch(fetch(1, 0, 0, 1));
        p.rename(stage(1, 0, 1));
        p.commit(stage(2, 0, 1)); // no issue/writeback
        assert_eq!(p.violations()[0].kind, ViolationKind::LifecycleOrder);
    }

    #[test]
    fn leaked_instruction_caught_at_drain() {
        let mut p = probe();
        p.fetch(fetch(1, 0, 0, 1));
        p.rename(stage(1, 0, 1));
        let errs = p.finish().unwrap_err();
        assert!(errs
            .iter()
            .any(|v| v.kind == ViolationKind::LeakedInstruction));
    }

    #[test]
    fn rename_conservation_checked_per_file() {
        let mut p = probe();
        p.rename_pools(RenamePoolEvent {
            cycle: 5,
            cluster: 1,
            int_free: 60,
            fp_free: 64,
            int_held: 4,
            fp_held: 1, // 64 free + 1 held != 64
        });
        let v = &p.violations()[0];
        assert_eq!(v.kind, ViolationKind::RenameConservation);
        assert!(v.detail.contains("fp"), "{v}");
    }

    fn mig(
        cycle: u64,
        thread: u32,
        cluster: u32,
        ctx: u32,
        kind: MigrationEventKind,
    ) -> MigrationEvent {
        MigrationEvent {
            cycle,
            thread,
            cluster,
            ctx,
            kind,
            wait: 0,
        }
    }

    #[test]
    fn migration_protocol_clean_roundtrip() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        p.migration(mig(0, 1, 1, 0, MigrationEventKind::Attach));
        p.migration(mig(100, 0, 0, 0, MigrationEventKind::Depart));
        p.migration(mig(200, 0, 1, 1, MigrationEventKind::Arrive));
        assert!(p.is_clean(), "{:?}", p.violations());
        assert!(p.finish().is_ok());
    }

    #[test]
    fn teleport_arrival_is_flagged() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        // Thread 1 appears at a context with no prior depart.
        p.migration(mig(50, 1, 1, 2, MigrationEventKind::Arrive));
        assert_eq!(p.violations()[0].kind, ViolationKind::MigrationWithoutDrain);
        assert!(p.violations()[0].detail.contains("teleport"));
    }

    #[test]
    fn depart_with_inflight_work_is_flagged() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        p.fetch(fetch(1, 0, 0, 1)); // context 0 now has uid 1 in flight
        p.migration(mig(2, 0, 0, 0, MigrationEventKind::Depart));
        assert!(
            p.violations()
                .iter()
                .any(|v| v.kind == ViolationKind::MigrationWithoutDrain
                    && v.detail.contains("in flight")),
            "{:?}",
            p.violations()
        );
    }

    #[test]
    fn depart_by_non_owner_is_placement_conflict() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        p.migration(mig(10, 3, 0, 0, MigrationEventKind::Depart));
        assert_eq!(p.violations()[0].kind, ViolationKind::PlacementConflict);
    }

    #[test]
    fn arrival_at_owned_context_is_placement_conflict() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        p.migration(mig(0, 1, 1, 0, MigrationEventKind::Attach));
        p.migration(mig(10, 0, 0, 0, MigrationEventKind::Depart));
        p.migration(mig(120, 0, 1, 0, MigrationEventKind::Arrive)); // thread 1 lives there
        assert!(p
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::PlacementConflict));
    }

    #[test]
    fn fetch_on_unowned_context_is_flagged_once_sched_aware() {
        let mut p = probe();
        // Not sched-aware yet: fetch on any context is fine.
        p.fetch(fetch(1, 0, 1, 1));
        assert!(p.is_clean());
        p.migration(mig(2, 0, 0, 0, MigrationEventKind::Attach));
        // Now ownership is tracked: context 1 of cluster 0 has no owner.
        p.fetch(fetch(3, 0, 1, 2));
        assert!(p
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::PlacementConflict
                && v.detail.contains("no software thread owns")));
    }

    #[test]
    fn thread_still_in_transit_at_drain_is_flagged() {
        let mut p = probe();
        p.migration(mig(0, 0, 0, 0, MigrationEventKind::Attach));
        p.migration(mig(10, 0, 0, 0, MigrationEventKind::Depart));
        let errs = p.finish().unwrap_err();
        assert!(errs
            .iter()
            .any(|v| v.kind == ViolationKind::MigrationWithoutDrain
                && v.detail.contains("in transit at drain")));
    }
}
