//! Whole-machine simulation driver.
//!
//! A [`Machine`] is one or more chips (each a set of clusters per
//! [`crate::configs::ChipConfig`]) over a shared [`MemorySystem`], plus the
//! parallel [`Runtime`]. The low-end machine of the paper is `chips = 1`
//! ("a simple workstation"); the high-end machine is `chips = 4` (the
//! DASH-like CC-NUMA of Figure 3).
//!
//! Software threads are placed by a pluggable [`ThreadScheduler`] (module
//! [`crate::sched`]). The default, [`StaticRoundRobin`], reproduces the
//! paper: thread *i* on chip `i / threads_per_chip`, cluster `i % clusters`
//! of that chip, the way an OS scheduler would spread work — and never
//! migrates. Dynamic policies may additionally move threads between
//! contexts at deterministic epochs; migration is drain-based (the context
//! is parked, in-flight work retires or is squashed, then the thread
//! spends [`MIGRATION_COST`] cycles in transit before resuming).

use std::collections::BTreeMap;

use crate::configs::ChipConfig;
use crate::result::RunResult;
use crate::runtime::{Action, Runtime, ThreadId};
use crate::sched::{
    Migration, SchedConfigError, SchedSnapshot, StaticRoundRobin, ThreadObs, ThreadScheduler,
    Topology, MIGRATION_COST,
};
use csmt_cpu::{Cluster, ClusterEvent, DetachedThread, ThreadState};
use csmt_isa::InstStream;
use csmt_mem::{MemConfig, MemorySystem};
use csmt_trace::{
    emit, CycleStats, Event, HostPhase, HostStopwatch, MigrationEvent, MigrationEventKind,
    NullProbe, Probe, SyncEvent, SyncEventKind, Wants,
};

/// Where a software thread lives: (chip, cluster-in-chip, context-in-cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Chip (= memory-system node) index.
    pub chip: usize,
    /// Cluster index within the chip.
    pub cluster: usize,
    /// Hardware context within the cluster.
    pub ctx: usize,
}

/// Round-robin placement of software thread `tid` on a machine of chips
/// with `clusters` clusters each and `threads_per_chip` contexts per chip:
/// thread *i* lands on chip `i / threads_per_chip`, cluster
/// `i % clusters` of that chip — the way an OS scheduler would spread
/// work. This is the arithmetic behind the default
/// [`StaticRoundRobin`](crate::sched::StaticRoundRobin) policy.
pub fn round_robin_placement(tid: ThreadId, clusters: usize, threads_per_chip: usize) -> Placement {
    let chip = tid / threads_per_chip;
    let within = tid % threads_per_chip;
    Placement {
        chip,
        cluster: within % clusters,
        ctx: within / clusters,
    }
}

/// A thread between contexts: detached from its source, not yet attached at
/// its destination.
struct Transit {
    tid: ThreadId,
    to: Placement,
    /// Earliest cycle the thread may attach at `to` (depart +
    /// [`MIGRATION_COST`]; it also waits for the destination to be free).
    ready_at: u64,
    /// Cycle the scheduler marked the thread for migration — the base of
    /// the `migration_wait_cycles` accounting.
    held_at: u64,
    detached: DetachedThread,
    /// State to resume in at the destination (`WaitingSync` flips to
    /// `Running` if the thread's barrier releases mid-flight).
    resume_as: ThreadState,
}

/// A complete machine ready to run a multithreaded application.
pub struct Machine {
    cfg: ChipConfig,
    /// All clusters of all chips, flat in chip-major order: the cluster
    /// at `(chip, k)` is index `chip * cfg.clusters() + k`, which is also
    /// the per-cycle iteration order. A chip itself has no other state —
    /// its L1/L2 live in the shared [`MemorySystem`] under its node index.
    clusters: Vec<Cluster>,
    /// Number of chips (= memory-system nodes).
    n_chips: usize,
    mem: MemorySystem,
    runtime: Runtime,
    placements: Vec<Placement>,
    /// Reverse map of `placements`: machine-global context slot → occupying
    /// software thread. Indexed by [`Machine::slot`]. Maintained on attach
    /// and on every migration; the single source of truth for `tid_at`.
    rev_map: Vec<Option<ThreadId>>,
    cycle: u64,
    /// Σ over cycles of the number of threads making progress (Fig 6).
    running_thread_cycles: u64,
    events_buf: Vec<ClusterEvent>,
    actions_buf: Vec<Action>,
    /// The thread-to-cluster allocation policy (see [`crate::sched`]).
    sched: Box<dyn ThreadScheduler + Send>,
    /// Cached `sched.is_dynamic()`: when false, the run loop skips all
    /// epoch/migration machinery and stays on the golden-digest path.
    sched_dynamic: bool,
    /// Threads currently between contexts, in departure order (the order
    /// determines arrival processing, so it is determinism-load-bearing).
    in_transit: Vec<Transit>,
    /// Index into `in_transit` by thread id: the hot event-processing
    /// path asks "is this thread in transit?" per resume action, which
    /// was a linear scan. Maintained by `transit_push`/`transit_remove`.
    in_transit_idx: BTreeMap<ThreadId, usize>,
    /// Per thread: destination and hold-cycle while its context drains
    /// toward a migration (`None` when not draining).
    migrate_dest: Vec<Option<(Placement, u64)>>,
    /// Cycle of the last scheduler epoch (quantum epochs fire at
    /// `last_epoch + quantum`).
    last_epoch: u64,
    /// Barrier-episode count at the last epoch (change ⇒ barrier epoch).
    prev_barrier_episodes: u64,
    /// Exited-thread count at the last epoch (change ⇒ exit epoch).
    prev_done_count: usize,
    /// Whether the initial-placement `Attach` probe events were emitted.
    attach_emitted: bool,
    /// Completed thread migrations.
    migrations: u64,
    /// Σ cycles from hold to destination resume, over completed migrations.
    migration_wait: u64,
    /// Σ useful-issue slots over all stepped cluster-cycles, folded from
    /// each cycle's [`csmt_cpu::CycleActivity`] delta. Exact integers, so
    /// `agg_useful as f64` is bit-identical to the historical per-cycle
    /// full-`SlotStats` merge (which summed per-cluster `f64` totals that
    /// are themselves exact integers below 2⁵³).
    agg_useful: u64,
    /// Σ committed instructions, same delta fold as `agg_useful`.
    agg_committed: u64,
}

impl Machine {
    /// Build a machine of `n_chips` chips of configuration `cfg` with the
    /// given memory hierarchy. `seed` controls all stochastic state. The
    /// machine starts with the paper's [`StaticRoundRobin`] placement;
    /// nothing here reads the process environment.
    pub fn new(cfg: ChipConfig, n_chips: usize, mem_cfg: MemConfig, seed: u64) -> Self {
        assert!(n_chips >= 1);
        let mut rng = csmt_isa::SplitMix64::new(seed);
        let mut clusters = Vec::with_capacity(n_chips * cfg.clusters());
        for c in 0..n_chips {
            for k in 0..cfg.clusters() {
                clusters.push(Cluster::new(
                    cfg.cluster(),
                    rng.fork((c * 64 + k) as u64).next_u64(),
                ));
            }
        }
        let max_cluster_events = cfg.cluster().hw_threads;
        let n_clusters = n_chips * cfg.clusters();
        Machine {
            cfg,
            clusters,
            n_chips,
            mem: MemorySystem::new(mem_cfg, n_chips, rng.fork(u64::MAX).next_u64()),
            runtime: Runtime::new(0),
            placements: Vec::new(),
            rev_map: vec![None; n_clusters * cfg.cluster().hw_threads],
            cycle: 0,
            running_thread_cycles: 0,
            events_buf: Vec::with_capacity(max_cluster_events),
            actions_buf: Vec::new(),
            sched: Box::new(StaticRoundRobin),
            sched_dynamic: false,
            in_transit: Vec::new(),
            in_transit_idx: BTreeMap::new(),
            migrate_dest: Vec::new(),
            last_epoch: 0,
            prev_barrier_episodes: 0,
            prev_done_count: 0,
            attach_emitted: false,
            migrations: 0,
            migration_wait: 0,
            agg_useful: 0,
            agg_committed: 0,
        }
    }

    /// The cluster at `(chip, cluster-in-chip)`.
    fn cluster_at(&self, chip: usize, cluster: usize) -> &Cluster {
        &self.clusters[chip * self.cfg.clusters() + cluster]
    }

    /// Mutable access to the cluster at `(chip, cluster-in-chip)`.
    fn cluster_at_mut(&mut self, chip: usize, cluster: usize) -> &mut Cluster {
        &mut self.clusters[chip * self.cfg.clusters() + cluster]
    }

    /// Whether `cfg` is a fixed-assignment (FA) architecture: one hardware
    /// context per cluster, so thread-to-cluster assignment is pinned by
    /// construction and migration is meaningless.
    pub(crate) fn fixed_assignment(cfg: &ChipConfig) -> bool {
        cfg.cluster().hw_threads == 1
    }

    /// Install a scheduling policy in place of the [`StaticRoundRobin`]
    /// every new machine starts with ([`crate::sched::for_chip`] resolves
    /// a policy *name* to one this accepts). Must be called before
    /// [`attach_threads`](Machine::attach_threads). Rejects configurations
    /// the machine refuses to run (a dynamic policy on a fixed-assignment
    /// architecture, a zero rebalance quantum).
    pub fn set_scheduler(
        &mut self,
        sched: Box<dyn ThreadScheduler + Send>,
    ) -> Result<(), SchedConfigError> {
        assert!(
            self.placements.is_empty(),
            "set_scheduler before attach_threads"
        );
        if sched.quantum() == Some(0) {
            return Err(SchedConfigError::ZeroQuantum);
        }
        if sched.is_dynamic() && Self::fixed_assignment(&self.cfg) {
            return Err(SchedConfigError::DynamicOnFixedAssignment);
        }
        self.sched_dynamic = sched.is_dynamic();
        self.sched = sched;
        Ok(())
    }

    /// Name of the active scheduling policy.
    pub fn scheduler_name(&self) -> &'static str {
        self.sched.name()
    }

    /// Completed thread migrations so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Machine shape, as scheduler policies see it.
    pub fn topology(&self) -> Topology {
        Topology {
            chips: self.n_chips,
            clusters_per_chip: self.cfg.clusters(),
            ctx_per_cluster: self.cfg.cluster().hw_threads,
        }
    }

    // Inert shims for the removed two-phase parallel step and the removed
    // machine-wide stall fast-forward (DESIGN §17), kept only because the
    // frozen `benchmark/` crate still calls them (`benchmark/src/layers.rs`,
    // `benchmark/src/main.rs`; DESIGN §3). Unfreezing the harness deletes
    // all three together with
    // `core.cycle_ns.active_parallel` / `core.par_over_serial`,
    // `core.cycle_ns.membound_ff` / `core.ff_over_stepped` (which read
    // ≈ `membound_stepped` / ≈ 1.0 in traced runs until then — per-layer,
    // not gated), the two env pins, `figs_pooled`'s "tapes" wording and
    // the "long stalls fast-forwarded" wording in `kernel_highend`'s
    // `why`; nothing inside the workspace may call them.
    #[doc(hidden)]
    pub fn set_parallel(&mut self, _on: bool) {}

    #[doc(hidden)]
    pub fn parallel(&self) -> bool {
        false
    }

    #[doc(hidden)]
    pub fn set_fastforward(&mut self, _on: bool) {}

    /// Total hardware thread contexts in the machine — the thread count the
    /// paper creates for each configuration ("we generate as many threads as
    /// are required by the processor", §4).
    pub fn hw_thread_capacity(&self) -> usize {
        self.n_chips * self.cfg.threads_per_chip()
    }

    /// Current placement of software thread `tid`. Reads the stored
    /// placement table (kept up to date across migrations), so it is only
    /// valid after [`attach_threads`](Machine::attach_threads); panics for
    /// unattached thread ids.
    pub fn placement_of(&self, tid: ThreadId) -> Placement {
        self.placements[tid]
    }

    /// Machine-global context-slot index of a placement (the `rev_map` key).
    fn slot(&self, p: Placement) -> usize {
        (p.chip * self.cfg.clusters() + p.cluster) * self.cfg.cluster().hw_threads + p.ctx
    }

    /// Attach the application's software threads (one stream per thread).
    /// Must be called exactly once, with at most `hw_thread_capacity()`
    /// threads.
    pub fn attach_threads(&mut self, streams: Vec<Box<dyn InstStream + Send>>) {
        let n = streams.len();
        self.attach_threads_grouped(streams.into_iter().map(|s| (s, 0)).collect());
        debug_assert_eq!(self.placements.len(), n);
    }

    /// Attach a multiprogrammed mix: each stream carries its program-group
    /// id; barriers and locks are scoped within a group (independent
    /// programs never synchronize with each other).
    pub fn attach_threads_grouped(&mut self, streams: Vec<(Box<dyn InstStream + Send>, usize)>) {
        assert!(self.placements.is_empty(), "threads already attached");
        assert!(!streams.is_empty());
        assert!(
            streams.len() <= self.hw_thread_capacity(),
            "{} threads exceed {} contexts",
            streams.len(),
            self.hw_thread_capacity()
        );
        self.runtime = Runtime::with_groups(streams.iter().map(|(_, g)| *g).collect());
        self.actions_buf.reserve(streams.len());
        self.migrate_dest = vec![None; streams.len()];
        let topo = self.topology();
        let placements = self.sched.initial_placement(streams.len(), &topo);
        assert_eq!(
            placements.len(),
            streams.len(),
            "scheduler must place every thread"
        );
        for (tid, (s, _)) in streams.into_iter().enumerate() {
            let p = placements[tid];
            assert!(
                p.chip < self.n_chips
                    && p.cluster < self.cfg.clusters()
                    && p.ctx < self.cfg.cluster().hw_threads,
                "initial placement {p:?} out of range"
            );
            self.cluster_at_mut(p.chip, p.cluster)
                .attach_thread(p.ctx, s);
            self.placements.push(p);
            let slot = self.slot(p);
            assert!(self.rev_map[slot].is_none(), "placement collision at {p:?}");
            self.rev_map[slot] = Some(tid);
        }
    }

    fn tid_at(&self, chip: usize, cluster: usize, ctx: usize) -> Option<ThreadId> {
        self.rev_map[self.slot(Placement { chip, cluster, ctx })]
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.step_probed(&mut NullProbe);
    }

    /// [`step`](Machine::step) with an observability probe attached.
    /// Clusters are identified in emitted events by their machine-global
    /// index (`chip * clusters_per_chip + cluster`). All probe work is
    /// gated on `P::WANTS`, so `step_probed::<NullProbe>`
    /// monomorphizes to exactly `step`.
    ///
    /// Each cluster steps in flat order against the live memory system,
    /// and its runtime events are processed before the next cluster
    /// steps.
    pub fn step_probed<P: Probe>(&mut self, probe: &mut P) {
        let now = self.cycle;
        let per_chip = self.cfg.clusters();
        for i in 0..self.clusters.len() {
            let chip_idx = i / per_chip;
            let cluster_idx = i % per_chip;
            self.events_buf.clear();
            let activity = self.clusters[i].step_probed(
                now,
                &mut self.mem,
                chip_idx,
                &mut self.events_buf,
                probe,
                i as u32,
            );
            self.agg_useful += u64::from(activity.useful);
            self.agg_committed += u64::from(activity.committed);
            for k in 0..self.events_buf.len() {
                let ev = self.events_buf[k];
                let (ctx, is_done, op) = match ev {
                    ClusterEvent::SyncReached { thread, op } => (thread, false, Some(op)),
                    ClusterEvent::ThreadDone { thread } => (thread, true, None),
                    ClusterEvent::MigrationDrained { thread } => {
                        self.detach_drained(chip_idx, cluster_idx, thread, now, probe);
                        continue;
                    }
                };
                let tid = self
                    .tid_at(chip_idx, cluster_idx, ctx)
                    .expect("event from unattached context");
                self.actions_buf.clear();
                if is_done {
                    self.runtime.thread_done(tid, &mut self.actions_buf);
                } else {
                    self.runtime
                        .sync_reached(tid, op.expect("sync"), &mut self.actions_buf);
                }
                emit(probe, Wants::INST, || {
                    Event::Sync(SyncEvent {
                        cycle: now,
                        thread: tid as u32,
                        kind: match op {
                            Some(op) => SyncEventKind::Reached(op),
                            None => SyncEventKind::Done,
                        },
                    })
                });
                for a in 0..self.actions_buf.len() {
                    let Action::Resume(t) = self.actions_buf[a];
                    if let Some(&ti) = self.in_transit_idx.get(&t) {
                        // Released while between contexts: arrive
                        // runnable instead of parked.
                        let tr = &mut self.in_transit[ti];
                        if tr.resume_as == ThreadState::WaitingSync {
                            tr.resume_as = ThreadState::Running;
                        }
                    } else {
                        let p = self.placements[t];
                        self.cluster_at_mut(p.chip, p.cluster).resume_thread(p.ctx);
                    }
                    emit(probe, Wants::INST, || {
                        Event::Sync(SyncEvent {
                            cycle: now,
                            thread: t as u32,
                            kind: SyncEventKind::Resumed,
                        })
                    });
                }
            }
        }
        // Per-cycle epilogue: running-thread accounting, the cycle
        // counter, and the end-of-cycle probe callback.
        let running: usize = self.clusters.iter().map(Cluster::running_threads).sum();
        self.running_thread_cycles += running as u64;
        self.cycle += 1;
        if P::WANTS.contains(Wants::CYCLE_STATS) {
            // Host self-profiling: the snapshot costs a wasted-slot fold
            // over every cluster, which the profiler reports as its own
            // `cycle_end` row (non-zero only when a stats-wanting probe
            // is composed in). Everything else in the snapshot comes
            // from O(1) machine-level running aggregates.
            let mut host = HostStopwatch::start::<P>();
            let mut wasted = [0.0f64; 7];
            for cl in &self.clusters {
                for (w, c) in wasted.iter_mut().zip(&cl.stats().wasted) {
                    *w += c;
                }
            }
            let stats = self.build_cycle_stats(wasted, running);
            host.lap(probe, HostPhase::CycleEnd);
            emit(probe, Wants::CYCLE_STATS, || Event::CycleEnd {
                cycle: now,
                stats: Some(&stats),
            });
        }
    }

    /// Assemble the end-of-cycle [`CycleStats`] snapshot from the folded
    /// per-cluster wasted-slot totals plus machine-level aggregates.
    ///
    /// Bit-for-bit identical to the historical full-`SlotStats` merge:
    /// `useful`/`committed` fold exact integer deltas (so `as f64`
    /// reproduces the old `f64` sum of exact integers), the wasted fold
    /// keeps the old cluster-major `f64` summation order, and
    /// `slots`/`cycles` are closed-form — every cluster records every
    /// machine cycle at the shared issue width.
    fn build_cycle_stats(&self, wasted: [f64; 7], running: usize) -> CycleStats {
        let (accesses, l1_hits, l2_hits, tlb_misses) = self.mem.cycle_counters();
        CycleStats {
            useful: self.agg_useful as f64,
            wasted,
            slots: (self.clusters.len() * self.cfg.cluster().issue_width) as u64 * self.cycle,
            cycles: self.cycle,
            committed: self.agg_committed,
            running_threads: running as u32,
            accesses,
            l1_hits,
            l2_hits,
            tlb_misses,
        }
    }

    /// Enter a transit record, keeping the by-tid index in sync.
    fn transit_push(&mut self, tr: Transit) {
        self.in_transit_idx.insert(tr.tid, self.in_transit.len());
        self.in_transit.push(tr);
    }

    /// Remove the transit record at position `i` (preserving the
    /// departure order of the rest), keeping the by-tid index in sync.
    fn transit_remove(&mut self, i: usize) -> Transit {
        let tr = self.in_transit.remove(i);
        self.in_transit_idx.remove(&tr.tid);
        for v in self.in_transit_idx.values_mut() {
            if *v > i {
                *v -= 1;
            }
        }
        tr
    }

    /// A held context finished draining: detach its thread and put it in
    /// transit. Only `Running`/`WrongPath` contexts drain asynchronously
    /// (parked states detach at the epoch itself), so the thread resumes
    /// `Running` at its destination.
    fn detach_drained<P: Probe>(
        &mut self,
        chip: usize,
        cluster: usize,
        ctx: usize,
        now: u64,
        probe: &mut P,
    ) {
        let tid = self
            .tid_at(chip, cluster, ctx)
            .expect("drain event from unattached context");
        let (to, held_at) = self.migrate_dest[tid]
            .take()
            .expect("drained context has no migration destination");
        let detached = self.cluster_at_mut(chip, cluster).detach_thread(ctx);
        self.depart(tid, to, held_at, ThreadState::Running, detached, now, probe);
    }

    /// Move a just-detached thread into transit and free its source slot.
    #[allow(clippy::too_many_arguments)]
    fn depart<P: Probe>(
        &mut self,
        tid: ThreadId,
        to: Placement,
        held_at: u64,
        resume_as: ThreadState,
        detached: DetachedThread,
        now: u64,
        probe: &mut P,
    ) {
        let from = self.placements[tid];
        let slot = self.slot(from);
        debug_assert_eq!(
            self.rev_map[slot],
            Some(tid),
            "reverse map out of sync at depart"
        );
        self.rev_map[slot] = None;
        self.transit_push(Transit {
            tid,
            to,
            ready_at: now + MIGRATION_COST,
            held_at,
            detached,
            resume_as,
        });
        emit(probe, Wants::SCHED, || {
            Event::Migration(MigrationEvent {
                cycle: now,
                thread: tid as u32,
                cluster: (from.chip * self.cfg.clusters() + from.cluster) as u32,
                ctx: from.ctx as u32,
                kind: MigrationEventKind::Depart,
                wait: 0,
            })
        });
    }

    /// Attach every in-transit thread whose transit delay has elapsed and
    /// whose destination context is free.
    fn process_arrivals<P: Probe>(&mut self, probe: &mut P) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.in_transit.len() {
            let due = self.in_transit[i].ready_at <= now
                && self.rev_map[self.slot(self.in_transit[i].to)].is_none();
            if !due {
                i += 1;
                continue;
            }
            let tr = self.transit_remove(i);
            let slot = self.slot(tr.to);
            self.cluster_at_mut(tr.to.chip, tr.to.cluster)
                .attach_migrated(tr.to.ctx, tr.detached, tr.resume_as);
            self.placements[tr.tid] = tr.to;
            self.rev_map[slot] = Some(tr.tid);
            self.migrations += 1;
            let wait = now - tr.held_at;
            self.migration_wait += wait;
            emit(probe, Wants::SCHED, || {
                Event::Migration(MigrationEvent {
                    cycle: now,
                    thread: tr.tid as u32,
                    cluster: (tr.to.chip * self.cfg.clusters() + tr.to.cluster) as u32,
                    ctx: tr.to.ctx as u32,
                    kind: MigrationEventKind::Arrive,
                    wait,
                })
            });
        }
    }

    /// Fire a scheduler epoch if one is due: quantum epochs at
    /// `last_epoch + quantum`, barrier/exit epochs when the runtime's
    /// barrier-episode or exited-thread counts changed since the last
    /// epoch. All triggers are simulated-time events, so epochs are
    /// deterministic for a given (policy, workload, seed).
    fn maybe_epoch<P: Probe>(&mut self, probe: &mut P) {
        let now = self.cycle;
        let mut fire = false;
        if let Some(q) = self.sched.quantum() {
            if now >= self.last_epoch + q {
                fire = true;
            }
        }
        if self.sched.wants_barrier_epochs() {
            let (barriers, _) = self.runtime.stats();
            if barriers != self.prev_barrier_episodes
                || self.runtime.done_count() != self.prev_done_count
            {
                fire = true;
            }
        }
        if !fire {
            return;
        }
        self.last_epoch = now;
        self.prev_barrier_episodes = self.runtime.stats().0;
        self.prev_done_count = self.runtime.done_count();
        let snap = self.snapshot();
        self.sched.observe(now, &snap);
        let requested = self.sched.rebalance(now, &snap);
        self.apply_migrations(requested, probe);
    }

    /// Deterministic machine snapshot for the scheduler. Built only at
    /// epoch boundaries, keeping its cost off the per-cycle path.
    fn snapshot(&self) -> SchedSnapshot {
        let topo = self.topology();
        let mut cluster_running = Vec::with_capacity(topo.n_clusters());
        for cl in &self.clusters {
            cluster_running.push(cl.running_threads());
        }
        let threads = (0..self.placements.len())
            .map(|tid| {
                let group = self.runtime.group_of(tid);
                let done = self.runtime.is_done(tid);
                if let Some(&ti) = self.in_transit_idx.get(&tid) {
                    let tr = &self.in_transit[ti];
                    ThreadObs {
                        tid,
                        placement: None,
                        state: ThreadState::Migrating,
                        committed: tr.detached.committed,
                        inflight: 0,
                        inflight_loads: 0,
                        group,
                        done,
                    }
                } else {
                    let p = self.placements[tid];
                    let cl = self.cluster_at(p.chip, p.cluster);
                    ThreadObs {
                        tid,
                        placement: Some(p),
                        state: cl.thread_state(p.ctx),
                        committed: cl.thread_committed(p.ctx),
                        inflight: cl.inflight(p.ctx),
                        inflight_loads: cl.inflight_loads(p.ctx),
                        group,
                        done,
                    }
                }
            })
            .collect();
        SchedSnapshot {
            cycle: self.cycle,
            threads,
            cluster_running,
            topo,
        }
    }

    /// Validate and start a batch of requested migrations. Policies are
    /// advisory: requests that are out of range, duplicated, aimed at a
    /// promised slot, or whose thread cannot migrate are dropped silently.
    /// A request into an occupied context survives only if the occupant
    /// itself migrates away in the same batch (a swap).
    fn apply_migrations<P: Probe>(&mut self, requested: Vec<Migration>, probe: &mut P) {
        if requested.is_empty() {
            return;
        }
        let now = self.cycle;
        let n = self.placements.len();
        // Slots already promised to an outstanding migration.
        let mut promised: Vec<usize> = self.in_transit.iter().map(|t| self.slot(t.to)).collect();
        promised.extend(
            self.migrate_dest
                .iter()
                .filter_map(|d| d.map(|(p, _)| self.slot(p))),
        );
        let mut accepted: Vec<Migration> = Vec::new();
        let mut in_batch = vec![false; n];
        for m in requested {
            if m.tid >= n
                || in_batch[m.tid]
                || m.to.chip >= self.n_chips
                || m.to.cluster >= self.cfg.clusters()
                || m.to.ctx >= self.cfg.cluster().hw_threads
            {
                continue;
            }
            if self.migrate_dest[m.tid].is_some() || self.in_transit_idx.contains_key(&m.tid) {
                continue;
            }
            let from = self.placements[m.tid];
            if from == m.to {
                continue;
            }
            let state = self
                .cluster_at(from.chip, from.cluster)
                .thread_state(from.ctx);
            if !matches!(
                state,
                ThreadState::Running
                    | ThreadState::WrongPath
                    | ThreadState::WaitingSync
                    | ThreadState::Done
            ) {
                continue;
            }
            let dest = self.slot(m.to);
            if promised.contains(&dest) || accepted.iter().any(|a| self.slot(a.to) == dest) {
                continue;
            }
            accepted.push(m);
            in_batch[m.tid] = true;
        }
        // A move into an occupied context needs the occupant to leave in
        // this batch; dropping one request can strand another, so filter
        // to a fixpoint. This guarantees every accepted destination
        // eventually frees, which keeps arrivals deadlock-free.
        loop {
            let movers: Vec<ThreadId> = accepted.iter().map(|a| a.tid).collect();
            let before = accepted.len();
            accepted.retain(|a| match self.rev_map[self.slot(a.to)] {
                None => true,
                Some(occupant) => movers.contains(&occupant),
            });
            if accepted.len() == before {
                break;
            }
        }
        for m in accepted {
            let from = self.placements[m.tid];
            let (state, drained) = {
                let cl = self.cluster_at_mut(from.chip, from.cluster);
                let state = cl.thread_state(from.ctx);
                if cl.hold_for_migration(from.ctx) {
                    // Already drained (parked states, or an empty
                    // window): detach immediately, preserving the
                    // parked state.
                    (state, Some(cl.detach_thread(from.ctx)))
                } else {
                    (state, None)
                }
            };
            if let Some(detached) = drained {
                let resume_as = match state {
                    ThreadState::WaitingSync => ThreadState::WaitingSync,
                    ThreadState::Done => ThreadState::Done,
                    _ => ThreadState::Running,
                };
                self.depart(m.tid, m.to, now, resume_as, detached, now, probe);
            } else {
                self.migrate_dest[m.tid] = Some((m.to, now));
            }
        }
    }

    /// True while any thread still has work.
    pub fn busy(&self) -> bool {
        !self.runtime.all_done()
            || !self.in_transit.is_empty()
            || self.clusters.iter().any(Cluster::busy)
    }

    /// Run to completion (or `max_cycles`), returning the collected result.
    /// Panics if the limit is hit — a limit hit means a deadlocked workload,
    /// which is a bug, not a datapoint.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.run_probed(max_cycles, &mut NullProbe)
    }

    /// [`run`](Machine::run) with an observability probe attached to every
    /// cycle. Callers owning a probe with buffered output (e.g.
    /// [`csmt_trace::IntervalSampler`]) should call its `finish()` after
    /// this returns to flush the trailing partial interval.
    pub fn run_probed<P: Probe>(&mut self, max_cycles: u64, probe: &mut P) -> RunResult {
        assert!(!self.placements.is_empty(), "attach_threads first");
        if P::WANTS.contains(Wants::SCHED) && !self.attach_emitted {
            // Initial placements, for probes tracking thread→context
            // ownership. Gated on the probe (not on the policy), so
            // ownership checkers work under the static policy too.
            self.attach_emitted = true;
            for tid in 0..self.placements.len() {
                let p = self.placements[tid];
                emit(probe, Wants::SCHED, || {
                    Event::Migration(MigrationEvent {
                        cycle: self.cycle,
                        thread: tid as u32,
                        cluster: (p.chip * self.cfg.clusters() + p.cluster) as u32,
                        ctx: p.ctx as u32,
                        kind: MigrationEventKind::Attach,
                        wait: 0,
                    })
                });
            }
        }
        while self.busy() {
            assert!(
                self.cycle < max_cycles,
                "simulation exceeded {max_cycles} cycles (deadlock?)"
            );
            if self.sched_dynamic {
                self.process_arrivals(probe);
                self.maybe_epoch(probe);
            }
            self.step_probed(probe);
        }
        self.result()
    }

    /// Snapshot the result so far (also valid mid-run).
    pub fn result(&self) -> RunResult {
        let mut slots = csmt_cpu::SlotStats::default();
        for cl in &self.clusters {
            slots.merge(cl.stats());
        }
        let mut mispredicts = 0;
        let mut lookups = 0;
        for cl in &self.clusters {
            let (l, m) = cl.bpred_stats();
            lookups += l;
            mispredicts += m;
        }
        let (barriers, lock_acqs) = self.runtime.stats();
        RunResult {
            arch: self.cfg.kind().name().to_string(),
            chips: self.n_chips,
            threads: self.placements.len(),
            cycles: self.cycle,
            slots,
            mem: self.mem.stats(),
            avg_running_threads: if self.cycle == 0 {
                0.0
            } else {
                self.running_thread_cycles as f64 / self.cycle as f64
            },
            branch_lookups: lookups,
            branch_mispredicts: mispredicts,
            barrier_episodes: barriers,
            lock_acquisitions: lock_acqs,
            migrations: self.migrations,
            migration_wait_cycles: self.migration_wait,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// State of software thread `tid` (`Migrating` while between contexts).
    pub fn thread_state(&self, tid: ThreadId) -> ThreadState {
        if self.in_transit_idx.contains_key(&tid) {
            return ThreadState::Migrating;
        }
        let p = self.placements[tid];
        self.cluster_at(p.chip, p.cluster).thread_state(p.ctx)
    }

    /// The shared memory system (for inspection in examples/tests).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::ArchKind;
    use csmt_isa::stream::VecStream;
    use csmt_isa::{ArchReg, DynInst, OpClass, SyncOp};

    fn simple_thread(
        n_ops: u64,
        barrier_first: bool,
        addr_base: u64,
    ) -> Box<dyn InstStream + Send> {
        let mut v = Vec::new();
        if barrier_first {
            v.push(DynInst::sync(0, SyncOp::Barrier(0)));
        }
        for i in 0..n_ops {
            v.push(DynInst::load(
                8 + i * 8,
                ArchReg::Fp(1),
                addr_base + (i * 8) % 4096,
                [None, None],
            ));
            v.push(DynInst::alu(
                12 + i * 8,
                OpClass::FpAdd,
                Some(ArchReg::Fp(2)),
                [Some(ArchReg::Fp(1)), None],
            ));
        }
        v.push(DynInst::sync(4, SyncOp::Barrier(1)));
        v.push(DynInst::sync(8, SyncOp::Exit));
        Box::new(VecStream::new(v))
    }

    #[test]
    fn placement_round_robins_across_clusters() {
        let cfg = ArchKind::Smt2.chip();
        let place = |tid| round_robin_placement(tid, cfg.clusters(), cfg.threads_per_chip());
        assert_eq!(
            place(0),
            Placement {
                chip: 0,
                cluster: 0,
                ctx: 0
            }
        );
        assert_eq!(
            place(1),
            Placement {
                chip: 0,
                cluster: 1,
                ctx: 0
            }
        );
        assert_eq!(
            place(2),
            Placement {
                chip: 0,
                cluster: 0,
                ctx: 1
            }
        );
        assert_eq!(
            place(7),
            Placement {
                chip: 0,
                cluster: 1,
                ctx: 3
            }
        );
    }

    #[test]
    fn placement_fills_chips_in_order() {
        let m = Machine::new(ArchKind::Fa2.chip(), 4, MemConfig::table3(), 1);
        assert_eq!(m.hw_thread_capacity(), 8);
        let cfg = ArchKind::Fa2.chip();
        let place = |tid| round_robin_placement(tid, cfg.clusters(), cfg.threads_per_chip());
        assert_eq!(
            place(2),
            Placement {
                chip: 1,
                cluster: 0,
                ctx: 0
            }
        );
        assert_eq!(
            place(5),
            Placement {
                chip: 2,
                cluster: 1,
                ctx: 0
            }
        );
    }

    #[test]
    fn stored_placements_match_round_robin_after_attach() {
        let mut m = Machine::new(ArchKind::Smt4.chip(), 1, MemConfig::table3(), 1);
        m.attach_threads((0..6).map(|i| simple_thread(2, false, i << 14)).collect());
        let cfg = ArchKind::Smt4.chip();
        for tid in 0..6 {
            let p = round_robin_placement(tid, cfg.clusters(), cfg.threads_per_chip());
            assert_eq!(m.placement_of(tid), p);
            assert_eq!(m.tid_at(p.chip, p.cluster, p.ctx), Some(tid));
        }
        // Unoccupied contexts map to no thread (SMT4 = 4 clusters × 2
        // contexts; 6 threads leave (0,2,1) and (0,3,1) empty).
        assert_eq!(m.tid_at(0, 2, 1), None);
        assert_eq!(m.tid_at(0, 3, 1), None);
    }

    #[test]
    fn two_threads_run_to_completion_through_a_shared_barrier() {
        let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 1);
        m.attach_threads(vec![
            simple_thread(50, false, 0),
            simple_thread(5, false, 65536),
        ]);
        let r = m.run(1_000_000);
        assert_eq!(r.threads, 2);
        assert!(r.cycles > 0);
        assert_eq!(r.barrier_episodes, 1);
        // 50-op thread and 5-op thread: the short one waits at barrier 1,
        // so sync slots must be visible.
        assert!(r.slots.wasted[csmt_cpu::Hazard::Sync.index()] > 0.0);
    }

    #[test]
    fn imbalanced_threads_expose_sync_hazard_growth() {
        let run_with = |short: u64| {
            let mut m = Machine::new(ArchKind::Fa8.chip(), 1, MemConfig::table3(), 1);
            m.attach_threads(
                (0..8)
                    .map(|i| simple_thread(if i == 0 { 400 } else { short }, false, i << 16))
                    .collect(),
            );
            m.run(10_000_000)
        };
        let balanced = run_with(400);
        let imbalanced = run_with(10);
        let sync_frac =
            |r: &RunResult| r.slots.wasted[csmt_cpu::Hazard::Sync.index()] / r.slots.slots as f64;
        assert!(
            sync_frac(&imbalanced) > sync_frac(&balanced) + 0.1,
            "imbalance must show as sync: {} vs {}",
            sync_frac(&imbalanced),
            sync_frac(&balanced)
        );
    }

    #[test]
    fn deterministic_machine_runs() {
        let run = || {
            let mut m = Machine::new(ArchKind::Smt4.chip(), 1, MemConfig::table3(), 33);
            m.attach_threads(
                (0..8)
                    .map(|i| simple_thread(60 + i * 3, true, i * 8192))
                    .collect(),
            );
            m.run(10_000_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn multichip_machine_generates_remote_traffic() {
        let mut m = Machine::new(ArchKind::Fa2.chip(), 4, MemConfig::table3(), 5);
        // 8 threads, all touching the same shared region ⇒ remote accesses.
        m.attach_threads((0..8).map(|_| simple_thread(100, false, 0)).collect());
        let r = m.run(10_000_000);
        assert!(r.mem.remote_mem + r.mem.remote_l2 > 0, "{:?}", r.mem);
    }

    /// Straight-line compute thread: no barriers, just work then exit.
    fn plain_thread(n_ops: u64, addr_base: u64) -> Box<dyn InstStream + Send> {
        let mut v = Vec::new();
        for i in 0..n_ops {
            v.push(DynInst::load(
                8 + i * 8,
                ArchReg::Fp(1),
                addr_base + (i * 8) % 4096,
                [None, None],
            ));
            v.push(DynInst::alu(
                12 + i * 8,
                OpClass::FpAdd,
                Some(ArchReg::Fp(2)),
                [Some(ArchReg::Fp(1)), None],
            ));
        }
        v.push(DynInst::sync(8, SyncOp::Exit));
        Box::new(VecStream::new(v))
    }

    #[test]
    fn barrier_rebalance_migrates_and_conserves_work() {
        // Odd threads (all placed round-robin on cluster 1 of SMT2) are
        // short; their exits leave cluster 1 idle while cluster 0 still
        // holds four live threads — exactly the imbalance BarrierRebalance
        // exists to fix.
        let run = |dynamic: bool| {
            let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 7);
            if dynamic {
                m.set_scheduler(Box::new(crate::sched::BarrierRebalance::default()))
                    .unwrap();
            }
            m.attach_threads(
                (0..8)
                    .map(|i| plain_thread(if i % 2 == 0 { 400 } else { 5 }, i << 16))
                    .collect(),
            );
            m.run(10_000_000)
        };
        let stat = run(false);
        let dynamic = run(true);
        assert_eq!(stat.migrations, 0);
        assert!(
            dynamic.migrations > 0,
            "uneven exits must trigger rebalancing"
        );
        assert!(dynamic.migration_wait_cycles >= dynamic.migrations * MIGRATION_COST);
        // Migration moves work, never creates or destroys it.
        assert_eq!(
            stat.slots.committed, dynamic.slots.committed,
            "committed instructions must be conserved across migrations"
        );
    }

    #[test]
    fn hazard_pairing_runs_deterministically() {
        let run = || {
            let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 9);
            m.set_scheduler(Box::new(crate::sched::HazardPairing::with_quantum(512)))
                .unwrap();
            m.attach_threads(
                (0..8)
                    .map(|i| simple_thread(120 + i * 7, false, i << 14))
                    .collect(),
            );
            m.run(10_000_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.migrations, b.migrations);
    }

    /// A serial chain of address-dependent loads striding past the page
    /// size (the machine_step bench workload): latency-bound, every load
    /// misses deep.
    fn serial_chain(tid: u64, n: u64) -> Box<dyn InstStream + Send> {
        let base = tid << 24;
        let mut v = Vec::with_capacity(n as usize + 1);
        for i in 0..n {
            v.push(DynInst::load(
                base + i * 4,
                ArchReg::Fp(1),
                base + i * (4096 + 64),
                [Some(ArchReg::Fp(1)), None],
            ));
        }
        v.push(DynInst::sync(base + n * 4, SyncOp::Exit));
        Box::new(VecStream::new(v))
    }

    #[test]
    fn migration_conserves_committed_work() {
        // The memory-bound bench workload under hazard pairing:
        // migrations must not create or destroy instructions.
        let run = |policy: Option<u64>| {
            let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 0xC5_317);
            if let Some(q) = policy {
                m.set_scheduler(Box::new(crate::sched::HazardPairing::with_quantum(q)))
                    .unwrap();
            }
            m.attach_threads((0..8).map(|t| serial_chain(t, 120)).collect());
            m.run(10_000_000)
        };
        let stat = run(None);
        let dynamic = run(Some(2048));
        assert_eq!(
            stat.slots.committed, dynamic.slots.committed,
            "migrations must conserve committed work"
        );
    }

    #[test]
    fn invalid_scheduler_configs_are_rejected() {
        let mut m = Machine::new(ArchKind::Fa4.chip(), 1, MemConfig::table3(), 1);
        assert_eq!(
            m.set_scheduler(Box::new(crate::sched::BarrierRebalance::default())),
            Err(crate::sched::SchedConfigError::DynamicOnFixedAssignment)
        );
        let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 1);
        assert_eq!(
            m.set_scheduler(Box::new(crate::sched::HazardPairing::with_quantum(0))),
            Err(crate::sched::SchedConfigError::ZeroQuantum)
        );
        // A valid dynamic policy on an SMT machine installs fine.
        assert_eq!(
            m.set_scheduler(Box::new(crate::sched::BarrierRebalance::default())),
            Ok(())
        );
        assert_eq!(m.scheduler_name(), "barrier");
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn over_attachment_is_rejected() {
        let mut m = Machine::new(ArchKind::Fa1.chip(), 1, MemConfig::table3(), 1);
        m.attach_threads(vec![simple_thread(1, false, 0), simple_thread(1, false, 0)]);
    }
}
