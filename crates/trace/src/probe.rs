//! The [`Probe`] trait, its event payloads, and structural composition.

use csmt_isa::{OpClass, ServicedBy, SyncOp};
use std::time::Instant;

/// An instruction entering the pipeline: fetched and renamed in one
/// cycle (the front end is single-cycle, see `ClusterConfig`).
#[derive(Debug, Clone, Copy)]
pub struct FetchEvent {
    /// Cycle the instruction was fetched.
    pub cycle: u64,
    /// Machine-global cluster index (chip-major).
    pub cluster: u32,
    /// Hardware context within the cluster.
    pub thread: u32,
    /// Cluster-local instruction sequence number; unique per cluster for
    /// the lifetime of the run. `(cluster, uid)` is machine-unique.
    pub uid: u64,
    /// Program counter.
    pub pc: u64,
    /// Operation class (carries latency/FU info via `csmt_isa`).
    pub op: OpClass,
    /// True if fetched down a mispredicted path (will be squashed).
    pub wrong_path: bool,
}

/// An already-fetched instruction advancing one pipeline stage (issue,
/// writeback, commit) or being squashed. `(cluster, uid)` keys back to
/// the [`FetchEvent`] that introduced it.
#[derive(Debug, Clone, Copy)]
pub struct StageEvent {
    /// Cycle the stage happened.
    pub cycle: u64,
    /// Machine-global cluster index.
    pub cluster: u32,
    /// Cluster-local sequence number from the fetch event.
    pub uid: u64,
}

/// One memory-hierarchy access (load issue or store commit).
#[derive(Debug, Clone, Copy)]
pub struct CacheEvent {
    /// Cycle the access entered the hierarchy.
    pub cycle: u64,
    /// NUMA node (chip) performing the access.
    pub node: u32,
    /// Physical address.
    pub addr: u64,
    /// True for stores.
    pub write: bool,
    /// Level that serviced the access.
    pub level: ServicedBy,
    /// True if the access also missed the TLB.
    pub tlb_miss: bool,
    /// Cycle the data becomes available.
    pub complete_at: u64,
}

/// What a software thread did at a synchronization point.
#[derive(Debug, Clone, Copy)]
pub enum SyncEventKind {
    /// Thread reached a synchronization operation and parked.
    Reached(SyncOp),
    /// Thread ran its stream to completion.
    Done,
    /// Runtime resumed the thread (barrier released / lock granted).
    Resumed,
}

/// A runtime-level synchronization event (§3.3 fork-join runtime).
#[derive(Debug, Clone, Copy)]
pub struct SyncEvent {
    /// Cycle the event was processed by the runtime.
    pub cycle: u64,
    /// Software thread id (machine-global).
    pub thread: u32,
    /// What happened.
    pub kind: SyncEventKind,
}

/// End-of-cycle snapshot of one cluster's renaming-register pools (Table 2
/// budgets), emitted on the [`Wants::POOL`] channel.
///
/// `free` counts registers in the free pool; `held` counts registers bound
/// to destinations of valid instruction-window entries. Register
/// conservation (`free + held == capacity`, per file) holds at every
/// snapshot — `csmt-verify`'s `InvariantProbe` checks exactly that.
/// `held` is two popcounts of the window's held masks (one bit a slot per
/// register file), which only install and release write, so it stays
/// evidence independent of the free counts. The count is cheap; the
/// snapshot keeps its own channel because it is one event per cluster per
/// cycle, a delivery cost only invariant checkers should pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamePoolEvent {
    /// Cycle the snapshot was taken (end of this cycle's pipeline phases).
    pub cycle: u64,
    /// Machine-global cluster index.
    pub cluster: u32,
    /// Integer renaming registers currently free.
    pub int_free: u32,
    /// FP renaming registers currently free.
    pub fp_free: u32,
    /// Integer registers held by valid window entries.
    pub int_held: u32,
    /// FP registers held by valid window entries.
    pub fp_held: u32,
}

/// What a [`MigrationEvent`] reports about a thread's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationEventKind {
    /// Thread bound to its initial context (emitted once per thread at the
    /// start of the run, so observers learn the placement map).
    Attach,
    /// Thread's context fully drained; the thread left the cluster and is
    /// in transit.
    Depart,
    /// Thread arrived at its destination context after the modeled
    /// migration latency.
    Arrive,
}

/// A thread-scheduler placement event (attach or migration), emitted on
/// the [`Wants::SCHED`] channel, which the golden determinism digests
/// hash too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationEvent {
    /// Cycle the event was processed by the machine loop.
    pub cycle: u64,
    /// Software thread id (machine-global).
    pub thread: u32,
    /// Machine-global cluster index the thread is bound to (for `Depart`,
    /// the cluster being left; for `Attach`/`Arrive`, the new home).
    pub cluster: u32,
    /// Hardware context within that cluster.
    pub ctx: u32,
    /// What happened.
    pub kind: MigrationEventKind,
    /// Cycles spent between leaving the old context and this event
    /// (non-zero only for `Arrive`: the modeled migration latency plus any
    /// wait for the destination context to free up).
    pub wait: u64,
}

/// A host-side simulator phase, for self-profiling where the *simulator*
/// (not the simulated machine) spends its wall-clock time. Reported as
/// [`Event::HostPhase`] on the [`Wants::HOST_PHASES`] channel.
///
/// `Memory` time is nested inside `Issue` (loads) and `Commit` (stores):
/// the memory hierarchy is entered from those two pipeline phases, so a
/// profiler summing all phases counts memory time twice unless it
/// subtracts the nested share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Completion: popping the wheel, wakeup, branch resolution.
    Complete,
    /// Per-thread in-order commit (includes store cache accesses).
    Commit,
    /// Oldest-first select + functional-unit issue (includes load
    /// cache accesses).
    Issue,
    /// Fetch/rename/dispatch.
    Fetch,
    /// §4.1 issue-slot accounting scan.
    Account,
    /// One memory-hierarchy access (nested inside `Issue` or `Commit`).
    Memory,
    /// End-of-cycle [`CycleStats`] snapshot assembly in the machine loop.
    CycleEnd,
}

impl HostPhase {
    /// All phases, in pipeline order (with the nested/epilogue phases
    /// last).
    pub const ALL: [HostPhase; 7] = [
        HostPhase::Complete,
        HostPhase::Commit,
        HostPhase::Issue,
        HostPhase::Fetch,
        HostPhase::Account,
        HostPhase::Memory,
        HostPhase::CycleEnd,
    ];

    /// Dense index for array-backed accumulators.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            HostPhase::Complete => 0,
            HostPhase::Commit => 1,
            HostPhase::Issue => 2,
            HostPhase::Fetch => 3,
            HostPhase::Account => 4,
            HostPhase::Memory => 5,
            HostPhase::CycleEnd => 6,
        }
    }

    /// Short lowercase name for report output.
    pub fn label(self) -> &'static str {
        match self {
            HostPhase::Complete => "complete",
            HostPhase::Commit => "commit",
            HostPhase::Issue => "issue",
            HostPhase::Fetch => "fetch",
            HostPhase::Account => "account",
            HostPhase::Memory => "memory",
            HostPhase::CycleEnd => "cycle_end",
        }
    }
}

/// Cumulative machine-level counters snapshotted at the end of a cycle.
///
/// All fields are running totals since cycle 0 (except
/// [`running_threads`](CycleStats::running_threads), which is
/// instantaneous); consumers that want per-interval figures difference
/// two snapshots, as [`IntervalSampler`](crate::IntervalSampler) does.
/// Slot conservation holds at every snapshot:
/// `useful + wasted.iter().sum() == slots` (up to float rounding),
/// which is what makes differenced hazard fractions sum to 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleStats {
    /// Issue slots that did useful (eventually committed) work.
    pub useful: f64,
    /// Wasted slots by hazard, legend order (`csmt_isa::Hazard::ALL`).
    pub wasted: [f64; 7],
    /// Total issue slots offered (`issue_width × cycles`, summed over
    /// clusters).
    pub slots: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Software threads currently running (instantaneous).
    pub running_threads: u32,
    /// Memory accesses entering the hierarchy.
    pub accesses: u64,
    /// Accesses serviced by L1.
    pub l1_hits: u64,
    /// Accesses serviced by L2 (incl. MSHR merges).
    pub l2_hits: u64,
    /// Accesses that missed the TLB.
    pub tlb_misses: u64,
}

/// A set of probe channels, as a bit-mask. Every [`Probe`] states the
/// channels it wants in one `const WANTS: Wants`, every [`Event`] belongs
/// to exactly one channel ([`Event::channel`]), and [`emit`] delivers an
/// event only when the probe's mask contains its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wants(u8);

impl Wants {
    /// No channel: the simulator compiles to the uninstrumented pipeline.
    pub const NONE: Wants = Wants(0);
    /// Per-instruction stage events ([`Event::Fetch`] … [`Event::Squash`])
    /// and runtime [`Event::Sync`] events.
    pub const INST: Wants = Wants(1 << 0);
    /// [`Event::Cache`] memory-hierarchy accesses.
    pub const CACHE: Wants = Wants(1 << 1);
    /// [`Event::CycleEnd`] with its [`CycleStats`] snapshot. Building the
    /// snapshot costs a pass over the clusters' stats every cycle.
    pub const CYCLE_STATS: Wants = Wants(1 << 2);
    /// Per-cluster [`Event::RenamePools`] snapshots each cycle: two
    /// popcounts of the window's held masks, but one event per cluster
    /// per cycle, which only invariant checkers want.
    pub const POOL: Wants = Wants(1 << 3);
    /// [`Event::HostPhase`] wall-clock reports around the simulator's own
    /// pipeline phases. [`HostStopwatch`] costs one clock read per phase
    /// boundary, which only the host self-profiler should pay.
    pub const HOST_PHASES: Wants = Wants(1 << 4);
    /// [`Event::Migration`] thread-placement events (initial attaches plus
    /// scheduler-driven migrations).
    pub const SCHED: Wants = Wants(1 << 5);

    /// The channels in either mask.
    #[must_use]
    pub const fn union(self, other: Wants) -> Wants {
        Wants(self.0 | other.0)
    }

    /// Whether every channel of `other` is in this mask.
    #[must_use]
    pub const fn contains(self, other: Wants) -> bool {
        self.0 & other.0 == other.0
    }
}

/// One observation from the simulator. The variants carry the payload
/// structs above; `'a` is the borrow of the end-of-cycle snapshot.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// Instruction fetched (and renamed) into a cluster's instruction
    /// window.
    Fetch(FetchEvent),
    /// Instruction issued to a functional unit.
    Issue(StageEvent),
    /// Instruction finished execution and wrote back.
    Writeback(StageEvent),
    /// Instruction retired.
    Commit(StageEvent),
    /// Instruction squashed by a branch misprediction.
    Squash(StageEvent),
    /// Memory access classified by the hierarchy.
    Cache(CacheEvent),
    /// Runtime synchronization event.
    Sync(SyncEvent),
    /// Per-cluster rename-pool snapshot at the end of a cycle.
    RenamePools(RenamePoolEvent),
    /// `nanos` of host wall-clock spent in one execution of `phase`. This
    /// is simulator self-profiling — it reports nothing about the
    /// simulated machine and is inherently non-deterministic across runs.
    HostPhase {
        /// The simulator phase that was timed.
        phase: HostPhase,
        /// Elapsed host nanoseconds.
        nanos: u64,
    },
    /// Thread attached to or migrated between hardware contexts.
    Migration(MigrationEvent),
    /// End of a machine cycle, with the cumulative machine counters at
    /// its end. The cycle that ended is `stats.cycles - 1`.
    CycleEnd(&'a CycleStats),
}

impl Event<'_> {
    /// The channel this event belongs to — the one place that ties an
    /// event to the [`Wants`] bit gating it.
    #[must_use]
    pub const fn channel(&self) -> Wants {
        match self {
            Event::Fetch(_)
            | Event::Issue(_)
            | Event::Writeback(_)
            | Event::Commit(_)
            | Event::Squash(_)
            | Event::Sync(_) => Wants::INST,
            Event::Cache(_) => Wants::CACHE,
            Event::RenamePools(_) => Wants::POOL,
            Event::HostPhase { .. } => Wants::HOST_PHASES,
            Event::Migration(_) => Wants::SCHED,
            Event::CycleEnd(_) => Wants::CYCLE_STATS,
        }
    }
}

/// Observer of simulator events.
///
/// A probe states the channels it wants and handles events in one
/// method, matching on the variants it cares about. The simulator never
/// calls [`on`](Probe::on) directly; every emission site is written as
///
/// ```ignore
/// emit(probe, Wants::INST, || Event::Commit(StageEvent { cycle, cluster, uid }));
/// ```
///
/// so for [`NullProbe`] ([`Wants::NONE`]) the event construction and the
/// call are both statically eliminated, and a probe only ever sees the
/// channels in its mask.
pub trait Probe {
    /// The channels this probe wants delivered.
    const WANTS: Wants;

    /// Handle one event of a wanted channel.
    fn on(&mut self, ev: &Event<'_>);
}

/// Deliver the event built by `make` to `probe` if `P` wants `channel`.
/// The test is on an associated const, so an unwanted channel costs
/// nothing — not even the event's construction.
#[inline]
pub fn emit<'a, P: Probe + ?Sized>(
    probe: &mut P,
    channel: Wants,
    make: impl FnOnce() -> Event<'a>,
) {
    if P::WANTS.contains(channel) {
        let ev = make();
        debug_assert_eq!(ev.channel(), channel, "{ev:?} emitted on the wrong channel");
        probe.on(&ev);
    }
}

/// Host self-profiling stopwatch: the simulator's only wall-clock read.
/// It runs only for a probe that wants [`Wants::HOST_PHASES`] and its
/// readings leave only as [`Event::HostPhase`], so host time cannot
/// reach simulated state; for every other probe `start` is `None` and
/// each `lap` folds to nothing.
#[derive(Debug)]
pub struct HostStopwatch(Option<Instant>);

#[expect(
    clippy::disallowed_methods,
    reason = "host self-profiling: gated on HOST_PHASES, readings feed Event::HostPhase only"
)]
impl HostStopwatch {
    /// Start timing if `P` wants host phases.
    #[inline]
    #[must_use]
    pub fn start<P: Probe + ?Sized>() -> Self {
        HostStopwatch(P::WANTS.contains(Wants::HOST_PHASES).then(Instant::now))
    }

    /// Report the host time since `start` (or the previous lap) as one
    /// execution of `phase`, and restart for the next phase.
    #[inline]
    pub fn lap<P: Probe + ?Sized>(&mut self, probe: &mut P, phase: HostPhase) {
        if let Some(t0) = self.0 {
            let now = Instant::now();
            emit(probe, Wants::HOST_PHASES, || Event::HostPhase {
                phase,
                nanos: now.duration_since(t0).as_nanos() as u64,
            });
            self.0 = Some(now);
        }
    }
}

/// The probe that observes nothing, so simulator code instantiated with
/// `NullProbe` compiles to the uninstrumented pipeline (verified by the
/// `probe_overhead` bench in `csmt-bench`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const WANTS: Wants = Wants::NONE;
    #[inline]
    fn on(&mut self, _ev: &Event<'_>) {}
}

impl<P: Probe + ?Sized> Probe for &mut P {
    const WANTS: Wants = P::WANTS;
    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        (**self).on(ev);
    }
}

/// `Option<P>` is a probe that forwards when `Some`. The mask is that of
/// `P` (statically — a `None` still pays the simulator's cost of building
/// the events, but not the probe's own work).
impl<P: Probe> Probe for Option<P> {
    const WANTS: Wants = P::WANTS;
    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        if let Some(p) = self {
            p.on(ev);
        }
    }
}

/// A pair of probes wants the union of its members' channels and hands
/// each member the events of the channels that member wants.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const WANTS: Wants = A::WANTS.union(B::WANTS);
    // Always inlined, so the channel test folds at each emit site.
    #[inline(always)]
    fn on(&mut self, ev: &Event<'_>) {
        let channel = ev.channel();
        if A::WANTS.contains(channel) {
            self.0.on(ev);
        }
        if B::WANTS.contains(channel) {
            self.1.on(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records how many events of each kind it saw.
    #[derive(Default)]
    struct Counter {
        fetches: u32,
        commits: u32,
        cycles: u32,
    }

    impl Probe for Counter {
        const WANTS: Wants = Wants::INST.union(Wants::CYCLE_STATS);
        fn on(&mut self, ev: &Event<'_>) {
            match ev {
                Event::Fetch(_) => self.fetches += 1,
                Event::Commit(_) => self.commits += 1,
                Event::CycleEnd(_) => self.cycles += 1,
                _ => {}
            }
        }
    }

    /// Wants exactly the channels in `MASK` and counts every delivery.
    #[derive(Default)]
    struct Tally<const MASK: u8>(u32);

    impl<const MASK: u8> Probe for Tally<MASK> {
        const WANTS: Wants = Wants(MASK);
        fn on(&mut self, _ev: &Event<'_>) {
            self.0 += 1;
        }
    }

    const CHANNELS: [Wants; 6] = [
        Wants::INST,
        Wants::CACHE,
        Wants::CYCLE_STATS,
        Wants::POOL,
        Wants::HOST_PHASES,
        Wants::SCHED,
    ];

    fn stage(cycle: u64) -> StageEvent {
        StageEvent {
            cycle,
            cluster: 0,
            uid: 1,
        }
    }

    fn fetch() -> FetchEvent {
        FetchEvent {
            cycle: 0,
            cluster: 0,
            thread: 0,
            uid: 0,
            pc: 0,
            op: csmt_isa::OpClass::IntAlu,
            wrong_path: false,
        }
    }

    /// One event of every variant.
    fn every_event(stats: &CycleStats) -> [Event<'_>; 11] {
        [
            Event::Fetch(fetch()),
            Event::Issue(stage(1)),
            Event::Writeback(stage(2)),
            Event::Commit(stage(3)),
            Event::Squash(stage(3)),
            Event::Cache(CacheEvent {
                cycle: 1,
                node: 0,
                addr: 0x40,
                write: false,
                level: ServicedBy::L2,
                tlb_miss: false,
                complete_at: 9,
            }),
            Event::Sync(SyncEvent {
                cycle: 4,
                thread: 0,
                kind: SyncEventKind::Done,
            }),
            Event::RenamePools(RenamePoolEvent {
                cycle: 1,
                cluster: 0,
                int_free: 10,
                fp_free: 12,
                int_held: 6,
                fp_held: 4,
            }),
            Event::HostPhase {
                phase: HostPhase::Issue,
                nanos: 250,
            },
            Event::Migration(MigrationEvent {
                cycle: 10,
                thread: 2,
                cluster: 1,
                ctx: 0,
                kind: MigrationEventKind::Arrive,
                wait: 100,
            }),
            Event::CycleEnd(stats),
        ]
    }

    /// Every event variant, through `emit`, into a probe wanting `MASK` —
    /// bare, behind `&mut`, in an `Option`, and on either side of a pair:
    /// one delivery per member whose mask contains the event's channel,
    /// none otherwise.
    fn check_delivery<const MASK: u8>() {
        // The other member of the mixed pair: a fixed two-channel mask.
        const OTHER: u8 = Wants::INST.union(Wants::POOL).0;
        assert_eq!(
            <(Tally<MASK>, Tally<OTHER>)>::WANTS,
            Wants(MASK).union(Wants(OTHER))
        );
        assert_eq!(<&mut Tally<MASK>>::WANTS, Wants(MASK));
        assert_eq!(<Option<Tally<MASK>>>::WANTS, Wants(MASK));

        let stats = CycleStats::default();
        for ev in every_event(&stats) {
            let ch = ev.channel();
            let mine = u32::from(Wants(MASK).contains(ch));
            let others = u32::from(Wants(OTHER).contains(ch));

            let mut p = Tally::<MASK>::default();
            emit(&mut p, ch, || ev);
            assert_eq!(p.0, mine, "bare, mask {MASK:#x}: {ev:?}");

            let mut p = Tally::<MASK>::default();
            emit(&mut &mut p, ch, || ev);
            assert_eq!(p.0, mine, "&mut, mask {MASK:#x}: {ev:?}");

            let mut p = Some(Tally::<MASK>::default());
            emit(&mut p, ch, || ev);
            assert_eq!(
                p.expect("still Some").0,
                mine,
                "Some, mask {MASK:#x}: {ev:?}"
            );

            let mut p: Option<Tally<MASK>> = None;
            emit(&mut p, ch, || ev);
            assert!(p.is_none());

            let mut p = (Tally::<MASK>::default(), NullProbe);
            emit(&mut p, ch, || ev);
            assert_eq!(p.0 .0, mine, "(P, Null), mask {MASK:#x}: {ev:?}");

            let mut p = (Tally::<OTHER>::default(), Tally::<MASK>::default());
            emit(&mut p, ch, || ev);
            assert_eq!(p.0 .0, others, "(Other, P).0, mask {MASK:#x}: {ev:?}");
            assert_eq!(p.1 .0, mine, "(Other, P).1, mask {MASK:#x}: {ev:?}");
        }
    }

    #[test]
    fn events_reach_exactly_the_members_that_want_their_channel() {
        check_delivery::<0>();
        check_delivery::<{ Wants::INST.0 }>();
        check_delivery::<{ Wants::CACHE.0 }>();
        check_delivery::<{ Wants::CYCLE_STATS.0 }>();
        check_delivery::<{ Wants::POOL.0 }>();
        check_delivery::<{ Wants::HOST_PHASES.0 }>();
        check_delivery::<{ Wants::SCHED.0 }>();
        check_delivery::<0x3f>();
    }

    #[test]
    fn channel_bits_are_distinct_and_every_one_has_an_event() {
        assert_eq!(NullProbe::WANTS, Wants::NONE);
        let mut all = Wants::NONE;
        for ch in CHANNELS {
            assert_eq!(ch.0.count_ones(), 1, "{ch:?} is one bit");
            assert!(!all.contains(ch), "{ch:?} reuses a bit");
            all = all.union(ch);
        }
        let stats = CycleStats::default();
        let mut covered = Wants::NONE;
        for ev in every_event(&stats) {
            assert!(CHANNELS.contains(&ev.channel()), "{ev:?}");
            covered = covered.union(ev.channel());
        }
        assert_eq!(covered, all);
    }

    #[test]
    fn host_stopwatch_laps_only_for_probes_that_want_host_phases() {
        #[derive(Default)]
        struct Phases(Vec<HostPhase>);
        impl Probe for Phases {
            const WANTS: Wants = Wants::HOST_PHASES;
            fn on(&mut self, ev: &Event<'_>) {
                if let Event::HostPhase { phase, .. } = ev {
                    self.0.push(*phase);
                }
            }
        }
        let mut on = Phases::default();
        let mut sw = HostStopwatch::start::<Phases>();
        sw.lap(&mut on, HostPhase::Complete);
        sw.lap(&mut on, HostPhase::Commit);
        assert_eq!(on.0, [HostPhase::Complete, HostPhase::Commit]);

        // Every channel but HOST_PHASES: never started, nothing delivered.
        let mut off = Tally::<{ !Wants::HOST_PHASES.0 }>::default();
        let mut sw = HostStopwatch::start::<Tally<{ !Wants::HOST_PHASES.0 }>>();
        assert!(sw.0.is_none());
        sw.lap(&mut off, HostPhase::Complete);
        assert_eq!(off.0, 0);
    }

    #[test]
    fn host_phase_index_matches_all_order() {
        for (i, phase) in HostPhase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i, "{}", phase.label());
        }
        // Labels are unique (they key report tables and JSON objects).
        for (i, a) in HostPhase::ALL.iter().enumerate() {
            for b in HostPhase::ALL.iter().skip(i + 1) {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn pair_forwards_to_both_members() {
        let mut pair = (Counter::default(), Counter::default());
        pair.on(&Event::Commit(stage(3)));
        pair.on(&Event::Commit(stage(4)));
        pair.on(&Event::CycleEnd(&CycleStats::default()));
        assert_eq!(pair.0.commits, 2);
        assert_eq!(pair.1.commits, 2);
        assert_eq!(pair.0.cycles, 1);
    }

    #[test]
    fn option_forwards_only_when_some() {
        let mut none: Option<Counter> = None;
        none.on(&Event::Commit(stage(0)));
        let mut some = Some(Counter::default());
        some.on(&Event::Commit(stage(0)));
        assert_eq!(some.unwrap().commits, 1);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counter::default();
        <&mut Counter as Probe>::on(&mut &mut c, &Event::Fetch(fetch()));
        assert_eq!(c.fetches, 1);
        assert_eq!(<&mut Counter>::WANTS, Counter::WANTS);
    }
}
