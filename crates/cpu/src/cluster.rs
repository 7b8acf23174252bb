//! One SMT cluster: fetch → rename/dispatch → window → issue → execute →
//! commit, with per-thread in-order retirement and wrong-path fetch after
//! branch mispredictions.
//!
//! The window doubles as the reorder buffer, as in the paper's description
//! of the centralized SMT ("instructions from different threads are held in
//! a common 128-entry associative instruction window from where they may be
//! issued in any order. Finally, instructions are committed on a per-thread
//! basis"); Table 2 gives one entry count for "Instruction Queue & Reorder
//! buffer".
//!
//! This type is a façade: it owns the per-stage state and drives the
//! per-cycle phase order; the stage logic lives in [`crate::pipeline`].

use crate::bpred::BranchPredictor;
use crate::config::ClusterConfig;
use crate::fu::FuPool;
use crate::pipeline::lsq::StoreBuffer;
use crate::pipeline::regs::{EState, Regs, ThreadCtx};
use crate::pipeline::rename::RenamePools;
use crate::pipeline::window::Window;
use crate::pipeline::{commit, fetch, regs};
use crate::stats::{CycleActivity, SlotStats, StallShares};
use csmt_isa::{InstStream, SyncOp};
use csmt_mem::MemorySystem;
use csmt_trace::{emit, Event, HostPhase, HostStopwatch, NullProbe, Probe, RenamePoolEvent, Wants};

pub use crate::pipeline::regs::ThreadState;

/// Events the cluster reports to the parallel runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// `thread` has drained at a sync operation and is now spinning.
    SyncReached {
        /// Hardware context index within this cluster.
        thread: usize,
        /// The operation (barrier / lock / exit marker).
        op: SyncOp,
    },
    /// `thread` finished its program (drained past an `Exit`).
    ThreadDone {
        /// Hardware context index within this cluster.
        thread: usize,
    },
    /// A context held for migration has fully drained its in-flight work
    /// and can be detached. Emitted once: the machine detaches the context
    /// (making it `Idle`) while processing this event.
    MigrationDrained {
        /// Hardware context index within this cluster.
        thread: usize,
    },
}

/// The architectural state of a software thread detached from a cluster
/// context mid-run, carried to its destination by the machine's thread
/// scheduler. Microarchitectural state (window entries, rename mappings,
/// store buffer) never travels: the context is fully drained first.
pub struct DetachedThread {
    /// The thread's remaining instruction stream.
    pub stream: Option<Box<dyn InstStream + Send>>,
    /// An instruction fetched but not yet installed (rename-stalled at
    /// detach time); replayed first at the destination.
    pub pending: Option<csmt_isa::DynInst>,
    /// Instructions committed so far, restored at the destination so
    /// per-thread commit counts stay cumulative across migrations.
    pub committed: u64,
}

/// One cluster pipeline. See the crate docs for the per-cycle phases.
pub struct Cluster {
    cfg: ClusterConfig,
    regs: Regs,
    win: Window,
    rename: RenamePools,
    lsq: StoreBuffer,
    fu: FuPool,
    bpred: BranchPredictor,
    /// Contexts making progress, recounted at the end of every stepped
    /// cycle and by every mutator (a skipped cycle changes no state).
    running: usize,
    span: Option<Span>,
}

/// A stall span: a step moved nothing (see [`Cluster::step_probed`]), so
/// every cycle before `until` — the completion wheel's next due cycle —
/// would move nothing either and charges exactly what that step charged.
struct Span {
    until: u64,
    shares: StallShares,
    /// What the span froze, re-checked every skipped cycle.
    #[cfg(any(test, debug_assertions))]
    weights: [f64; 7],
    #[cfg(any(test, debug_assertions))]
    states: Vec<ThreadState>,
}

impl Cluster {
    /// Build a cluster from its Table 2 budget. `seed` derives per-thread
    /// wrong-path generators deterministically.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        let mut rng = csmt_isa::SplitMix64::new(seed);
        Cluster {
            regs: Regs::new(
                (0..cfg.hw_threads)
                    .map(|i| ThreadCtx::new(rng.fork(i as u64).next_u64(), cfg.window_entries()))
                    .collect(),
            ),
            win: Window::new(cfg.window_entries(), cfg.hw_threads),
            rename: RenamePools::new(cfg.rename_regs(), cfg.rename_regs()),
            lsq: StoreBuffer::new(cfg.store_buffer),
            fu: FuPool::new(cfg.fu_counts()),
            bpred: BranchPredictor::with_kind(cfg.predictor),
            cfg,
            running: 0,
            span: None,
        }
    }

    /// Called by every mutator: a state change from outside ends the
    /// stall span and may move the running count.
    fn touched(&mut self) {
        self.span = None;
        self.running = self.count_running();
    }

    fn count_running(&self) -> usize {
        self.regs
            .threads
            .iter()
            .filter(|t| {
                matches!(
                    t.state,
                    ThreadState::Running
                        | ThreadState::WrongPath
                        | ThreadState::Draining
                        | ThreadState::Migrating
                )
            })
            .count()
    }

    /// Attach a software thread's instruction stream to context `ctx`.
    pub fn attach_thread(&mut self, ctx: usize, stream: Box<dyn InstStream + Send>) {
        let t = &mut self.regs.threads[ctx];
        assert_eq!(t.state, ThreadState::Idle, "context already in use");
        t.stream = Some(stream);
        t.state = ThreadState::Running;
        self.touched();
    }

    /// Resume a thread parked at a sync point (barrier released / lock
    /// granted). The runtime calls this.
    pub fn resume_thread(&mut self, ctx: usize) {
        let t = &mut self.regs.threads[ctx];
        assert_eq!(
            t.state,
            ThreadState::WaitingSync,
            "resume of non-waiting thread"
        );
        t.state = ThreadState::Running;
        self.touched();
    }

    /// Current state of context `ctx`.
    pub fn thread_state(&self, ctx: usize) -> ThreadState {
        self.regs.threads[ctx].state
    }

    /// Mark context `ctx` for migration. The thread stops fetching;
    /// correct-path in-flight work drains through commit (wrong-path work
    /// is squashed by normal branch resolution), after which the cluster
    /// reports [`ClusterEvent::MigrationDrained`]. Returns `true` if the
    /// context is already drained (caller may detach immediately — no
    /// event will be emitted).
    ///
    /// Valid from `Running`, `WrongPath`, `WaitingSync` and `Done` (a
    /// parked or finished thread detaches trivially). `Draining` contexts
    /// cannot be held: they owe the runtime a sync report first.
    pub fn hold_for_migration(&mut self, ctx: usize) -> bool {
        let t = &mut self.regs.threads[ctx];
        assert!(
            matches!(
                t.state,
                ThreadState::Running
                    | ThreadState::WrongPath
                    | ThreadState::WaitingSync
                    | ThreadState::Done
            ),
            "cannot migrate a context in state {:?}",
            t.state
        );
        t.state = ThreadState::Migrating;
        let drained = t.fifo.is_empty();
        self.touched();
        drained
    }

    /// Detach the software thread held at context `ctx` (state
    /// `Migrating`, fully drained), returning its architectural state and
    /// resetting the context to `Idle`. The wrong-path generator stays
    /// with the hardware context, like the branch predictor.
    pub fn detach_thread(&mut self, ctx: usize) -> DetachedThread {
        let t = &mut self.regs.threads[ctx];
        assert_eq!(
            t.state,
            ThreadState::Migrating,
            "detach requires a context held for migration"
        );
        assert!(t.fifo.is_empty(), "detach before in-flight drain");
        assert!(t.stores.is_empty(), "store list outlived the drain");
        assert!(
            t.pending_sync.is_none(),
            "detach with an unreported sync operation"
        );
        debug_assert!(
            t.map.iter().all(Option::is_none),
            "rename map must be clear after a full drain"
        );
        t.state = ThreadState::Idle;
        t.redirect_until = 0;
        t.wp_pc = 0;
        let d = DetachedThread {
            stream: t.stream.take(),
            pending: t.pending.take(),
            committed: std::mem::take(&mut t.committed),
        };
        self.touched();
        d
    }

    /// Attach a migrated thread to the idle context `ctx`, restoring its
    /// architectural state. `resume_as` is the state the thread held when
    /// it was detached, as tracked by the machine: `Running` (or
    /// `WrongPath`, which resumes as `Running` — its wrong path was
    /// squashed during the drain), `WaitingSync` (still parked; the
    /// runtime resumes it later) or `Done`.
    pub fn attach_migrated(&mut self, ctx: usize, d: DetachedThread, resume_as: ThreadState) {
        let t = &mut self.regs.threads[ctx];
        assert_eq!(t.state, ThreadState::Idle, "destination context busy");
        assert!(
            matches!(
                resume_as,
                ThreadState::Running | ThreadState::WaitingSync | ThreadState::Done
            ),
            "invalid resume state {resume_as:?}"
        );
        t.stream = d.stream;
        t.pending = d.pending;
        t.committed = d.committed;
        t.state = resume_as;
        self.touched();
    }

    /// In-flight *load* count of context `ctx` (loads fetched but not yet
    /// completed) — the memory-boundedness signal sampled by scheduler
    /// snapshots at epoch boundaries.
    pub fn inflight_loads(&self, ctx: usize) -> usize {
        self.regs.threads[ctx]
            .fifo
            .iter()
            .filter(|&&s| {
                let e = &self.win.entries[s as usize];
                e.op == csmt_isa::OpClass::Load && e.state != EState::Done
            })
            .count()
    }

    /// Number of contexts currently making progress (not idle, parked or
    /// done) — used for the paper's Figure 6 thread-parallelism metric.
    pub fn running_threads(&self) -> usize {
        self.running
    }

    /// True while any context still has work (in-flight or un-fetched).
    pub fn busy(&self) -> bool {
        self.regs
            .threads
            .iter()
            .any(|t| !matches!(t.state, ThreadState::Idle | ThreadState::Done))
    }

    /// Slot statistics accumulated so far.
    pub fn stats(&self) -> &SlotStats {
        &self.regs.stats
    }

    /// Instructions committed by context `ctx`.
    pub fn thread_committed(&self, ctx: usize) -> u64 {
        self.regs.threads[ctx].committed
    }

    /// Branch predictor statistics (lookups, mispredictions).
    pub fn bpred_stats(&self) -> (u64, u64) {
        self.bpred.stats()
    }

    /// In-flight instruction count of context `ctx` (diagnostics).
    pub fn inflight(&self, ctx: usize) -> usize {
        self.regs.threads[ctx].fifo.len()
    }

    /// Advance one cycle. `node` selects the chip in `mem` this cluster
    /// belongs to. Runtime events are appended to `events`.
    pub fn step(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        node: usize,
        events: &mut Vec<ClusterEvent>,
    ) {
        self.step_probed(now, mem, node, events, &mut NullProbe, 0);
    }

    /// [`step`](Cluster::step) with an observability probe attached.
    /// `cluster_id` is the machine-global cluster index stamped into the
    /// emitted events. Every event goes through `emit`, gated on `P::WANTS`,
    /// so `step_probed::<NullProbe>` monomorphizes to exactly `step`.
    /// Returns the cycle's activity deltas.
    ///
    /// **Stall spans.** A step in which nothing moved — no completion,
    /// commit, issue or fetch-stage change (install, context state,
    /// round-robin pointer, rename stall), no [`ClusterEvent`], an empty
    /// ready queue and no completed FIFO head (a store held by a full
    /// store buffer) — leaves a state the next step maps to itself until
    /// the completion wheel's next due cycle: nothing can complete before
    /// it, so nothing wakes, issues, retires or frees a window slot. Every
    /// cycle until then skips the five phases: it adds the stalled step's
    /// own §4.1 shares once (`SlotStats::record_stalled`, the same `f64`
    /// additions in the same order), emits the `Wants::POOL` snapshot and
    /// reports no activity. Any mutator (attach, resume, hold, detach)
    /// ends the span.
    pub fn step_probed<P: Probe>(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        node: usize,
        events: &mut Vec<ClusterEvent>,
        probe: &mut P,
        cluster_id: u32,
    ) -> CycleActivity {
        // Host self-profiling: one lap per phase boundary, only when
        // the probe opted in (otherwise eliminated statically).
        // Memory-hierarchy time is reported separately by `MemorySystem`
        // and nests inside the issue (loads) and commit (stores) phases.
        let mut host = HostStopwatch::start::<P>();
        if let Some(span) = &self.span {
            if now < span.until {
                #[cfg(any(test, debug_assertions))]
                self.check_span(span, now);
                self.regs.stats.record_stalled(&span.shares);
                host.lap(probe, HostPhase::Account);
                self.emit_snapshot(now, probe, cluster_id);
                return CycleActivity::default();
            }
            self.span = None;
        }
        self.regs.rename_stalled = false;
        let events_before = events.len();
        let completed = self.win.complete_phase(
            &mut self.regs,
            &mut self.rename,
            &mut self.bpred,
            now,
            probe,
            cluster_id,
        );
        host.lap(probe, HostPhase::Complete);
        let committed = commit::run(
            &self.cfg,
            &mut self.regs,
            &mut self.win,
            &mut self.rename,
            &mut self.lsq,
            now,
            mem,
            node,
            events,
            probe,
            cluster_id,
        );
        host.lap(probe, HostPhase::Commit);
        let (useful, wrong) = self.win.issue_phase(
            &self.regs,
            &mut self.fu,
            mem,
            node,
            now,
            self.cfg.issue_width,
            probe,
            cluster_id,
        );
        host.lap(probe, HostPhase::Issue);
        let fetched = fetch::run(
            &self.cfg,
            &mut self.regs,
            &mut self.win,
            &mut self.rename,
            &mut self.bpred,
            now,
            probe,
            cluster_id,
        );
        host.lap(probe, HostPhase::Fetch);
        let weights = regs::account(&self.cfg, &mut self.regs, &self.win, now, useful, wrong);
        self.running = self.count_running();
        let stalled = completed == 0
            && committed == 0
            && useful + wrong == 0
            && !fetched
            && events.len() == events_before
            && self.win.ready_is_empty()
            && !self.a_head_is_done();
        if stalled {
            // `record_cycle` just charged `(width, 0, 0, weights)`: the
            // span replays exactly that, if it has a cycle to replay.
            let until = self.win.next_due();
            if until > now + 1 {
                self.span = Some(Span {
                    until,
                    shares: StallShares::new(self.cfg.issue_width, &weights),
                    #[cfg(any(test, debug_assertions))]
                    weights,
                    #[cfg(any(test, debug_assertions))]
                    states: self.regs.threads.iter().map(|t| t.state).collect(),
                });
            }
        }
        host.lap(probe, HostPhase::Account);
        self.emit_snapshot(now, probe, cluster_id);
        CycleActivity {
            useful: useful as u32,
            committed,
        }
    }

    /// True if some context's oldest in-flight instruction has completed
    /// but did not retire: a store behind a full store buffer, which
    /// retires when a drain finishes, not when the wheel next fires.
    fn a_head_is_done(&self) -> bool {
        self.regs.threads.iter().any(|t| {
            t.fifo
                .front()
                .is_some_and(|&h| self.win.entries[h as usize].state == EState::Done)
        })
    }

    /// Every skipped cycle re-derives what its span froze: the §4.1
    /// weights (at this `now`), the empty ready queue, every context's
    /// state and the wheel's next due cycle.
    #[cfg(any(test, debug_assertions))]
    fn check_span(&self, span: &Span, now: u64) {
        assert_eq!(
            regs::hazard_weights(false, &self.regs.threads, &self.win, now),
            span.weights,
            "stall span's §4.1 weights went stale at cycle {now}"
        );
        assert!(
            self.win.ready_is_empty(),
            "an entry became ready inside a stall span at cycle {now}"
        );
        assert!(
            self.regs
                .threads
                .iter()
                .map(|t| t.state)
                .eq(span.states.iter().copied()),
            "a context changed state inside a stall span at cycle {now}"
        );
        assert_eq!(
            self.win.next_due(),
            span.until,
            "the completion wheel moved inside a stall span at cycle {now}"
        );
    }

    /// The end-of-cycle rename-pool snapshot. Register conservation: every
    /// allocated renaming register is held by exactly one window slot
    /// (fetch allocates before install; release returns it on both commit
    /// and squash). `held` is the popcount of the window's per-slot held
    /// masks, written only by install and release, so it stays evidence
    /// independent of the free counters (DESIGN §9).
    fn emit_snapshot<P: Probe>(&self, now: u64, probe: &mut P, cluster_id: u32) {
        emit(probe, Wants::POOL, || {
            let (int_held, fp_held) = self.win.held();
            Event::RenamePools(RenamePoolEvent {
                cycle: now,
                cluster: cluster_id,
                int_free: self.rename.int_free as u32,
                fp_free: self.rename.fp_free as u32,
                int_held,
                fp_held,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_isa::stream::VecStream;
    use csmt_isa::{ArchReg, DynInst, OpClass};
    use csmt_mem::MemConfig;
    use proptest::prelude::*;

    /// Keeps the latest rename-pool snapshot.
    #[derive(Default)]
    struct LastPools(Option<RenamePoolEvent>);

    impl Probe for LastPools {
        const WANTS: Wants = Wants::POOL;
        fn on(&mut self, ev: &Event<'_>) {
            if let Event::RenamePools(e) = *ev {
                self.0 = Some(e);
            }
        }
    }

    /// One random instruction: `kind` picks an int ALU op (dest `$0`
    /// renames nothing), an FP op, a load into either file, a store or a
    /// branch (a misprediction squashes the wrong path behind it).
    fn inst(i: usize, (kind, a, b, addr): (u8, u8, u8, u16)) -> DynInst {
        let pc = i as u64 * 4;
        let (src, addr) = ([Some(ArchReg::Int(b)), None], u64::from(addr) * 8);
        match kind {
            0 => DynInst::alu(pc, OpClass::IntAlu, Some(ArchReg::Int(a)), src),
            1 => DynInst::alu(
                pc,
                OpClass::FpAdd,
                Some(ArchReg::Fp(a)),
                [Some(ArchReg::Fp(b)), None],
            ),
            2 if a % 2 == 0 => DynInst::load(pc, ArchReg::Fp(a), addr, src),
            2 => DynInst::load(pc, ArchReg::Int(a), addr, src),
            3 => DynInst::store(pc, addr, src),
            _ => DynInst::branch(pc, a % 2 == 0, 0, src),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// On every Table 2 window size, 16 to 128 slots, each cycle's
        /// snapshot counts exactly the registers `dest` finds slot by
        /// slot, and `free + held == pool` in both register files.
        #[test]
        fn pool_snapshot_equals_a_per_slot_enumeration(
            progs in prop::collection::vec(
                prop::collection::vec((0u8..5, 0u8..30, 0u8..30, any::<u16>()), 1..200),
                1..3,
            ),
        ) {
            for width in [1, 2, 4, 8] {
                let cfg = ClusterConfig::for_width(width, progs.len());
                let pool = cfg.rename_regs() as u32;
                let mut c = Cluster::new(cfg, 7);
                let mut mem = MemorySystem::new(MemConfig::table3(), 1, 7);
                for (t, p) in progs.iter().enumerate() {
                    let insts = p.iter().enumerate().map(|(i, &o)| inst(i, o)).collect();
                    c.attach_thread(t, Box::new(VecStream::new(insts)));
                }
                let (mut events, mut probe) = (Vec::new(), LastPools::default());
                let mut now = 0;
                while c.busy() {
                    prop_assert!(now < 100_000, "width {} deadlocked", width);
                    c.step_probed(now, &mut mem, 0, &mut events, &mut probe, 0);
                    events.clear();
                    let e = probe.0.take().expect("a snapshot every cycle");
                    let dests: Vec<ArchReg> = (0..cfg.window_entries() as u32)
                        .filter_map(|s| c.win.dest(s))
                        .collect();
                    let fp = dests.iter().filter(|d| d.is_fp()).count() as u32;
                    let int = dests.len() as u32 - fp;
                    prop_assert_eq!((e.int_held, e.fp_held), (int, fp), "width {} cycle {}", width, now);
                    prop_assert_eq!((e.int_free + e.int_held, e.fp_free + e.fp_held), (pool, pool));
                    now += 1;
                }
            }
        }
    }
}
