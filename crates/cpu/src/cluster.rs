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
use crate::stats::{CycleActivity, SlotStats};
use csmt_isa::{ArchReg, InstStream, SyncOp};
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
        }
    }

    /// Attach a software thread's instruction stream to context `ctx`.
    pub fn attach_thread(&mut self, ctx: usize, stream: Box<dyn InstStream + Send>) {
        let t = &mut self.regs.threads[ctx];
        assert_eq!(t.state, ThreadState::Idle, "context already in use");
        t.stream = Some(stream);
        t.state = ThreadState::Running;
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
        t.fifo.is_empty()
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
        DetachedThread {
            stream: t.stream.take(),
            pending: t.pending.take(),
            committed: std::mem::take(&mut t.committed),
        }
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
    pub fn step_probed<P: Probe>(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        node: usize,
        events: &mut Vec<ClusterEvent>,
        probe: &mut P,
        cluster_id: u32,
    ) -> CycleActivity {
        self.regs.rename_stalled = false;
        // Host self-profiling: one lap per phase boundary, only when
        // the probe opted in (otherwise eliminated statically).
        // Memory-hierarchy time is reported separately by `MemorySystem`
        // and nests inside the issue (loads) and commit (stores) phases.
        let mut host = HostStopwatch::start::<P>();
        self.win.complete_phase(
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
        fetch::run(
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
        regs::account(&self.cfg, &mut self.regs, &self.win, now, useful, wrong);
        host.lap(probe, HostPhase::Account);
        self.emit_snapshot(now, probe, cluster_id);
        CycleActivity {
            useful: useful as u32,
            committed,
        }
    }

    /// The end-of-cycle rename-pool snapshot. Register conservation: every
    /// allocated renaming register is held by exactly one window slot
    /// (fetch allocates before install; release returns it on both commit
    /// and squash). `held` is counted by scanning the window's per-slot
    /// `dest` array — 2 bytes a slot, written only by install and
    /// release — so it stays evidence independent of the free counters
    /// (DESIGN §9).
    fn emit_snapshot<P: Probe>(&self, now: u64, probe: &mut P, cluster_id: u32) {
        emit(probe, Wants::POOL, || {
            let (mut int_held, mut fp_held) = (0u32, 0u32);
            // Branch-free: the slot-by-slot pattern of empty / int / fp
            // is unpredictable, and a branchy count paid for it.
            for d in &self.win.dest {
                int_held += u32::from(matches!(d, Some(ArchReg::Int(_))));
                fp_held += u32::from(matches!(d, Some(ArchReg::Fp(_))));
            }
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
