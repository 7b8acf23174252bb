//! Cross-stage state shared by every pipeline stage: the instruction-window
//! entry record, per-context thread state (map table, in-flight FIFO,
//! in-flight store list, wrong-path generator), and the §4.1 issue-slot
//! accounting.
//!
//! The paper's method scans the whole window every cycle; here each entry
//! caches its hazard class and [`Window`] keeps per-thread class counts,
//! updated at the four events that can change a class (dispatch, issue,
//! completion/wakeup, release), so [`hazard_weights`] reads five integers
//! per thread. The literal scan survives as [`hazard_weights_scan`], a
//! test/debug-build oracle the counts are asserted against every cycle.

use crate::config::ClusterConfig;
use crate::stats::{Hazard, SlotStats};
use csmt_isa::stream::WrongPathGen;
use csmt_isa::{ArchReg, DynInst, InstStream, OpClass, SyncOp};
use std::collections::VecDeque;

use super::window::Window;

/// Externally visible state of a hardware thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// No software thread attached.
    Idle,
    /// Fetching the correct path.
    Running,
    /// An unresolved mispredicted branch is in flight; fetching wrong-path
    /// instructions that will be squashed.
    WrongPath,
    /// A sync marker was fetched; waiting for in-flight instructions to
    /// drain before reporting to the runtime.
    Draining,
    /// Drained at a sync point; the runtime decides when to resume.
    WaitingSync,
    /// The thread scheduler marked this context for migration; correct-path
    /// work drains through commit (wrong-path work is squashed by normal
    /// branch resolution) before the thread detaches.
    Migrating,
    /// Program finished.
    Done,
}

/// Execution state of a window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EState {
    Waiting,
    Exec,
    Done,
}

/// Readiness of one source operand. `Wait(slot)` names the producing
/// window slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcState {
    Ready,
    Wait(u32),
}

/// The §4.1 class of one in-flight entry: the hazard an un-issued (or
/// memory-bound) instruction charges this cycle, or `None` for entries
/// that charge nothing (executing non-loads, completed work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HazardClass {
    None,
    /// Ready but not issued: lack of FU or of issue bandwidth.
    Structural,
    /// Waiting on an executing load, or itself a load in the memory system.
    Memory,
    /// Waiting on a register data dependence.
    Data,
    /// Un-issued wrong-path work.
    Control,
}

impl HazardClass {
    pub const COUNT: usize = 5;
}

/// One instruction window / reorder buffer entry. The renaming register
/// it holds lives beside it, in the window's held masks ([`Window::dest`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub valid: bool,
    pub thread: u8,
    /// Cluster-global dispatch order; doubles as per-thread program order.
    pub seq: u64,
    pub op: OpClass,
    pub pc: u64,
    pub state: EState,
    /// Cached §4.1 class, owned by [`Window`] (install / reclassify /
    /// release keep it and the per-thread counts in step).
    pub class: HazardClass,
    pub srcs: [SrcState; 2],
    pub mem_addr: u64,
    pub is_store: bool,
    pub br_taken: bool,
    pub br_target: u64,
    pub has_branch: bool,
    pub mispredicted: bool,
    pub wrong_path: bool,
}

pub(crate) const DEAD: Entry = Entry {
    valid: false,
    thread: 0,
    seq: 0,
    op: OpClass::Nop,
    pc: 0,
    state: EState::Waiting,
    class: HazardClass::None,
    srcs: [SrcState::Ready, SrcState::Ready],
    mem_addr: 0,
    is_store: false,
    br_taken: false,
    br_target: 0,
    has_branch: false,
    mispredicted: false,
    wrong_path: false,
};

/// One hardware thread context.
pub(crate) struct ThreadCtx {
    pub state: ThreadState,
    pub stream: Option<Box<dyn InstStream + Send>>,
    pub pending: Option<DynInst>,
    pub pending_sync: Option<SyncOp>,
    pub map: [Option<u32>; ArchReg::COUNT],
    pub fifo: VecDeque<u32>,
    /// Window slots of this thread's in-flight stores, oldest first — the
    /// subsequence of `fifo` store-to-load forwarding has to look at.
    pub stores: VecDeque<u32>,
    pub wp_gen: WrongPathGen,
    pub wp_pc: u64,
    /// Cycle until which an empty window counts as a control (redirect)
    /// bubble rather than a fetch hazard.
    pub redirect_until: u64,
    pub committed: u64,
}

impl ThreadCtx {
    /// `window_entries` bounds both queues: a context can never hold more
    /// in-flight instructions than its cluster's window has slots.
    pub fn new(seed: u64, window_entries: usize) -> Self {
        ThreadCtx {
            state: ThreadState::Idle,
            stream: None,
            pending: None,
            pending_sync: None,
            map: [None; ArchReg::COUNT],
            fifo: VecDeque::with_capacity(window_entries),
            stores: VecDeque::with_capacity(window_entries),
            wp_gen: WrongPathGen::new(seed),
            wp_pc: 0,
            redirect_until: 0,
            committed: 0,
        }
    }
}

/// The cross-stage register state: thread contexts, the dispatch sequence
/// counter, the fetch round-robin pointer, and the slot statistics.
pub(crate) struct Regs {
    pub threads: Vec<ThreadCtx>,
    pub fetch_rr: usize,
    pub seq_counter: u64,
    /// Set by the fetch stage when renaming ran out of registers this
    /// cycle; consumed by [`account`].
    pub rename_stalled: bool,
    pub stats: SlotStats,
}

impl Regs {
    pub fn new(threads: Vec<ThreadCtx>) -> Self {
        Regs {
            threads,
            fetch_rr: 0,
            seq_counter: 0,
            rename_stalled: false,
            stats: SlotStats::default(),
        }
    }
}

// ------------------------------------------------------------------
// account: §4.1 issue-slot attribution.
// ------------------------------------------------------------------
/// Record the cycle; returns its hazard weights.
pub(crate) fn account(
    cfg: &ClusterConfig,
    regs: &mut Regs,
    win: &Window,
    now: u64,
    useful: usize,
    wrong: usize,
) -> [f64; 7] {
    let w = hazard_weights(regs.rename_stalled, &regs.threads, win, now);
    regs.stats.record_cycle(cfg.issue_width, useful, wrong, &w);
    w
}

/// The §4.1 per-thread hazard attribution for one cycle.
///
/// Reads the window's per-thread class counts. Every weight is a count of
/// entries, so `f64::from(count)` is exactly the sum of that many `1.0`s
/// the scan accumulates.
pub(crate) fn hazard_weights(
    rename_stalled: bool,
    threads: &[ThreadCtx],
    win: &Window,
    now: u64,
) -> [f64; 7] {
    let mut n = [0u32; 7];
    n[Hazard::Other.index()] = u32::from(rename_stalled);
    for (t, c) in threads.iter().zip(win.class_counts()) {
        match t.state {
            ThreadState::Idle
            | ThreadState::Done
            | ThreadState::Draining
            | ThreadState::WaitingSync
            | ThreadState::Migrating => {
                // Parked threads waste their share of the cluster:
                // spinning at barriers/locks, gone, or draining toward a
                // migration (the migration cost shows up as sync slots,
                // keeping §4.1 conservation intact).
                n[Hazard::Sync.index()] += 1;
            }
            ThreadState::Running | ThreadState::WrongPath => {
                if t.fifo.is_empty() {
                    if now < t.redirect_until {
                        n[Hazard::Control.index()] += 1;
                    } else {
                        n[Hazard::Fetch.index()] += 1;
                    }
                    continue;
                }
                let [_, structural, memory, data, control] = *c;
                n[Hazard::Memory.index()] += memory;
                n[Hazard::Data.index()] += data;
                n[Hazard::Control.index()] += control;
                // A window full of completed work awaiting retirement
                // charges nothing by class: the structural limit is then
                // the window/retire bandwidth itself.
                let blocked = structural + memory + data + control == 0;
                n[Hazard::Structural.index()] += structural + u32::from(blocked);
            }
        }
    }
    let w = n.map(f64::from);
    #[cfg(any(test, debug_assertions))]
    assert_eq!(
        w,
        hazard_weights_scan(rename_stalled, threads, win, now),
        "incremental §4.1 class counts diverged from the window scan at cycle {now}"
    );
    w
}

/// The paper's §4.1 method, literally: "scan the entire instruction window
/// every cycle and record the type of hazard faced by each instruction
/// that is unable to issue". Kept as the oracle for [`hazard_weights`].
#[cfg(any(test, debug_assertions))]
pub(crate) fn hazard_weights_scan(
    rename_stalled: bool,
    threads: &[ThreadCtx],
    win: &Window,
    now: u64,
) -> [f64; 7] {
    let mut w = [0.0f64; 7];
    if rename_stalled {
        w[Hazard::Other.index()] += 1.0;
    }
    for t in threads {
        match t.state {
            ThreadState::Idle
            | ThreadState::Done
            | ThreadState::Draining
            | ThreadState::WaitingSync
            | ThreadState::Migrating => w[Hazard::Sync.index()] += 1.0,
            ThreadState::Running | ThreadState::WrongPath => {
                if t.fifo.is_empty() {
                    if now < t.redirect_until {
                        w[Hazard::Control.index()] += 1.0;
                    } else {
                        w[Hazard::Fetch.index()] += 1.0;
                    }
                    continue;
                }
                let mut any_weight = false;
                for &s in &t.fifo {
                    let h = match win.classify(&win.entries[s as usize]) {
                        HazardClass::None => continue,
                        HazardClass::Structural => Hazard::Structural,
                        HazardClass::Memory => Hazard::Memory,
                        HazardClass::Data => Hazard::Data,
                        HazardClass::Control => Hazard::Control,
                    };
                    any_weight = true;
                    w[h.index()] += 1.0;
                }
                if !any_weight {
                    w[Hazard::Structural.index()] += 1.0;
                }
            }
        }
    }
    w
}
