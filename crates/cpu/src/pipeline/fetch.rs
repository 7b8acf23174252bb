//! Fetch and rename/dispatch. The paper's baseline fetches from one
//! thread per cycle, round-robin (§3.2); the alternatives Tullsen et al.
//! propose for the fetch bottleneck (§5.2 discussion) are selectable via
//! [`crate::config::FetchPolicy`].

use crate::bpred::BranchPredictor;
use crate::config::{ClusterConfig, FetchPolicy};
use csmt_isa::{OpClass, SyncOp};
use csmt_trace::{emit, Event, FetchEvent, Probe, Wants};

use super::regs::{EState, Entry, HazardClass, Regs, SrcState, ThreadCtx, ThreadState};
use super::rename::RenamePools;
use super::window::Window;

/// Run the fetch stage: pick the thread(s) for this cycle per the
/// configured policy and dispatch into the window. Returns whether it
/// changed anything: the round-robin pointer, or a fetching context (an
/// install, a state change, a rename stall).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<P: Probe>(
    cfg: &ClusterConfig,
    regs: &mut Regs,
    win: &mut Window,
    rename: &mut RenamePools,
    bpred: &mut BranchPredictor,
    now: u64,
    probe: &mut P,
    cluster_id: u32,
) -> bool {
    let n = regs.threads.len();
    let rr = regs.fetch_rr;
    let mut moved = false;
    let fetchable =
        |t: &ThreadCtx| matches!(t.state, ThreadState::Running | ThreadState::WrongPath);
    match cfg.fetch_policy {
        FetchPolicy::RoundRobin => {
            if let Some(tid) = (0..n)
                .map(|off| (rr + off) % n)
                .find(|&tid| fetchable(&regs.threads[tid]))
            {
                regs.fetch_rr = (tid + 1) % n;
                moved = fetch_from(
                    tid,
                    cfg.issue_width,
                    now,
                    regs,
                    win,
                    rename,
                    bpred,
                    probe,
                    cluster_id,
                );
            }
        }
        FetchPolicy::ICount => {
            // Instruction-count feedback: fetch for the thread with the
            // fewest instructions in flight (ties broken round-robin),
            // keeping the shared window balanced so no thread can clog it.
            let mut best: Option<(usize, usize)> = None;
            for off in 0..n {
                let tid = (regs.fetch_rr + off) % n;
                if fetchable(&regs.threads[tid]) {
                    let inflight = regs.threads[tid].fifo.len();
                    if best.is_none_or(|(_, b)| inflight < b) {
                        best = Some((tid, inflight));
                    }
                }
            }
            if let Some((tid, _)) = best {
                regs.fetch_rr = (tid + 1) % n;
                moved = fetch_from(
                    tid,
                    cfg.issue_width,
                    now,
                    regs,
                    win,
                    rename,
                    bpred,
                    probe,
                    cluster_id,
                );
            }
        }
        FetchPolicy::Partitioned2 => {
            // Two fetch ports, each half the width (RR.2.<w/2> in
            // Tullsen et al.'s notation): two different threads can
            // fetch in the same cycle.
            let budget = (cfg.issue_width / 2).max(1);
            let mut picked = 0;
            let mut off = 0;
            let start = regs.fetch_rr;
            while picked < 2 && off < n {
                let tid = (start + off) % n;
                off += 1;
                if fetchable(&regs.threads[tid]) {
                    regs.fetch_rr = (tid + 1) % n;
                    moved |= fetch_from(
                        tid, budget, now, regs, win, rename, bpred, probe, cluster_id,
                    );
                    picked += 1;
                }
            }
        }
    }
    moved || regs.fetch_rr != rr
}

/// Fetch and dispatch up to `budget` instructions from thread `tid`.
/// Returns whether anything changed: an install, the thread's state
/// (a sync marker or the end of its stream parks it `Draining`; a
/// mispredict sends it down the wrong path), or a rename stall (which
/// also consumes a wrong-path instruction).
#[allow(clippy::too_many_arguments)]
fn fetch_from<P: Probe>(
    tid: usize,
    budget: usize,
    now: u64,
    regs: &mut Regs,
    win: &mut Window,
    rename: &mut RenamePools,
    bpred: &mut BranchPredictor,
    probe: &mut P,
    cluster_id: u32,
) -> bool {
    let entry_state = regs.threads[tid].state;
    let mut fetched = 0;
    while fetched < budget {
        if !win.has_free() {
            break; // window full
        }
        let state = regs.threads[tid].state;
        let inst = match state {
            ThreadState::Running => {
                let t = &mut regs.threads[tid];
                let next = t
                    .pending
                    .take()
                    .or_else(|| t.stream.as_mut().and_then(|s| s.next_inst()));
                match next {
                    None => {
                        // Stream exhausted without an explicit Exit.
                        t.pending_sync = Some(SyncOp::Exit);
                        t.state = ThreadState::Draining;
                        break;
                    }
                    Some(i) if i.op == OpClass::Sync => {
                        t.pending_sync = Some(i.sync.expect("sync op"));
                        t.state = ThreadState::Draining;
                        break;
                    }
                    Some(i) => i,
                }
            }
            ThreadState::WrongPath => {
                let t = &mut regs.threads[tid];
                let pc = t.wp_pc;
                t.wp_pc += 4;
                t.wp_gen.next_inst(pc)
            }
            _ => break,
        };
        // Rename: need a free register of the destination's kind.
        let dest = inst.real_dest();
        if let Some(d) = dest {
            if !rename.try_alloc(d) {
                regs.rename_stalled = true;
                if state == ThreadState::Running {
                    regs.threads[tid].pending = Some(inst);
                }
                break;
            }
        }
        let wrong_path = state == ThreadState::WrongPath;
        regs.seq_counter += 1;
        let seq = regs.seq_counter;
        // Source readiness via the map table.
        let mut srcs = [SrcState::Ready, SrcState::Ready];
        {
            let t = &regs.threads[tid];
            for (k, s) in inst.srcs.iter().enumerate() {
                if let Some(r) = s.filter(|r| !r.is_zero()) {
                    if let Some(p) = t.map[r.flat_index()] {
                        if win.entries[p as usize].state != EState::Done {
                            srcs[k] = SrcState::Wait(p);
                        }
                    }
                }
            }
        }
        let mut entry = Entry {
            valid: true,
            thread: tid as u8,
            seq,
            op: inst.op,
            pc: inst.pc,
            state: EState::Waiting,
            class: HazardClass::None, // set by `Window::install`
            srcs,
            mem_addr: inst.mem.map_or(0, |m| m.addr),
            is_store: inst.op == OpClass::Store,
            br_taken: false,
            br_target: 0,
            has_branch: false,
            mispredicted: false,
            wrong_path,
        };
        let mut predicted_taken = false;
        if let Some(b) = inst.branch {
            entry.has_branch = true;
            entry.br_taken = b.taken;
            entry.br_target = b.target;
            let pred = bpred.predict(inst.pc);
            predicted_taken = pred;
            let btb_ok = !pred || bpred.btb_hit(inst.pc, b.target);
            if pred != b.taken || !btb_ok {
                entry.mispredicted = true;
            }
        }
        // Install.
        let (has_branch, mispredicted, pc, op, is_store) = (
            entry.has_branch,
            entry.mispredicted,
            entry.pc,
            entry.op,
            entry.is_store,
        );
        let slot = win.install(entry, dest);
        if let Some(d) = dest {
            regs.threads[tid].map[d.flat_index()] = Some(slot);
        }
        regs.threads[tid].fifo.push_back(slot);
        if is_store {
            regs.threads[tid].stores.push_back(slot);
        }
        fetched += 1;
        emit(probe, Wants::INST, || {
            Event::Fetch(FetchEvent {
                cycle: now,
                cluster: cluster_id,
                thread: tid as u32,
                uid: seq,
                pc,
                op,
                wrong_path,
            })
        });
        if has_branch && mispredicted && !wrong_path {
            // Fetch goes down the wrong path until resolution.
            regs.threads[tid].state = ThreadState::WrongPath;
            regs.threads[tid].wp_pc = inst.pc + 4;
        }
        if predicted_taken {
            // Cannot fetch past a predicted-taken branch in one cycle.
            break;
        }
    }
    fetched > 0 || regs.rename_stalled || regs.threads[tid].state != entry_state
}
