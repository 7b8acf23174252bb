//! Per-thread in-order retirement, store commit through the store
//! buffer, and drained-sync / thread-exit detection.

use crate::cluster::ClusterEvent;
use crate::config::ClusterConfig;
use csmt_isa::SyncOp;
use csmt_mem::{AccessKind, MemorySystem};
use csmt_trace::{emit, Event, Probe, StageEvent, Wants};

use super::lsq::StoreBuffer;
use super::regs::{EState, Regs, ThreadState};
use super::rename::RenamePools;
use super::window::Window;

/// Run the commit stage. Returns the number of instructions committed
/// (the machine folds it into its running cycle-stats aggregate).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<P: Probe>(
    cfg: &ClusterConfig,
    regs: &mut Regs,
    win: &mut Window,
    rename: &mut RenamePools,
    lsq: &mut StoreBuffer,
    now: u64,
    mem: &mut MemorySystem,
    node: usize,
    events: &mut Vec<ClusterEvent>,
    probe: &mut P,
    cluster_id: u32,
) -> u32 {
    let mut committed = 0u32;
    let mut budget = cfg.issue_width; // §3.1: retire up to n per cycle
    let n_threads = regs.threads.len();
    // Round-robin start keeps retirement fair across contexts.
    for off in 0..n_threads {
        let tid = (regs.fetch_rr + off) % n_threads;
        while budget > 0 {
            let Some(&head) = regs.threads[tid].fifo.front() else {
                break;
            };
            let e = &win.entries[head as usize];
            if e.state != EState::Done {
                break;
            }
            debug_assert!(!e.wrong_path, "wrong-path entry survived to commit");
            let (is_store, addr, seq) = (e.is_store, e.mem_addr, e.seq);
            if is_store {
                // Stores perform their cache access at commit; the store
                // buffer absorbs the latency, but a full buffer stalls
                // this thread's retirement until a drain completes.
                lsq.drain_completed(now);
                if lsq.is_full() {
                    break;
                }
                let out = mem.access_probed(node, addr, AccessKind::Write, now, probe);
                lsq.push(out.complete_at);
            }
            if let Some(d) = win.dest(head) {
                if regs.threads[tid].map[d.flat_index()] == Some(head) {
                    regs.threads[tid].map[d.flat_index()] = None;
                }
            }
            regs.threads[tid].fifo.pop_front();
            if is_store {
                let popped = regs.threads[tid].stores.pop_front();
                debug_assert_eq!(popped, Some(head));
            }
            win.release(head, rename);
            regs.threads[tid].committed += 1;
            regs.stats.committed += 1;
            committed += 1;
            budget -= 1;
            emit(probe, Wants::INST, || {
                Event::Commit(StageEvent {
                    cycle: now,
                    cluster: cluster_id,
                    uid: seq,
                })
            });
        }
    }
    // Drained sync / exit / migration detection.
    for tid in 0..n_threads {
        let t = &mut regs.threads[tid];
        if t.state == ThreadState::Draining && t.fifo.is_empty() {
            let op = t
                .pending_sync
                .take()
                .expect("draining thread has a sync op");
            if op == SyncOp::Exit {
                t.state = ThreadState::Done;
                events.push(ClusterEvent::ThreadDone { thread: tid });
            } else {
                t.state = ThreadState::WaitingSync;
                events.push(ClusterEvent::SyncReached { thread: tid, op });
            }
        } else if t.state == ThreadState::Migrating && t.fifo.is_empty() {
            // No state change here: the machine detaches the context
            // (making it Idle) while processing this event, so it fires
            // exactly once.
            events.push(ClusterEvent::MigrationDrained { thread: tid });
        }
    }
    committed
}
