//! The shared instruction window / reorder buffer and its scheduling
//! machinery: completion, wakeup, and oldest-first select.
//!
//! Where the monolithic cluster rescanned the whole window every cycle,
//! this module keeps three indexed structures, all behavior-preserving:
//!
//! - a **completion wheel** (`wheel`): at issue, an instruction lands in
//!   the bucket for the first cycle `complete` can observe it; `complete`
//!   pops due buckets instead of scanning the window for finished
//!   executions;
//! - **per-producer waiter lists** (`waiters`): consumers register at
//!   dispatch; a completing result wakes only its actual consumers
//!   instead of broadcasting a tag match over every window entry;
//! - a **ready queue** (`ready`, ordered `(seq, slot)`): entries enter
//!   when their last operand arrives, so oldest-first select walks only
//!   ready instructions instead of rescanning non-ready entries.
//!
//! Stale references (a squash freed — and possibly refilled — a slot
//! after it was indexed) are filtered by re-checking the entry's `seq`:
//! sequence numbers are unique for the life of the cluster.

use crate::bpred::BranchPredictor;
use crate::fu::FuPool;
use csmt_isa::OpClass;
use csmt_mem::{AccessKind, MemorySystem};
use csmt_trace::{emit, Event, Probe, StageEvent, Wants};
use std::collections::{BTreeMap, BTreeSet};

use super::lsq;
use super::regs::{EState, Entry, Regs, SrcState, ThreadState, DEAD};
use super::rename::{self, RenamePools};

pub(crate) struct Window {
    pub entries: Vec<Entry>,
    pub free_slots: Vec<u32>,
    /// Consumers of each producer slot's result: `(slot, seq)` of the
    /// waiting entry, registered at dispatch, drained at completion.
    waiters: Vec<Vec<(u32, u64)>>,
    /// Entries with every operand ready, awaiting issue. Ordered
    /// `(seq, slot)`, so iteration is the oldest-first select order.
    ready: BTreeSet<(u64, u32)>,
    /// Completion wheel: finish cycle → instructions finishing then.
    wheel: BTreeMap<u64, Vec<(u32, u64)>>,
    /// Recycled wheel buckets (no steady-state allocation).
    spare_buckets: Vec<Vec<(u32, u64)>>,
    /// Scratch: this cycle's completions, `(slot, seq)`.
    complete_buf: Vec<(u32, u64)>,
    /// Scratch: this cycle's issues, `(seq, slot, wheel bucket)`.
    issued_buf: Vec<(u64, u32, u64)>,
}

impl Window {
    pub fn new(n: usize) -> Self {
        Window {
            entries: vec![DEAD; n],
            free_slots: (0..n as u32).rev().collect(),
            waiters: (0..n).map(|_| Vec::new()).collect(),
            ready: BTreeSet::new(),
            wheel: BTreeMap::new(),
            spare_buckets: Vec::new(),
            complete_buf: Vec::with_capacity(n),
            issued_buf: Vec::with_capacity(n),
        }
    }

    /// True if dispatch has a slot to install into.
    pub fn has_free(&self) -> bool {
        !self.free_slots.is_empty()
    }

    /// True if no installed entry is ready to issue.
    pub fn ready_is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Valid (installed) entries — window/ROB occupancy right now.
    pub fn occupancy(&self) -> usize {
        self.entries.len() - self.free_slots.len()
    }

    /// Entries with every operand available, awaiting an issue slot.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Earliest completion-wheel bucket, if any instruction is in flight.
    ///
    /// The wheel retains stale (squashed) references until their bucket is
    /// popped, so this is a conservative lower bound: the returned cycle
    /// may complete nothing, but nothing completes before it. That is
    /// exactly what the stall fast-forward needs.
    pub fn next_completion_cycle(&self) -> Option<u64> {
        self.wheel.keys().next().copied()
    }

    /// Install a dispatched entry, registering it with its producers'
    /// waiter lists (or the ready queue when every operand is already
    /// there). Caller has checked [`has_free`](Window::has_free).
    pub fn install(&mut self, e: Entry) -> u32 {
        let slot = self.free_slots.pop().expect("checked non-empty");
        let mut all_ready = true;
        for s in e.srcs {
            if let SrcState::Wait(p) = s {
                all_ready = false;
                self.waiters[p as usize].push((slot, e.seq));
            }
        }
        if all_ready {
            self.ready.insert((e.seq, slot));
        }
        self.entries[slot as usize] = e;
        slot
    }

    /// Free `slot` (commit or squash): return its rename register, clear
    /// its indexed state, and put the slot back on the free list.
    pub fn release(&mut self, slot: u32, rename: &mut RenamePools) {
        let e = &mut self.entries[slot as usize];
        debug_assert!(e.valid);
        if let Some(d) = e.dest {
            rename.release(d);
        }
        let seq = e.seq;
        let was_waiting = e.state == EState::Waiting;
        *e = DEAD;
        self.free_slots.push(slot);
        self.waiters[slot as usize].clear();
        if was_waiting {
            // Only un-issued entries can sit in the ready queue; wheel
            // entries are filtered lazily by their seq check instead.
            self.ready.remove(&(seq, slot));
        }
    }

    // ------------------------------------------------------------------
    // complete: retire execution, wake dependents, resolve branches.
    // ------------------------------------------------------------------
    pub fn complete_phase<P: Probe>(
        &mut self,
        regs: &mut Regs,
        rename: &mut RenamePools,
        bpred: &mut BranchPredictor,
        now: u64,
        probe: &mut P,
        cluster_id: u32,
    ) {
        // Pop every due wheel bucket (normally exactly one) and filter
        // out stale references — squashed since issue, slot possibly
        // reissued under a newer seq.
        self.complete_buf.clear();
        while let Some((&at, _)) = self.wheel.iter().next() {
            if at > now {
                break;
            }
            let mut bucket = self.wheel.remove(&at).expect("key just seen");
            self.complete_buf.append(&mut bucket);
            self.spare_buckets.push(bucket);
        }
        let entries = &self.entries;
        self.complete_buf.retain(|&(slot, seq)| {
            let e = &entries[slot as usize];
            e.valid && e.seq == seq && matches!(e.state, EState::Exec { .. })
        });
        // Mark Done and emit writebacks in slot order — the order the
        // monolith's ascending full-window scan produced.
        self.complete_buf.sort_unstable();
        for i in 0..self.complete_buf.len() {
            let (slot, seq) = self.complete_buf[i];
            self.entries[slot as usize].state = EState::Done;
            emit(probe, Wants::INST, || {
                Event::Writeback(StageEvent {
                    cycle: now,
                    cluster: cluster_id,
                    uid: seq,
                })
            });
        }
        // Wake dependents, resolve branches (oldest first so squashes are
        // handled in age order).
        self.complete_buf.sort_unstable_by_key(|&(_, seq)| seq);
        for i in 0..self.complete_buf.len() {
            let (slot, seq) = self.complete_buf[i];
            let e = &self.entries[slot as usize];
            if !e.valid || e.seq != seq {
                continue; // squashed by an older branch this same cycle
            }
            let (has_branch, pc, taken, target, mispredicted, thread) = (
                e.has_branch,
                e.pc,
                e.br_taken,
                e.br_target,
                e.mispredicted,
                e.thread as usize,
            );
            // Wake this result's registered consumers.
            let mut waiters = std::mem::take(&mut self.waiters[slot as usize]);
            for &(wslot, wseq) in &waiters {
                let w = &mut self.entries[wslot as usize];
                if !w.valid || w.seq != wseq {
                    continue; // waiter squashed since registering
                }
                let mut all_ready = true;
                for s in w.srcs.iter_mut() {
                    if *s == SrcState::Wait(slot) {
                        *s = SrcState::Ready;
                    }
                    if matches!(*s, SrcState::Wait(_)) {
                        all_ready = false;
                    }
                }
                if all_ready && w.state == EState::Waiting {
                    self.ready.insert((wseq, wslot));
                }
            }
            waiters.clear();
            self.waiters[slot as usize] = waiters; // keep the capacity
            if has_branch {
                bpred.resolve(pc, taken, target, mispredicted);
                if mispredicted {
                    self.squash_after(thread, seq, now, regs, rename, probe, cluster_id);
                }
            }
        }
    }

    /// Remove all of `thread`'s instructions younger than `seq` (the
    /// wrong-path fetches), rebuild its map table, resume correct-path
    /// fetch.
    #[allow(clippy::too_many_arguments)]
    pub fn squash_after<P: Probe>(
        &mut self,
        thread: usize,
        seq: u64,
        now: u64,
        regs: &mut Regs,
        rename: &mut RenamePools,
        probe: &mut P,
        cluster_id: u32,
    ) {
        while let Some(&back) = regs.threads[thread].fifo.back() {
            let victim_seq = self.entries[back as usize].seq;
            if victim_seq <= seq {
                break;
            }
            regs.threads[thread].fifo.pop_back();
            self.release(back, rename);
            emit(probe, Wants::INST, || {
                Event::Squash(StageEvent {
                    cycle: now,
                    cluster: cluster_id,
                    uid: victim_seq,
                })
            });
        }
        let t = &mut regs.threads[thread];
        rename::rebuild_map(t, &self.entries);
        if t.state == ThreadState::WrongPath {
            t.state = ThreadState::Running;
        }
        t.redirect_until = now + 1;
    }

    // ------------------------------------------------------------------
    // issue: oldest-first over the ready queue.
    // ------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    pub fn issue_phase<P: Probe>(
        &mut self,
        regs: &Regs,
        fu: &mut FuPool,
        mem: &mut MemorySystem,
        node: usize,
        now: u64,
        width: usize,
        probe: &mut P,
        cluster_id: u32,
    ) -> (usize, usize) {
        self.issued_buf.clear();
        let mut useful = 0;
        let mut wrong = 0;
        for &(seq, slot) in self.ready.iter() {
            if useful + wrong >= width {
                break;
            }
            let (op, addr, is_store, thread, wrong_path) = {
                let e = &self.entries[slot as usize];
                (
                    e.op,
                    e.mem_addr,
                    e.is_store,
                    e.thread as usize,
                    e.wrong_path,
                )
            };
            if !fu.can_issue(op, now) {
                fu.note_structural_stall();
                continue;
            }
            let done_at = if op == OpClass::Load {
                // Store-to-load forwarding within the thread's in-flight
                // stores (full load bypassing, §3.1).
                if lsq::store_forwards(&self.entries, &regs.threads[thread].fifo, seq, addr) {
                    fu.issue(op, now)
                } else {
                    if mem.free_mshrs(node, now) == 0 {
                        // Outstanding-load limit reached: cannot issue.
                        continue;
                    }
                    fu.issue(op, now);
                    let out = mem.access_probed(node, addr, AccessKind::Read, now, probe);
                    out.complete_at.max(now + op.latency() as u64)
                }
            } else if is_store {
                // Stores only compute their address/value here; the cache
                // write happens at commit.
                fu.issue(op, now)
            } else {
                fu.issue(op, now)
            };
            self.entries[slot as usize].state = EState::Exec { done_at };
            // The earliest complete() that can observe the instruction
            // runs next cycle, exactly as the monolith's scan did.
            self.issued_buf.push((seq, slot, done_at.max(now + 1)));
            emit(probe, Wants::INST, || {
                Event::Issue(StageEvent {
                    cycle: now,
                    cluster: cluster_id,
                    uid: seq,
                })
            });
            if wrong_path {
                wrong += 1;
            } else {
                useful += 1;
            }
        }
        // Issued entries leave the ready queue and land on the wheel.
        let issued = std::mem::take(&mut self.issued_buf);
        for &(seq, slot, at) in &issued {
            self.ready.remove(&(seq, slot));
            let spare = &mut self.spare_buckets;
            self.wheel
                .entry(at)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push((slot, seq));
        }
        self.issued_buf = issued;
        (useful, wrong)
    }
}
