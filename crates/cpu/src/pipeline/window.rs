//! The shared instruction window / reorder buffer and its scheduling
//! machinery: completion, wakeup, and oldest-first select.
//!
//! One cycle costs O(instructions that moved this cycle), not O(window):
//! nothing here walks the window, and every structure is flat.
//!
//! - a **completion wheel** ([`CompletionWheel`]): at issue, an instruction
//!   lands in the bucket for the first cycle `complete` can observe it. The
//!   wheel is a 64-bucket ring indexed by `cycle & 63` (the buckets are
//!   lists in one shared node pool) with an occupancy bit per bucket,
//!   covering the next 64 cycles — Table 3's L1, L2,
//!   local- and remote-memory round trips (1/10/40/60) all fit — so push
//!   and drain are a rotate and a mask; what lands further out (a
//!   75-cycle remote-L2 transfer, a miss behind a TLB refill or a
//!   queue) waits in a small min-heap. `complete` drains every
//!   bucket since its last call, not just the one for `now`: direct
//!   `Cluster::step` callers may skip cycles;
//! - **per-producer waiter lists** (`waiters`): consumers register at
//!   dispatch; a completing result wakes only its actual consumers
//!   instead of broadcasting a tag match over every window entry;
//! - a **ready queue** (`ready`, a `Vec` sorted by `(seq, slot)`): entries
//!   enter when their last operand arrives, so oldest-first select walks
//!   only ready instructions. Dispatch carries the largest `seq` yet and
//!   appends; a wakeup binary-search inserts; the instructions one cycle
//!   issues are an in-order subsequence and leave in one pass;
//! - **§4.1 class counts** (`class_counts`): each entry caches its hazard
//!   class and each thread the number of its entries per class. A class is
//!   a function of the entry's own state and operands and of whether a
//!   producing load is executing, so it is recomputed
//!   ([`Window::reclassify`]) exactly where one of those changes: install,
//!   issue (the entry, and a load's waiters: `data` becomes `memory`),
//!   completion (the entry, and each woken waiter), and release.
//!
//! Stale references (a squash freed — and possibly refilled — a slot
//! after it was indexed) are filtered by re-checking the entry's `seq`:
//! sequence numbers are unique for the life of the cluster.

use crate::bpred::BranchPredictor;
use crate::fu::FuPool;
use csmt_isa::{ArchReg, OpClass};
use csmt_mem::{AccessKind, MemorySystem};
use csmt_trace::{emit, Event, Probe, StageEvent, Wants};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::lsq;
use super::regs::{EState, Entry, HazardClass, Regs, SrcState, ThreadState, DEAD};
use super::rename::{self, RenamePools};

/// Cycles the completion ring covers ahead of its drain cursor.
const RING: u64 = 64;

/// One ring-bucket list node.
struct WheelNode {
    slot: u32,
    next: u32,
    seq: u64,
}

/// End of a node list.
const NIL: u32 = u32::MAX;

/// Pending completions keyed by the cycle `complete` first observes them:
/// a ring for the next [`RING`] cycles plus a min-heap for the rest.
struct CompletionWheel {
    /// Bucket `at & 63` heads the list of completions at cycle `at`, for
    /// `at` in `(drained, drained + RING]` — one cycle per bucket.
    heads: [u32; RING as usize],
    /// The buckets' list nodes and, threaded through `free`, the spare
    /// ones. One pool for all buckets: together they hold at most a
    /// window's worth of issues (plus squashed leftovers), so the pool
    /// stays window-sized where 64 vectors grown apart would not.
    nodes: Vec<WheelNode>,
    free: u32,
    /// Bit `i` set iff bucket `i` is non-empty.
    occupied: u64,
    /// Every ring bucket for a cycle `<= drained` is empty.
    drained: u64,
    /// Completions pushed more than [`RING`] cycles ahead: `(at, slot, seq)`.
    far: BinaryHeap<Reverse<(u64, u32, u64)>>,
}

impl CompletionWheel {
    fn new() -> Self {
        CompletionWheel {
            heads: [NIL; RING as usize],
            nodes: Vec::new(),
            free: NIL,
            occupied: 0,
            drained: 0,
            far: BinaryHeap::new(),
        }
    }

    fn push(&mut self, at: u64, slot: u32, seq: u64) {
        if at > self.drained && at - self.drained <= RING {
            let i = (at % RING) as usize;
            let next = self.heads[i];
            let node = WheelNode { slot, next, seq };
            let n = self.free;
            if n == NIL {
                self.heads[i] = self.nodes.len() as u32;
                self.nodes.push(node);
            } else {
                self.free = self.nodes[n as usize].next;
                self.nodes[n as usize] = node;
                self.heads[i] = n;
            }
            self.occupied |= 1 << i;
        } else {
            self.far.push(Reverse((at, slot, seq)));
        }
    }

    /// `occupied` rotated so bit `k` stands for cycle `drained + 1 + k`.
    fn upcoming(&self) -> u64 {
        self.occupied
            .rotate_right(((self.drained + 1) % RING) as u32)
    }

    /// The first cycle after `drained` holding a pending completion —
    /// live or stale — or `u64::MAX` when nothing is pending: until then
    /// `drain_due` finds nothing.
    fn next_due(&self) -> u64 {
        let ring = if self.occupied == 0 {
            u64::MAX
        } else {
            self.drained + 1 + u64::from(self.upcoming().trailing_zeros())
        };
        self.far
            .peek()
            .map_or(ring, |&Reverse((at, ..))| ring.min(at))
    }

    /// Move every completion due by `now` into `out` (unordered).
    fn drain_due(&mut self, now: u64, out: &mut Vec<(u32, u64)>) {
        let span = now.saturating_sub(self.drained);
        if span > 0 && self.occupied != 0 {
            let mut due = self.upcoming();
            if span < RING {
                due &= (1 << span) - 1;
            }
            let first = self.drained + 1;
            self.occupied &= !due.rotate_left((first % RING) as u32);
            while due != 0 {
                let at = first + u64::from(due.trailing_zeros());
                due &= due - 1;
                let mut n = std::mem::replace(&mut self.heads[(at % RING) as usize], NIL);
                while n != NIL {
                    let node = &mut self.nodes[n as usize];
                    out.push((node.slot, node.seq));
                    // Unlink onto the free list.
                    let next = node.next;
                    node.next = self.free;
                    self.free = n;
                    n = next;
                }
            }
        }
        self.drained = self.drained.max(now);
        while let Some(&Reverse((at, slot, seq))) = self.far.peek() {
            if at > now {
                break;
            }
            self.far.pop();
            out.push((slot, seq));
        }
    }
}

pub(crate) struct Window {
    pub entries: Vec<Entry>,
    /// The renaming registers held, one bit per slot in each register
    /// file's mask (`[int, fp]`): set by install, cleared by release
    /// (commit or squash), the only record of them. The per-cycle
    /// `Wants::POOL` snapshot is two popcounts.
    held: [u128; 2],
    /// Per slot, the architectural number of the register it holds;
    /// meaningful only while one of its `held` bits is set.
    reg: Vec<u8>,
    pub free_slots: Vec<u32>,
    /// Consumers of each producer slot's result: `(slot, seq)` of the
    /// waiting entry, registered at dispatch, drained at completion.
    waiters: Vec<Vec<(u32, u64)>>,
    /// Entries with every operand ready, awaiting issue. Sorted by
    /// `(seq, slot)`, so iteration is the oldest-first select order.
    ready: Vec<(u64, u32)>,
    wheel: CompletionWheel,
    /// Per hardware context: its live entries by cached
    /// [`HazardClass`] (indexed `class as usize`).
    class_counts: Vec<[u32; HazardClass::COUNT]>,
    /// Scratch: this cycle's completions, `(slot, seq)`.
    complete_buf: Vec<(u32, u64)>,
    /// Scratch: this cycle's issues, `(seq, slot, wheel bucket)`.
    issued_buf: Vec<(u64, u32, u64)>,
}

impl Window {
    pub fn new(n: usize, hw_threads: usize) -> Self {
        // Table 2's widest cluster, 8 × 16: one `u128` mask bit a slot.
        assert!(n <= 128, "a {n}-entry window overflows the held masks");
        Window {
            entries: vec![DEAD; n],
            held: [0; 2],
            reg: vec![0; n],
            free_slots: (0..n as u32).rev().collect(),
            waiters: (0..n).map(|_| Vec::new()).collect(),
            ready: Vec::with_capacity(n),
            wheel: CompletionWheel::new(),
            class_counts: vec![[0; HazardClass::COUNT]; hw_threads],
            complete_buf: Vec::with_capacity(n),
            issued_buf: Vec::with_capacity(n),
        }
    }

    /// True if dispatch has a slot to install into.
    pub fn has_free(&self) -> bool {
        !self.free_slots.is_empty()
    }

    /// True if no entry awaits issue.
    pub fn ready_is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// The first cycle `complete` can find anything to do: see
    /// [`CompletionWheel::next_due`].
    pub fn next_due(&self) -> u64 {
        self.wheel.next_due()
    }

    /// The renaming register `slot`'s entry holds, if any.
    pub fn dest(&self, slot: u32) -> Option<ArchReg> {
        let bit = 1u128 << slot;
        let r = self.reg[slot as usize];
        if self.held[0] & bit != 0 {
            Some(ArchReg::Int(r))
        } else if self.held[1] & bit != 0 {
            Some(ArchReg::Fp(r))
        } else {
            None
        }
    }

    /// Renaming registers held by window slots: `(int, fp)`.
    pub fn held(&self) -> (u32, u32) {
        (self.held[0].count_ones(), self.held[1].count_ones())
    }

    /// Per hardware context, its live entries by §4.1 class.
    pub fn class_counts(&self) -> &[[u32; HazardClass::COUNT]] {
        &self.class_counts
    }

    /// The §4.1 class of `e` as the window stands: what the paper's scan
    /// records for one instruction.
    pub fn classify(&self, e: &Entry) -> HazardClass {
        match e.state {
            EState::Waiting if e.wrong_path => HazardClass::Control,
            EState::Waiting => {
                let mut class = HazardClass::Structural;
                for src in &e.srcs {
                    if let SrcState::Wait(p) = src {
                        let prod = &self.entries[*p as usize];
                        if prod.op == OpClass::Load && prod.state == EState::Exec {
                            return HazardClass::Memory;
                        }
                        class = HazardClass::Data;
                    }
                }
                class
            }
            // An issued load still waiting on the memory system keeps its
            // slice of the machine busy: charge it as a memory hazard, as
            // the paper's window scan does for instructions held up by
            // memory accesses.
            EState::Exec if e.op == OpClass::Load => HazardClass::Memory,
            EState::Exec | EState::Done => HazardClass::None,
        }
    }

    /// Recompute `slot`'s cached class after one of its inputs changed and
    /// move its thread's counts accordingly.
    fn reclassify(&mut self, slot: u32) {
        let e = &self.entries[slot as usize];
        let class = self.classify(e);
        if class != e.class {
            let counts = &mut self.class_counts[e.thread as usize];
            counts[e.class as usize] -= 1;
            counts[class as usize] += 1;
            self.entries[slot as usize].class = class;
        }
    }

    /// Install a dispatched entry holding the renaming register allocated
    /// for `dest`, registering it with its producers' waiter lists (or the
    /// ready queue when every operand is already there). Caller has
    /// checked [`has_free`](Window::has_free).
    pub fn install(&mut self, mut e: Entry, dest: Option<ArchReg>) -> u32 {
        let slot = self.free_slots.pop().expect("checked non-empty");
        if let Some(d) = dest {
            let (ArchReg::Int(r) | ArchReg::Fp(r)) = d;
            self.held[usize::from(d.is_fp())] |= 1u128 << slot;
            self.reg[slot as usize] = r;
        }
        let mut all_ready = true;
        for s in e.srcs {
            if let SrcState::Wait(p) = s {
                all_ready = false;
                self.waiters[p as usize].push((slot, e.seq));
            }
        }
        if all_ready {
            // Dispatch order is seq order: the newest entry sorts last.
            debug_assert!(self.ready.last().is_none_or(|&(seq, _)| seq < e.seq));
            self.ready.push((e.seq, slot));
        }
        e.class = self.classify(&e);
        self.class_counts[e.thread as usize][e.class as usize] += 1;
        self.entries[slot as usize] = e;
        slot
    }

    /// Free `slot` (commit or squash): return its rename register, clear
    /// its indexed state, and put the slot back on the free list.
    pub fn release(&mut self, slot: u32, rename: &mut RenamePools) {
        if let Some(d) = self.dest(slot) {
            rename.release(d);
            self.held[usize::from(d.is_fp())] &= !(1u128 << slot);
        }
        let e = &mut self.entries[slot as usize];
        debug_assert!(e.valid);
        let seq = e.seq;
        let was_waiting = e.state == EState::Waiting;
        self.class_counts[e.thread as usize][e.class as usize] -= 1;
        *e = DEAD;
        self.free_slots.push(slot);
        self.waiters[slot as usize].clear();
        if was_waiting {
            // Only un-issued entries can sit in the ready queue; wheel
            // entries are filtered lazily by their seq check instead.
            if let Ok(i) = self.ready.binary_search(&(seq, slot)) {
                self.ready.remove(i);
            }
        }
    }

    // ------------------------------------------------------------------
    // complete: retire execution, wake dependents, resolve branches.
    // Returns the number of instructions that completed.
    // ------------------------------------------------------------------
    pub fn complete_phase<P: Probe>(
        &mut self,
        regs: &mut Regs,
        rename: &mut RenamePools,
        bpred: &mut BranchPredictor,
        now: u64,
        probe: &mut P,
        cluster_id: u32,
    ) -> usize {
        // Drain every due wheel bucket (normally exactly one) and filter
        // out stale references — squashed since issue, slot possibly
        // reissued under a newer seq.
        self.complete_buf.clear();
        self.wheel.drain_due(now, &mut self.complete_buf);
        let entries = &self.entries;
        self.complete_buf.retain(|&(slot, seq)| {
            let e = &entries[slot as usize];
            e.valid && e.seq == seq && e.state == EState::Exec
        });
        // Mark Done and emit writebacks in slot order — the order the
        // monolith's ascending full-window scan produced.
        self.complete_buf.sort_unstable();
        for i in 0..self.complete_buf.len() {
            let (slot, seq) = self.complete_buf[i];
            self.entries[slot as usize].state = EState::Done;
            self.reclassify(slot);
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
                    // `Ok`: both operands named this producer, so the
                    // waiter is listed twice and was queued a moment ago.
                    if let Err(i) = self.ready.binary_search(&(wseq, wslot)) {
                        self.ready.insert(i, (wseq, wslot));
                    }
                }
                self.reclassify(wslot);
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
        self.complete_buf.len()
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
            let t = &mut regs.threads[thread];
            t.fifo.pop_back();
            if self.entries[back as usize].is_store {
                let popped = t.stores.pop_back();
                debug_assert_eq!(popped, Some(back));
            }
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
        rename::rebuild_map(t, self);
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
                continue;
            }
            let done_at = if op == OpClass::Load {
                // Store-to-load forwarding within the thread's in-flight
                // stores (full load bypassing, §3.1).
                if lsq::store_forwards(&self.entries, &regs.threads[thread].stores, seq, addr) {
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
            self.entries[slot as usize].state = EState::Exec;
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
        // Issued entries leave the ready queue — they are an in-order
        // subsequence of it — and land on the wheel.
        let issued = std::mem::take(&mut self.issued_buf);
        if !issued.is_empty() {
            let mut next = issued.iter().map(|&(seq, ..)| seq).peekable();
            self.ready
                .retain(|&(seq, _)| next.next_if_eq(&seq).is_none());
        }
        for &(seq, slot, at) in &issued {
            self.wheel.push(at, slot, seq);
            self.reclassify(slot);
            if self.entries[slot as usize].op == OpClass::Load {
                // A consumer of an executing load waits on memory, not data.
                for i in 0..self.waiters[slot as usize].len() {
                    let (wslot, wseq) = self.waiters[slot as usize][i];
                    let w = &self.entries[wslot as usize];
                    if w.valid && w.seq == wseq {
                        self.reclassify(wslot);
                    }
                }
            }
        }
        self.issued_buf = issued;
        (useful, wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::pipeline::regs::ThreadCtx;
    use csmt_isa::SplitMix64;
    use csmt_mem::MemConfig;
    use csmt_trace::NullProbe;

    /// A window plus everything its phases borrow, for one 4-issue context.
    struct Rig {
        win: Window,
        regs: Regs,
        rename: RenamePools,
        bpred: BranchPredictor,
        fu: FuPool,
        mem: MemorySystem,
        seq: u64,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = ClusterConfig::for_width(4, 1);
            Rig {
                win: Window::new(cfg.window_entries(), 1),
                regs: Regs::new(vec![ThreadCtx::new(1, cfg.window_entries())]),
                rename: RenamePools::new(cfg.rename_regs(), cfg.rename_regs()),
                bpred: BranchPredictor::with_kind(cfg.predictor),
                fu: FuPool::new(cfg.fu_counts()),
                mem: MemorySystem::new(MemConfig::table3(), 1, 7),
                seq: 0,
            }
        }

        /// Dispatch an integer op waiting on the given producer slots.
        fn dispatch(&mut self, producers: &[u32]) -> u32 {
            self.seq += 1;
            let mut srcs = [SrcState::Ready; 2];
            for (s, &p) in srcs.iter_mut().zip(producers) {
                *s = SrcState::Wait(p);
            }
            self.win.install(
                Entry {
                    valid: true,
                    seq: self.seq,
                    op: OpClass::IntAlu,
                    srcs,
                    ..DEAD
                },
                None,
            )
        }

        fn issue(&mut self, now: u64, width: usize) -> usize {
            let (useful, wrong) = self.win.issue_phase(
                &self.regs,
                &mut self.fu,
                &mut self.mem,
                0,
                now,
                width,
                &mut NullProbe,
                0,
            );
            useful + wrong
        }

        fn complete(&mut self, now: u64) {
            self.win.complete_phase(
                &mut self.regs,
                &mut self.rename,
                &mut self.bpred,
                now,
                &mut NullProbe,
                0,
            );
        }

        fn ready_seqs(&self) -> Vec<u64> {
            self.win.ready.iter().map(|&(seq, _)| seq).collect()
        }
    }

    #[test]
    fn ready_queue_stays_in_seq_order() {
        let mut r = Rig::new();
        let a = r.dispatch(&[]); // seq 1
        r.dispatch(&[a]); // 2
        let c = r.dispatch(&[]); // 3
        r.dispatch(&[a, a]); // 4
        r.dispatch(&[]); // 5
        assert_eq!(r.ready_seqs(), [1, 3, 5]);
        // Partial issue: width 1 takes the oldest only.
        r.complete(0);
        assert_eq!(r.issue(0, 1), 1);
        assert_eq!(r.ready_seqs(), [3, 5]);
        // A's completion wakes 2 and 4 into the middle of the queue.
        r.complete(1);
        assert_eq!(r.ready_seqs(), [2, 3, 4, 5]);
        // A release from the middle, then a dispatch at the tail.
        r.win.release(c, &mut r.rename);
        r.dispatch(&[]); // 6
        assert_eq!(r.ready_seqs(), [2, 4, 5, 6]);
        // A multi-issue takes an in-order prefix.
        assert_eq!(r.issue(1, 3), 3);
        assert_eq!(r.ready_seqs(), [6]);
    }

    #[test]
    fn class_counts_follow_dispatch_issue_wakeup_release() {
        let mut r = Rig::new();
        let counts = |r: &Rig| r.win.class_counts()[0];
        let a = r.dispatch(&[]);
        let b = r.dispatch(&[a]);
        // [none, structural, memory, data, control]
        assert_eq!(counts(&r), [0, 1, 0, 1, 0]);
        r.complete(0);
        r.issue(0, 4);
        assert_eq!(counts(&r), [1, 0, 0, 1, 0]); // a executing, b on data
        r.complete(1);
        assert_eq!(counts(&r), [1, 1, 0, 0, 0]); // a done, b ready
        r.win.release(a, &mut r.rename);
        r.win.release(b, &mut r.rename);
        assert_eq!(counts(&r), [0; 5]);
    }

    #[test]
    fn squashed_reference_completes_nothing() {
        let mut r = Rig::new();
        let a = r.dispatch(&[]);
        r.complete(0);
        r.issue(0, 4);
        // Squash `a` and refill its slot under a newer seq before its
        // wheel reference comes due.
        r.win.release(a, &mut r.rename);
        let blocker = r.dispatch(&[]);
        let b = r.dispatch(&[blocker]);
        assert_eq!(
            (blocker, r.win.entries[b as usize].state),
            (a, EState::Waiting)
        );
        r.complete(1);
        assert_eq!(r.win.entries[a as usize].state, EState::Waiting);
        assert_eq!(r.win.entries[b as usize].srcs[0], SrcState::Wait(blocker));
    }

    /// A window entry fills one 64-byte cache line.
    #[test]
    fn an_entry_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }

    /// A held register is one mask bit a slot: install sets it, `dest`
    /// reads back the register install recorded, and release clears the
    /// bit and returns the register exactly once.
    #[test]
    fn install_sets_and_release_clears_a_held_bit() {
        let mut r = Rig::new();
        let free = (r.rename.int_free, r.rename.fp_free);
        assert!(r.rename.try_alloc(ArchReg::Fp(3)));
        assert!(r.rename.try_alloc(ArchReg::Int(31)));
        let e = |seq| Entry {
            valid: true,
            seq,
            ..DEAD
        };
        let a = r.win.install(e(1), Some(ArchReg::Fp(3)));
        let b = r.win.install(e(2), Some(ArchReg::Int(31)));
        let c = r.win.install(e(3), None);
        assert_eq!(r.win.held, [1 << b, 1 << a]);
        assert_eq!(
            [a, b, c].map(|s| r.win.dest(s)),
            [Some(ArchReg::Fp(3)), Some(ArchReg::Int(31)), None]
        );
        assert_eq!(r.win.held(), (1, 1));
        r.win.release(a, &mut r.rename);
        assert_eq!((r.win.dest(a), r.win.held()), (None, (1, 0)));
        r.win.release(b, &mut r.rename);
        r.win.release(c, &mut r.rename);
        assert_eq!(r.win.held, [0, 0]);
        assert_eq!((r.rename.int_free, r.rename.fp_free), free);
    }

    /// The widest Table 2 window fills every mask bit, the top one too.
    #[test]
    fn a_full_128_entry_window_holds_128_registers() {
        let mut win = Window::new(128, 1);
        for seq in 0..128u64 {
            let d = if seq % 2 == 0 {
                ArchReg::Int(seq as u8 % 32)
            } else {
                ArchReg::Fp(seq as u8 % 32)
            };
            let e = Entry {
                valid: true,
                seq: seq + 1,
                ..DEAD
            };
            let slot = win.install(e, Some(d));
            assert_eq!(win.dest(slot), Some(d));
        }
        assert_eq!(win.held(), (64, 64));
        assert_eq!(win.held[0] | win.held[1], u128::MAX);
        assert_eq!(win.held[0] & win.held[1], 0);
    }

    #[test]
    #[should_panic(expected = "overflows the held masks")]
    fn a_window_past_128_slots_is_refused() {
        Window::new(129, 1);
    }

    #[test]
    fn far_completion_waits_in_the_heap_and_pops_on_time() {
        let mut w = CompletionWheel::new();
        let mut out = Vec::new();
        w.drain_due(10, &mut out);
        w.push(10 + RING, 1, 100); // last ring cycle
        w.push(10 + RING + 1, 2, 200); // first far cycle
        assert_eq!((w.occupied.count_ones(), w.far.len()), (1, 1));
        w.drain_due(10 + RING - 1, &mut out);
        assert_eq!(out, []);
        w.drain_due(10 + RING, &mut out);
        assert_eq!(out, [(1, 100)]);
        out.clear();
        w.drain_due(10 + RING + 1, &mut out);
        assert_eq!(out, [(2, 200)]);
        assert_eq!((w.occupied, w.far.len()), (0, 0));
    }

    #[test]
    fn next_due_is_the_earliest_pending_cycle() {
        let mut w = CompletionWheel::new();
        assert_eq!(w.next_due(), u64::MAX);
        let mut out = Vec::new();
        w.drain_due(100, &mut out);
        w.push(100 + RING + 9, 1, 1); // far
        assert_eq!(w.next_due(), 100 + RING + 9);
        w.push(130, 2, 2); // ring, bucket index wraps past `drained`
        w.push(101, 3, 3);
        assert_eq!(w.next_due(), 101);
        w.drain_due(101, &mut out);
        assert_eq!(w.next_due(), 130);
        w.drain_due(150, &mut out);
        assert_eq!(w.next_due(), 100 + RING + 9);
        w.drain_due(100 + RING + 9, &mut out);
        assert_eq!((w.next_due(), out.len()), (u64::MAX, 3));
    }

    #[test]
    fn a_jump_past_the_ring_drains_everything_due() {
        let mut w = CompletionWheel::new();
        for (i, at) in [1, 30, RING, RING + 6, 200, 1001].into_iter().enumerate() {
            w.push(at, i as u32, at);
        }
        let mut out = Vec::new();
        w.drain_due(1000, &mut out);
        out.sort_unstable();
        assert_eq!(out, [(0, 1), (1, 30), (2, RING), (3, RING + 6), (4, 200)]);
        assert_eq!((w.occupied, w.far.len()), (0, 1));
    }

    /// Random pushes and time jumps against a plain list: every drain
    /// returns exactly what is due.
    #[test]
    fn wheel_matches_a_flat_list_model() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let mut w = CompletionWheel::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let (mut now, mut id) = (0u64, 0u32);
        let mut out = Vec::new();
        for _ in 0..4000 {
            // Mostly single steps, sometimes a multi-cycle jump.
            now += if rng.chance(0.9) {
                1
            } else {
                1 + rng.below(150)
            };
            out.clear();
            w.drain_due(now, &mut out);
            let mut got: Vec<u32> = out.iter().map(|&(slot, _)| slot).collect();
            got.sort_unstable();
            let mut due: Vec<u32> = model.iter().filter(|m| m.0 <= now).map(|m| m.1).collect();
            due.sort_unstable();
            assert_eq!(got, due, "cycle {now}");
            model.retain(|m| m.0 > now);
            for _ in 0..rng.below(4) {
                let horizon = if rng.chance(0.8) { 8 } else { 200 };
                let at = now + 1 + rng.below(horizon);
                w.push(at, id, u64::from(id));
                model.push((at, id));
                id += 1;
            }
        }
    }
}
