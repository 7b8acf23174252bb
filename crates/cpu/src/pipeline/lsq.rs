//! Load/store queue concerns: the committed-store buffer that absorbs
//! store cache-write latency, and store-to-load forwarding within a
//! thread's in-flight instructions (full load bypassing, §3.1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use super::regs::Entry;

/// Completed stores still draining to the cache, ordered by completion
/// cycle (min-heap), so retiring a store pops finished drains from the
/// front instead of sweeping the whole buffer.
pub(crate) struct StoreBuffer {
    draining: BinaryHeap<Reverse<u64>>,
    cap: usize,
}

impl StoreBuffer {
    pub fn new(cap: usize) -> Self {
        StoreBuffer {
            draining: BinaryHeap::with_capacity(cap),
            cap,
        }
    }

    /// Drop every drain that has completed by `now`.
    pub fn drain_completed(&mut self, now: u64) {
        while let Some(&Reverse(t)) = self.draining.peek() {
            if t > now {
                break;
            }
            self.draining.pop();
        }
    }

    /// A full buffer stalls the committing thread's retirement until a
    /// drain completes (a structural hazard).
    pub fn is_full(&self) -> bool {
        self.draining.len() >= self.cap
    }

    /// Record a store whose cache write completes at `complete_at`.
    pub fn push(&mut self, complete_at: u64) {
        self.draining.push(Reverse(complete_at));
    }
}

/// Whether a load at (`seq`, `addr`) forwards from an older in-flight
/// store of the same thread. `stores` is that thread's store list
/// ([`ThreadCtx::stores`](super::regs::ThreadCtx)).
pub(crate) fn store_forwards(
    entries: &[Entry],
    stores: &VecDeque<u32>,
    seq: u64,
    addr: u64,
) -> bool {
    stores.iter().any(|&s| {
        let w = &entries[s as usize];
        w.is_store && w.seq < seq && w.mem_addr == addr
    })
}
