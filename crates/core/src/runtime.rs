//! The parallel runtime: barriers, locks, thread lifecycle.
//!
//! The paper's Fortran applications are parallelized by Polaris into
//! fork-join loops, and its SPLASH-2 applications use the ANL m4 macros —
//! both reduce to threads that compute, arrive at barriers, and occasionally
//! serialize on locks. Hardware reports a thread reaching a sync marker
//! (after its pipeline drains) via [`csmt_cpu::ClusterEvent`]; this module
//! decides when each parked thread may resume. While parked, a thread's
//! issue share is charged to the `sync` hazard ("spinning on barriers or
//! locks"), exactly the quantity in the paper's stacked bars.

use csmt_isa::SyncOp;
use std::collections::{BTreeMap, VecDeque};

/// Global software-thread id across the whole machine.
pub type ThreadId = usize;

/// What the runtime wants the machine to do after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Resume this thread now.
    Resume(ThreadId),
}

#[derive(Debug, Default)]
struct Barrier {
    arrived: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct Lock {
    held_by: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
}

/// Coordinates `n_threads` software threads, optionally partitioned into
/// independent *groups* (multiprogrammed mixes: each program's threads
/// synchronize only among themselves; barrier and lock namespaces are
/// per group).
#[derive(Debug)]
pub struct Runtime {
    n_threads: usize,
    /// Group of each thread (all zero for a single parallel application).
    group_of: Vec<usize>,
    /// Live (not yet exited) threads per group.
    live_per_group: Vec<usize>,
    // Ordered maps: `thread_done` iterates `barriers` to find ones a
    // shrinking group completes, and the order of the resulting
    // `Action::Resume` pushes is digest-visible. (A `HashMap` here could
    // not be iterated: crates/clippy.toml bans it, DESIGN.md §14.)
    barriers: BTreeMap<(usize, u32), Barrier>,
    locks: BTreeMap<(usize, u32), Lock>,
    done: Vec<bool>,
    barrier_episodes: u64,
    lock_acquisitions: u64,
}

impl Runtime {
    /// Runtime for `n_threads` participants of one parallel application.
    /// Every barrier is a full barrier over all *live* (not yet exited)
    /// threads, matching the fork-join structure the workload generators
    /// emit.
    pub fn new(n_threads: usize) -> Self {
        Self::with_groups(vec![0; n_threads])
    }

    /// Runtime for a multiprogrammed mix: `groups[t]` is thread `t`'s
    /// program; synchronization is scoped within each program.
    pub fn with_groups(groups: Vec<usize>) -> Self {
        let n_threads = groups.len();
        let n_groups = groups.iter().copied().max().map_or(0, |g| g + 1);
        let mut live = vec![0usize; n_groups];
        for &g in &groups {
            live[g] += 1;
        }
        Runtime {
            n_threads,
            group_of: groups,
            live_per_group: live,
            barriers: BTreeMap::new(),
            locks: BTreeMap::new(),
            done: vec![false; n_threads],
            barrier_episodes: 0,
            lock_acquisitions: 0,
        }
    }

    /// Number of participating threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// True when every thread has exited.
    pub fn all_done(&self) -> bool {
        self.live_per_group.iter().all(|&l| l == 0)
    }

    /// Handle a thread reaching a sync point; append resume actions.
    pub fn sync_reached(&mut self, tid: ThreadId, op: SyncOp, actions: &mut Vec<Action>) {
        debug_assert!(!self.done[tid], "done thread reported sync");
        let group = self.group_of[tid];
        match op {
            SyncOp::Barrier(id) => {
                let b = self.barriers.entry((group, id)).or_default();
                debug_assert!(!b.arrived.contains(&tid), "double barrier arrival");
                b.arrived.push(tid);
                if b.arrived.len() >= self.live_per_group[group] {
                    self.barrier_episodes += 1;
                    let b = self.barriers.remove(&(group, id)).expect("just inserted");
                    for t in b.arrived {
                        actions.push(Action::Resume(t));
                    }
                }
            }
            SyncOp::LockAcquire(id) => {
                let l = self.locks.entry((group, id)).or_default();
                if l.held_by.is_none() {
                    l.held_by = Some(tid);
                    self.lock_acquisitions += 1;
                    actions.push(Action::Resume(tid));
                } else {
                    l.queue.push_back(tid);
                }
            }
            SyncOp::LockRelease(id) => {
                let l = self.locks.entry((group, id)).or_default();
                debug_assert_eq!(l.held_by, Some(tid), "release by non-holder");
                l.held_by = None;
                if let Some(next) = l.queue.pop_front() {
                    l.held_by = Some(next);
                    self.lock_acquisitions += 1;
                    actions.push(Action::Resume(next));
                }
                // Releasing never blocks the releasing thread.
                actions.push(Action::Resume(tid));
            }
            SyncOp::Exit => {
                self.thread_done(tid, actions);
            }
        }
    }

    /// Handle a thread finishing its program. If it was the last straggler
    /// other threads were waiting on at a barrier, release them.
    pub fn thread_done(&mut self, tid: ThreadId, actions: &mut Vec<Action>) {
        if self.done[tid] {
            return;
        }
        self.done[tid] = true;
        let group = self.group_of[tid];
        self.live_per_group[group] -= 1;
        // A shrinking participant count can complete pending barriers of
        // this thread's group.
        let live = self.live_per_group[group];
        let ready: Vec<(usize, u32)> = self
            .barriers
            .iter()
            .filter(|(&(g, _), b)| g == group && b.arrived.len() >= live && !b.arrived.is_empty())
            .map(|(&k, _)| k)
            .collect();
        for k in ready {
            self.barrier_episodes += 1;
            let b = self.barriers.remove(&k).expect("listed");
            for t in b.arrived {
                actions.push(Action::Resume(t));
            }
        }
    }

    /// (completed barrier episodes, lock acquisitions).
    pub fn stats(&self) -> (u64, u64) {
        (self.barrier_episodes, self.lock_acquisitions)
    }

    /// True once thread `tid` has exited.
    pub fn is_done(&self, tid: ThreadId) -> bool {
        self.done[tid]
    }

    /// Number of threads that have exited so far (all groups).
    pub fn done_count(&self) -> usize {
        self.done.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_only_when_all_arrive() {
        let mut r = Runtime::new(3);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::Barrier(1), &mut a);
        r.sync_reached(2, SyncOp::Barrier(1), &mut a);
        assert!(a.is_empty());
        r.sync_reached(1, SyncOp::Barrier(1), &mut a);
        let mut resumed: Vec<_> = a.iter().map(|Action::Resume(t)| *t).collect();
        resumed.sort();
        assert_eq!(resumed, vec![0, 1, 2]);
        assert_eq!(r.stats().0, 1);
    }

    #[test]
    fn distinct_barriers_are_independent() {
        let mut r = Runtime::new(2);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::Barrier(1), &mut a);
        r.sync_reached(1, SyncOp::Barrier(2), &mut a);
        assert!(a.is_empty(), "different ids must not match");
    }

    #[test]
    fn lock_grants_immediately_when_free() {
        let mut r = Runtime::new(2);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::LockAcquire(9), &mut a);
        assert_eq!(a, vec![Action::Resume(0)]);
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let mut r = Runtime::new(3);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::LockAcquire(9), &mut a);
        a.clear();
        r.sync_reached(1, SyncOp::LockAcquire(9), &mut a);
        r.sync_reached(2, SyncOp::LockAcquire(9), &mut a);
        assert!(a.is_empty(), "holders queue");
        r.sync_reached(0, SyncOp::LockRelease(9), &mut a);
        // Thread 1 gets the lock; thread 0 continues.
        assert!(a.contains(&Action::Resume(1)));
        assert!(a.contains(&Action::Resume(0)));
        assert!(!a.contains(&Action::Resume(2)));
        a.clear();
        r.sync_reached(1, SyncOp::LockRelease(9), &mut a);
        assert!(a.contains(&Action::Resume(2)));
        assert_eq!(r.stats().1, 3);
    }

    #[test]
    fn exit_of_straggler_releases_pending_barrier() {
        let mut r = Runtime::new(3);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::Barrier(4), &mut a);
        r.sync_reached(1, SyncOp::Barrier(4), &mut a);
        assert!(a.is_empty());
        // Thread 2 exits instead of arriving (uneven work tails).
        r.thread_done(2, &mut a);
        let resumed: Vec<_> = a.iter().map(|Action::Resume(t)| *t).collect();
        assert!(resumed.contains(&0) && resumed.contains(&1));
    }

    #[test]
    fn all_done_only_after_every_exit() {
        let mut r = Runtime::new(2);
        let mut a = Vec::new();
        assert!(!r.all_done());
        r.sync_reached(0, SyncOp::Exit, &mut a);
        assert!(!r.all_done());
        r.sync_reached(1, SyncOp::Exit, &mut a);
        assert!(r.all_done());
    }

    #[test]
    fn groups_scope_barriers_independently() {
        // Two 2-thread programs: group 0 = {0,1}, group 1 = {2,3}.
        let mut r = Runtime::with_groups(vec![0, 0, 1, 1]);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::Barrier(0), &mut a);
        r.sync_reached(2, SyncOp::Barrier(0), &mut a);
        assert!(a.is_empty(), "same id, different groups: no release");
        r.sync_reached(1, SyncOp::Barrier(0), &mut a);
        let resumed: Vec<_> = a.iter().map(|Action::Resume(t)| *t).collect();
        assert!(resumed.contains(&0) && resumed.contains(&1));
        assert!(!resumed.contains(&2), "group 1 still waiting");
        a.clear();
        r.sync_reached(3, SyncOp::Barrier(0), &mut a);
        let resumed: Vec<_> = a.iter().map(|Action::Resume(t)| *t).collect();
        assert!(resumed.contains(&2) && resumed.contains(&3));
    }

    #[test]
    fn groups_scope_locks_independently() {
        let mut r = Runtime::with_groups(vec![0, 1]);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::LockAcquire(5), &mut a);
        r.sync_reached(1, SyncOp::LockAcquire(5), &mut a);
        // Same lock id in different groups: both granted immediately.
        assert!(a.contains(&Action::Resume(0)));
        assert!(a.contains(&Action::Resume(1)));
        assert_eq!(r.stats().1, 2);
    }

    #[test]
    fn group_exit_only_affects_own_group() {
        let mut r = Runtime::with_groups(vec![0, 0, 1]);
        let mut a = Vec::new();
        r.sync_reached(0, SyncOp::Barrier(9), &mut a);
        // Group 1's thread exits; group 0's pending barrier must not fire.
        r.thread_done(2, &mut a);
        assert!(a.is_empty());
        assert!(!r.all_done());
        r.sync_reached(1, SyncOp::Barrier(9), &mut a);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn duplicate_done_is_idempotent() {
        let mut r = Runtime::new(2);
        let mut a = Vec::new();
        r.thread_done(0, &mut a);
        r.thread_done(0, &mut a);
        assert!(!r.all_done());
        r.thread_done(1, &mut a);
        assert!(r.all_done());
    }
}
