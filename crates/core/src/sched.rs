//! The thread-to-cluster scheduling seam.
//!
//! The paper only ever compares *static* partitionings of threads onto
//! clusters (SMTn vs FAn, §3.3). This module makes placement a first-class,
//! pluggable policy instead: a [`ThreadScheduler`] decides the initial
//! thread→context mapping and may request migrations at deterministic
//! *epochs* — barrier releases / thread exits, a fixed cycle quantum, or
//! both — never wall clock, so every policy is bit-for-bit reproducible.
//!
//! Three policies ship, one [`Policy`] each:
//!
//! * [`StaticRoundRobin`] — the paper's behavior (the default): round-robin
//!   placement at attach, no migrations. Pinned against the golden
//!   determinism digests.
//! * [`BarrierRebalance`] — at barrier releases and thread exits, even out
//!   the number of *live* threads per cluster: work freed by exited
//!   threads is redistributed instead of leaving clusters running empty.
//! * [`HazardPairing`] — SYNPA-style (arXiv 2310.12786): maintain an EWMA
//!   hazard signature (IPC, memory-boundedness) per thread and periodically
//!   swap threads so memory-bound and compute-bound threads co-locate,
//!   instead of memory-bound threads piling onto one cluster.
//!
//! Migration is drain-based (§4.1-safe): the machine parks the context
//! (state `Migrating`, charged to the sync hazard like other parked
//! states), lets in-flight work drain through commit, detaches the
//! architectural state, and re-attaches it [`MIGRATION_COST`] cycles later.

use crate::configs::ChipConfig;
use crate::machine::{round_robin_placement, Machine, Placement};
use crate::runtime::ThreadId;
use csmt_cpu::ThreadState;

/// Modeled cost of one thread migration, in cycles, between a context's
/// drain completing and the thread becoming runnable at its destination —
/// covering the OS-visible trap, the architectural-register copy, and cold
/// starts the destination will absorb. Charged on top of the drain time
/// (which the §4.1 accounting already books as sync slots).
pub const MIGRATION_COST: u64 = 100;

/// Shape of the machine a scheduler places threads onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of chips.
    pub chips: usize,
    /// Clusters per chip.
    pub clusters_per_chip: usize,
    /// Hardware contexts per cluster.
    pub ctx_per_cluster: usize,
}

impl Topology {
    /// Machine-global cluster count.
    pub fn n_clusters(&self) -> usize {
        self.chips * self.clusters_per_chip
    }

    /// Hardware contexts per chip.
    pub fn threads_per_chip(&self) -> usize {
        self.clusters_per_chip * self.ctx_per_cluster
    }

    /// Total hardware contexts in the machine.
    pub fn capacity(&self) -> usize {
        self.chips * self.threads_per_chip()
    }

    /// Machine-global cluster index of a placement (chip-major, matching
    /// the cluster ids stamped into probe events).
    pub fn global_cluster(&self, p: Placement) -> usize {
        p.chip * self.clusters_per_chip + p.cluster
    }

    /// Placement for a context of a machine-global cluster index.
    pub fn placement(&self, global_cluster: usize, ctx: usize) -> Placement {
        Placement {
            chip: global_cluster / self.clusters_per_chip,
            cluster: global_cluster % self.clusters_per_chip,
            ctx,
        }
    }
}

/// What the machine knows about one software thread at an epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct ThreadObs {
    /// Software thread id.
    pub tid: ThreadId,
    /// Where the thread currently lives; `None` while it is in transit
    /// between contexts.
    pub placement: Option<Placement>,
    /// Hardware state of its context (`Migrating` while in transit).
    pub state: ThreadState,
    /// Instructions committed so far (cumulative across migrations).
    pub committed: u64,
    /// In-flight instructions in its context's FIFO.
    pub inflight: usize,
    /// In-flight *loads* — the memory-boundedness signal.
    pub inflight_loads: usize,
    /// Program group (multiprogrammed mixes; 0 for one application).
    pub group: usize,
    /// True once the thread has exited.
    pub done: bool,
}

/// Deterministic snapshot handed to [`ThreadScheduler::observe`] and
/// [`ThreadScheduler::rebalance`] at each epoch. Built only at epoch
/// boundaries, so its cost is off the per-cycle path.
#[derive(Debug, Clone)]
pub struct SchedSnapshot {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// One observation per software thread, indexed by thread id.
    pub threads: Vec<ThreadObs>,
    /// Per machine-global cluster: contexts currently making progress.
    pub cluster_running: Vec<usize>,
    /// Machine shape.
    pub topo: Topology,
}

/// One requested thread move. The machine validates requests (in-range,
/// destination not already promised, source thread in a migratable state)
/// and silently drops invalid ones — policies are advisory, the machine
/// enforces feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Thread to move.
    pub tid: ThreadId,
    /// Destination context.
    pub to: Placement,
}

/// A scheduler configuration the machine refuses to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedConfigError {
    /// A dynamic (migrating) policy on a fixed-assignment architecture:
    /// Table 2 pins FA thread assignment by construction (one context per
    /// cluster), so migration would change the modeled hardware contract.
    DynamicOnFixedAssignment,
    /// A rebalance quantum of zero cycles: the epoch check would fire
    /// every cycle and never terminate a span.
    ZeroQuantum,
}

impl std::fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedConfigError::DynamicOnFixedAssignment => write!(
                f,
                "dynamic scheduling policy on a fixed-assignment architecture \
                 (FA thread assignment is pinned by construction)"
            ),
            SchedConfigError::ZeroQuantum => {
                write!(f, "rebalance quantum must be at least 1 cycle")
            }
        }
    }
}

impl std::error::Error for SchedConfigError {}

/// A thread-to-cluster allocation policy.
///
/// The machine calls [`initial_placement`](ThreadScheduler::initial_placement)
/// once at attach, then — only for dynamic policies —
/// [`observe`](ThreadScheduler::observe) and
/// [`rebalance`](ThreadScheduler::rebalance) at every epoch boundary. A
/// policy is *dynamic* iff it reports a [`quantum`](ThreadScheduler::quantum)
/// or wants [`barrier epochs`](ThreadScheduler::wants_barrier_epochs); a
/// static policy costs the machine loop nothing after attach.
pub trait ThreadScheduler {
    /// Short policy name (for a shipped policy, its [`Policy::name`]).
    fn name(&self) -> &'static str;

    /// Initial placement of `n_threads` software threads. Must return one
    /// distinct, in-range placement per thread. Defaults to the paper's
    /// round-robin.
    fn initial_placement(&mut self, n_threads: usize, topo: &Topology) -> Vec<Placement> {
        (0..n_threads)
            .map(|tid| round_robin_placement(tid, topo.clusters_per_chip, topo.threads_per_chip()))
            .collect()
    }

    /// Fixed epoch length in cycles, or `None` for no cycle-driven epochs.
    fn quantum(&self) -> Option<u64> {
        None
    }

    /// Whether barrier releases and thread exits are epoch boundaries.
    fn wants_barrier_epochs(&self) -> bool {
        false
    }

    /// Whether this policy migrates threads at runtime (either epoch
    /// source). The machine skips all epoch machinery — and stays
    /// bit-for-bit on the golden digests — when this is `false`.
    fn is_dynamic(&self) -> bool {
        self.quantum().is_some() || self.wants_barrier_epochs()
    }

    /// Digest per-thread behavior at an epoch boundary (before
    /// [`rebalance`](ThreadScheduler::rebalance) is consulted).
    fn observe(&mut self, _cycle: u64, _snap: &SchedSnapshot) {}

    /// Request migrations for this epoch. Invalid requests are dropped by
    /// the machine; a swap is expressed as two migrations into each
    /// other's contexts.
    fn rebalance(&mut self, _cycle: u64, _snap: &SchedSnapshot) -> Vec<Migration> {
        Vec::new()
    }
}

/// The shipped policies as one typed axis — Fig 9 varies it; every other
/// experiment runs [`Policy::Static`], the paper's placement. A policy
/// that is not one of these cannot be named in a run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// [`StaticRoundRobin`].
    Static,
    /// [`BarrierRebalance`].
    Barrier,
    /// [`HazardPairing`].
    HazardPairing,
}

impl Policy {
    /// Every policy, static first.
    pub const ALL: [Policy; 3] = [Policy::Static, Policy::Barrier, Policy::HazardPairing];

    /// The policy's name, as its scheduler reports it.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Barrier => "barrier",
            Policy::HazardPairing => "hazard_pairing",
        }
    }

    /// The policy called `name`, if any.
    pub fn named(name: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.name() == name)
    }

    /// A fresh scheduler of this policy.
    pub fn scheduler(self) -> Box<dyn ThreadScheduler + Send> {
        match self {
            Policy::Static => Box::new(StaticRoundRobin),
            Policy::Barrier => Box::new(BarrierRebalance::default()),
            Policy::HazardPairing => Box::new(HazardPairing::default()),
        }
    }

    /// This policy's scheduler on a chip of configuration `chip` — the one
    /// place that decides what a policy means on a machine. A dynamic
    /// policy on a fixed-assignment chip degrades to [`StaticRoundRobin`]
    /// (FA machines pin thread assignment by construction), so one policy
    /// can sweep all seven architectures; the result is always accepted by
    /// [`Machine::set_scheduler`].
    pub fn for_chip(self, chip: &ChipConfig) -> Box<dyn ThreadScheduler + Send> {
        if self != Policy::Static && Machine::fixed_assignment(chip) {
            return Policy::Static.scheduler();
        }
        self.scheduler()
    }
}

/// The quoted name (`"static"`): a run's cache key digests the run's
/// `Debug` form, and this keeps it the key of caches written while the
/// policy was a name string.
impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.name(), f)
    }
}

/// A fresh scheduler of the policy called `name` (how the benchmark
/// harness and `tests/migration_determinism.rs` name a policy).
pub fn by_name(name: &str) -> Option<Box<dyn ThreadScheduler + Send>> {
    Policy::named(name).map(Policy::scheduler)
}

/// The paper's static policy: round-robin placement at attach, no
/// migrations. The default, pinned bit-for-bit against the golden
/// determinism digests.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRoundRobin;

impl ThreadScheduler for StaticRoundRobin {
    fn name(&self) -> &'static str {
        "static"
    }
}

/// Even out per-cluster *live* thread counts at barrier releases and
/// thread exits. When threads finish early (uneven work tails — the
/// imbalance the paper's sync bars measure), their clusters idle under
/// static placement; this policy refills them from overloaded clusters,
/// swapping live threads with finished ones when no context is free.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierRebalance {
    epochs: u64,
}

/// Most migrations one [`BarrierRebalance`] epoch may request (each
/// balancing step is one move or one two-migration swap).
const BARRIER_MOVES_PER_EPOCH: usize = 4;

impl ThreadScheduler for BarrierRebalance {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn wants_barrier_epochs(&self) -> bool {
        true
    }

    fn rebalance(&mut self, _cycle: u64, snap: &SchedSnapshot) -> Vec<Migration> {
        self.epochs += 1;
        let nc = snap.topo.n_clusters();
        if nc < 2 {
            return Vec::new();
        }
        // Local model of the slot map, updated as moves are planned.
        let mut slot: Vec<Vec<Option<ThreadId>>> = vec![vec![None; snap.topo.ctx_per_cluster]; nc];
        let mut live = vec![0usize; nc];
        for t in &snap.threads {
            let Some(p) = t.placement else { continue };
            if t.state == ThreadState::Migrating {
                continue; // already leaving; don't plan around it
            }
            slot[snap.topo.global_cluster(p)][p.ctx] = Some(t.tid);
            if !t.done {
                live[snap.topo.global_cluster(p)] += 1;
            }
        }
        let movable = |tid: ThreadId| {
            matches!(
                snap.threads[tid].state,
                ThreadState::Running | ThreadState::WrongPath | ThreadState::WaitingSync
            )
        };
        let mut moves = Vec::new();
        while moves.len() < BARRIER_MOVES_PER_EPOCH {
            let max_c = (0..nc).max_by_key(|&c| live[c]).expect("nc >= 2");
            let min_c = (0..nc).min_by_key(|&c| live[c]).expect("nc >= 2");
            if live[max_c] < live[min_c] + 2 {
                break; // balanced within one thread
            }
            // Mover: lowest-tid movable live thread on the crowded cluster.
            let Some((mover, mover_ctx)) = slot[max_c]
                .iter()
                .enumerate()
                .filter_map(|(ctx, t)| t.map(|tid| (tid, ctx)))
                .filter(|&(tid, _)| !snap.threads[tid].done && movable(tid))
                .min_by_key(|&(tid, _)| tid)
            else {
                break;
            };
            // Destination: a free context, else a finished thread's (swap).
            if let Some(free_ctx) = slot[min_c].iter().position(Option::is_none) {
                moves.push(Migration {
                    tid: mover,
                    to: snap.topo.placement(min_c, free_ctx),
                });
                slot[max_c][mover_ctx] = None;
                slot[min_c][free_ctx] = Some(mover);
            } else if let Some((parked, parked_ctx)) = slot[min_c]
                .iter()
                .enumerate()
                .filter_map(|(ctx, t)| t.map(|tid| (tid, ctx)))
                .find(|&(tid, _)| snap.threads[tid].done)
            {
                moves.push(Migration {
                    tid: mover,
                    to: snap.topo.placement(min_c, parked_ctx),
                });
                moves.push(Migration {
                    tid: parked,
                    to: snap.topo.placement(max_c, mover_ctx),
                });
                slot[min_c][parked_ctx] = Some(mover);
                slot[max_c][mover_ctx] = Some(parked);
            } else {
                break; // min_c full of live threads: nothing to even out
            }
            live[max_c] -= 1;
            live[min_c] += 1;
        }
        moves
    }
}

/// Per-thread EWMA hazard signature maintained by [`HazardPairing`].
#[derive(Debug, Clone, Copy, Default)]
struct ThreadSig {
    last_committed: u64,
    ipc: f64,
    mem: f64,
    seen: bool,
}

/// SYNPA-style hazard-signature pairing (arXiv 2310.12786): every
/// [`quantum`](ThreadScheduler::quantum) cycles, update an EWMA of each
/// thread's IPC and memory-boundedness (in-flight-load fraction), then
/// swap the most memory-bound thread of the most memory-bound cluster
/// with the least memory-bound thread of the least memory-bound cluster —
/// co-locating complementary signatures so loads overlap with compute
/// instead of piling onto the same cluster's window.
#[derive(Debug, Clone)]
pub struct HazardPairing {
    quantum: u64,
    sigs: Vec<ThreadSig>,
}

impl Default for HazardPairing {
    fn default() -> Self {
        HazardPairing {
            quantum: 2048,
            sigs: Vec::new(),
        }
    }
}

impl HazardPairing {
    /// A pairing policy with a custom epoch quantum (cycles).
    pub fn with_quantum(quantum: u64) -> Self {
        HazardPairing {
            quantum,
            sigs: Vec::new(),
        }
    }
}

/// EWMA smoothing factor for [`HazardPairing`] signatures.
const EWMA_ALPHA: f64 = 0.5;
/// Minimum memory-boundedness gap between two threads before
/// [`HazardPairing`] considers swapping them worthwhile.
const PAIRING_GAP: f64 = 0.25;

impl ThreadScheduler for HazardPairing {
    fn name(&self) -> &'static str {
        "hazard_pairing"
    }

    fn quantum(&self) -> Option<u64> {
        Some(self.quantum)
    }

    fn observe(&mut self, _cycle: u64, snap: &SchedSnapshot) {
        if self.sigs.len() < snap.threads.len() {
            self.sigs.resize(snap.threads.len(), ThreadSig::default());
        }
        for t in &snap.threads {
            let s = &mut self.sigs[t.tid];
            let delta = t.committed.saturating_sub(s.last_committed);
            s.last_committed = t.committed;
            let ipc_now = delta as f64 / self.quantum as f64;
            let mem_now = if t.inflight > 0 {
                t.inflight_loads as f64 / t.inflight as f64
            } else {
                0.0
            };
            if s.seen {
                s.ipc = EWMA_ALPHA * ipc_now + (1.0 - EWMA_ALPHA) * s.ipc;
                s.mem = EWMA_ALPHA * mem_now + (1.0 - EWMA_ALPHA) * s.mem;
            } else {
                s.ipc = ipc_now;
                s.mem = mem_now;
                s.seen = true;
            }
        }
    }

    fn rebalance(&mut self, _cycle: u64, snap: &SchedSnapshot) -> Vec<Migration> {
        let nc = snap.topo.n_clusters();
        if nc < 2 {
            return Vec::new();
        }
        // Per-cluster mean memory-boundedness over live, swappable threads.
        let mut sum = vec![0.0f64; nc];
        let mut cnt = vec![0usize; nc];
        let swappable = |t: &ThreadObs| {
            !t.done
                && matches!(
                    t.state,
                    ThreadState::Running | ThreadState::WrongPath | ThreadState::WaitingSync
                )
        };
        for t in &snap.threads {
            let Some(p) = t.placement else { continue };
            if swappable(t) {
                sum[snap.topo.global_cluster(p)] += self.sigs[t.tid].mem;
                cnt[snap.topo.global_cluster(p)] += 1;
            }
        }
        let mean = |c: usize| {
            if cnt[c] == 0 {
                f64::NAN
            } else {
                sum[c] / cnt[c] as f64
            }
        };
        let populated: Vec<usize> = (0..nc).filter(|&c| cnt[c] > 0).collect();
        if populated.len() < 2 {
            return Vec::new();
        }
        let hi = *populated
            .iter()
            .max_by(|&&a, &&b| mean(a).total_cmp(&mean(b)))
            .expect("populated");
        let lo = *populated
            .iter()
            .min_by(|&&a, &&b| mean(a).total_cmp(&mean(b)))
            .expect("populated");
        if hi == lo {
            return Vec::new();
        }
        // Most memory-bound thread on `hi`, least on `lo` (ties → lowest
        // tid, keeping the choice deterministic).
        let on = |c: usize| {
            snap.threads
                .iter()
                .filter(move |t| {
                    t.placement
                        .is_some_and(|p| snap.topo.global_cluster(p) == c)
                })
                .filter(|t| swappable(t))
        };
        let Some(a) = on(hi).max_by(|x, y| {
            self.sigs[x.tid]
                .mem
                .total_cmp(&self.sigs[y.tid].mem)
                .then(y.tid.cmp(&x.tid))
        }) else {
            return Vec::new();
        };
        let Some(b) = on(lo).min_by(|x, y| {
            self.sigs[x.tid]
                .mem
                .total_cmp(&self.sigs[y.tid].mem)
                .then(x.tid.cmp(&y.tid))
        }) else {
            return Vec::new();
        };
        if self.sigs[a.tid].mem - self.sigs[b.tid].mem < PAIRING_GAP {
            return Vec::new();
        }
        let (pa, pb) = (
            a.placement.expect("on cluster"),
            b.placement.expect("on cluster"),
        );
        vec![
            Migration { tid: a.tid, to: pb },
            Migration { tid: b.tid, to: pa },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        // SMT2-shaped: 2 clusters × 4 contexts.
        Topology {
            chips: 1,
            clusters_per_chip: 2,
            ctx_per_cluster: 4,
        }
    }

    fn obs(tid: ThreadId, cluster: usize, ctx: usize, state: ThreadState, done: bool) -> ThreadObs {
        ThreadObs {
            tid,
            placement: Some(Placement {
                chip: 0,
                cluster,
                ctx,
            }),
            state,
            committed: 0,
            inflight: 0,
            inflight_loads: 0,
            group: 0,
            done,
        }
    }

    #[test]
    fn by_name_knows_all_policies() {
        for p in Policy::ALL {
            let s = by_name(p.name()).expect("registered policy");
            assert_eq!(s.name(), p.name());
            assert_eq!(s.is_dynamic(), p != Policy::Static);
            assert_eq!(format!("{p:?}"), format!("{:?}", p.name()));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn for_chip_degrades_on_fixed_assignment() {
        use crate::configs::ArchKind;
        for p in Policy::ALL {
            assert_eq!(p.for_chip(&ArchKind::Smt2.chip()).name(), p.name());
            assert_eq!(
                p.for_chip(&ArchKind::Fa4.chip()).name(),
                "static",
                "{p:?} on FA4"
            );
        }
    }

    #[test]
    fn default_initial_placement_is_round_robin() {
        let mut s = StaticRoundRobin;
        let t = topo();
        let ps = s.initial_placement(8, &t);
        assert_eq!(ps.len(), 8);
        for (tid, p) in ps.iter().enumerate() {
            assert_eq!(
                *p,
                round_robin_placement(tid, t.clusters_per_chip, t.threads_per_chip())
            );
        }
        // Distinct placements.
        for i in 0..8 {
            for j in i + 1..8 {
                assert_ne!(ps[i], ps[j]);
            }
        }
    }

    #[test]
    fn barrier_rebalance_swaps_live_for_done() {
        // Cluster 0: 4 live threads. Cluster 1: 1 live + 3 done — the
        // classic uneven-tail shape. Expect a live thread moved into a
        // done thread's context (a swap: two migrations).
        let mut s = BarrierRebalance::default();
        let threads = vec![
            obs(0, 0, 0, ThreadState::Running, false),
            obs(1, 1, 0, ThreadState::Running, false),
            obs(2, 0, 1, ThreadState::Running, false),
            obs(3, 1, 1, ThreadState::Done, true),
            obs(4, 0, 2, ThreadState::Running, false),
            obs(5, 1, 2, ThreadState::Done, true),
            obs(6, 0, 3, ThreadState::Running, false),
            obs(7, 1, 3, ThreadState::Done, true),
        ];
        let snap = SchedSnapshot {
            cycle: 1000,
            threads,
            cluster_running: vec![4, 1],
            topo: topo(),
        };
        let moves = s.rebalance(1000, &snap);
        assert!(!moves.is_empty());
        assert_eq!(moves.len() % 2, 0, "full clusters mean swaps: {moves:?}");
        // First swap: lowest live tid on cluster 0 (tid 0) into the first
        // done context on cluster 1 (tid 3's), and tid 3 back.
        assert_eq!(moves[0].tid, 0);
        assert_eq!(moves[0].to.cluster, 1);
        assert_eq!(moves[1].tid, 3);
        assert_eq!(moves[1].to.cluster, 0);
    }

    #[test]
    fn barrier_rebalance_is_quiet_when_balanced() {
        let mut s = BarrierRebalance::default();
        let threads = vec![
            obs(0, 0, 0, ThreadState::Running, false),
            obs(1, 1, 0, ThreadState::Running, false),
        ];
        let snap = SchedSnapshot {
            cycle: 0,
            threads,
            cluster_running: vec![1, 1],
            topo: topo(),
        };
        assert!(s.rebalance(0, &snap).is_empty());
    }

    #[test]
    fn hazard_pairing_swaps_complementary_threads() {
        let mut s = HazardPairing::with_quantum(100);
        // Cluster 0 holds two memory-bound threads, cluster 1 two
        // compute-bound ones; after observing, the policy should swap one
        // of each.
        let mk = |tid, cluster, ctx, loads, infl| ThreadObs {
            inflight: infl,
            inflight_loads: loads,
            ..obs(tid, cluster, ctx, ThreadState::Running, false)
        };
        let threads = vec![
            mk(0, 0, 0, 9, 10),
            mk(1, 1, 0, 0, 10),
            mk(2, 0, 1, 8, 10),
            mk(3, 1, 1, 1, 10),
        ];
        let snap = SchedSnapshot {
            cycle: 100,
            threads,
            cluster_running: vec![2, 2],
            topo: topo(),
        };
        s.observe(100, &snap);
        let moves = s.rebalance(100, &snap);
        assert_eq!(moves.len(), 2, "one swap: {moves:?}");
        // tid 0 (most memory-bound) swaps with tid 1 (least).
        assert_eq!(moves[0].tid, 0);
        assert_eq!(moves[0].to, snap.threads[1].placement.unwrap());
        assert_eq!(moves[1].tid, 1);
        assert_eq!(moves[1].to, snap.threads[0].placement.unwrap());
    }

    #[test]
    fn hazard_pairing_respects_the_gap() {
        let mut s = HazardPairing::with_quantum(100);
        let mk = |tid, cluster, ctx, loads| ThreadObs {
            inflight: 10,
            inflight_loads: loads,
            ..obs(tid, cluster, ctx, ThreadState::Running, false)
        };
        // Both clusters near-identical: no swap worth its cost.
        let threads = vec![mk(0, 0, 0, 5), mk(1, 1, 0, 5)];
        let snap = SchedSnapshot {
            cycle: 100,
            threads,
            cluster_running: vec![1, 1],
            topo: topo(),
        };
        s.observe(100, &snap);
        assert!(s.rebalance(100, &snap).is_empty());
    }

    #[test]
    fn config_errors_render() {
        assert!(SchedConfigError::DynamicOnFixedAssignment
            .to_string()
            .contains("fixed-assignment"));
        assert!(SchedConfigError::ZeroQuantum
            .to_string()
            .contains("1 cycle"));
    }
}
