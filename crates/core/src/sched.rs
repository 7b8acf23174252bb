//! Thread-to-cluster scheduling: the [`Policy`] a machine runs.
//!
//! The paper only ever compares *static* partitionings of threads onto
//! clusters (SMTn vs FAn, §3.3); Fig 9 adds two dynamic policies. Every
//! policy places threads round-robin at attach; a dynamic one may then
//! request migrations at deterministic *epochs* — barrier releases and
//! thread exits, or a fixed cycle quantum — never wall clock, so every
//! policy is bit-for-bit reproducible.
//!
//! * [`Policy::Static`] — the paper's behavior (the default): no
//!   migrations. Pinned against the golden determinism digests.
//! * [`Policy::Barrier`] — at barrier releases and thread exits, even out
//!   the number of *live* threads per cluster: work freed by exited
//!   threads is redistributed instead of leaving clusters running empty.
//! * [`Policy::HazardPairing`] — SYNPA-style (arXiv 2310.12786): every
//!   2048 cycles (`HAZARD_QUANTUM`), update an EWMA memory-boundedness
//!   signature per thread and swap threads so memory-bound and
//!   compute-bound threads co-locate, instead of memory-bound threads
//!   piling onto one cluster.
//!
//! Migration is drain-based (§4.1-safe): the machine parks the context
//! (state `Migrating`, charged to the sync hazard like other parked
//! states), lets in-flight work drain through commit, detaches the
//! architectural state, and re-attaches it [`MIGRATION_COST`] cycles later.

use crate::configs::ChipConfig;
use crate::machine::{Machine, Placement};
use crate::runtime::ThreadId;
use csmt_cpu::ThreadState;

/// Modeled cost of one thread migration, in cycles, between a context's
/// drain completing and the thread becoming runnable at its destination —
/// covering the OS-visible trap, the architectural-register copy, and cold
/// starts the destination will absorb. Charged on top of the drain time
/// (which the §4.1 accounting already books as sync slots).
pub const MIGRATION_COST: u64 = 100;

/// Epoch length of [`Policy::HazardPairing`], in cycles.
pub(crate) const HAZARD_QUANTUM: u64 = 2048;

/// Shape of the machine a policy places threads onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Topology {
    /// Number of chips.
    pub chips: usize,
    /// Clusters per chip.
    pub clusters_per_chip: usize,
    /// Hardware contexts per cluster.
    pub ctx_per_cluster: usize,
}

impl Topology {
    /// Machine-global cluster count.
    fn n_clusters(&self) -> usize {
        self.chips * self.clusters_per_chip
    }

    /// Machine-global cluster index of a placement (chip-major, matching
    /// the cluster ids stamped into probe events).
    fn global_cluster(&self, p: Placement) -> usize {
        p.chip * self.clusters_per_chip + p.cluster
    }

    /// Placement for a context of a machine-global cluster index.
    fn placement(&self, global_cluster: usize, ctx: usize) -> Placement {
        Placement {
            chip: global_cluster / self.clusters_per_chip,
            cluster: global_cluster % self.clusters_per_chip,
            ctx,
        }
    }
}

/// What the machine knows about one software thread at an epoch boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThreadObs {
    /// Software thread id.
    pub tid: ThreadId,
    /// Where the thread currently lives; `None` while it is in transit
    /// between contexts.
    pub placement: Option<Placement>,
    /// Hardware state of its context (`Migrating` while in transit).
    pub state: ThreadState,
    /// In-flight instructions in its context's FIFO.
    pub inflight: usize,
    /// In-flight *loads* — the memory-boundedness signal.
    pub inflight_loads: usize,
    /// True once the thread has exited.
    pub done: bool,
}

/// Deterministic snapshot a policy plans an epoch's migrations from.
/// Built only at epoch boundaries, so its cost is off the per-cycle path.
#[derive(Debug)]
pub(crate) struct SchedSnapshot {
    /// One observation per software thread, indexed by thread id.
    pub threads: Vec<ThreadObs>,
    /// Machine shape.
    pub topo: Topology,
}

/// One requested thread move. The machine validates requests (in-range,
/// destination not already promised, source thread in a migratable state)
/// and silently drops invalid ones — policies are advisory, the machine
/// enforces feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
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
}

impl std::fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedConfigError::DynamicOnFixedAssignment => write!(
                f,
                "dynamic scheduling policy on a fixed-assignment architecture \
                 (FA thread assignment is pinned by construction)"
            ),
        }
    }
}

impl std::error::Error for SchedConfigError {}

/// The thread-to-cluster allocation policy — Fig 9 varies it; every other
/// experiment runs [`Policy::Static`], the paper's placement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Round-robin placement at attach, no migrations.
    Static,
    /// Even out live threads per cluster at barrier releases and exits.
    Barrier,
    /// Pair memory-bound with compute-bound threads every 2048 cycles
    /// (`HAZARD_QUANTUM`).
    HazardPairing,
}

impl Policy {
    /// Every policy, static first.
    pub const ALL: [Policy; 3] = [Policy::Static, Policy::Barrier, Policy::HazardPairing];

    /// The policy's name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Barrier => "barrier",
            Policy::HazardPairing => "hazard_pairing",
        }
    }

    /// This policy on a chip of configuration `chip` — the one place that
    /// decides what a policy means on a machine. A dynamic policy on a
    /// fixed-assignment chip degrades to [`Policy::Static`] (FA machines
    /// pin thread assignment by construction), so one policy can sweep all
    /// seven architectures; the result is always accepted by
    /// [`Machine::set_scheduler`].
    pub fn for_chip(self, chip: &ChipConfig) -> Policy {
        if Machine::fixed_assignment(chip) {
            Policy::Static
        } else {
            self
        }
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

/// The policy called `name`, if any (how the benchmark harness and
/// `tests/migration_determinism.rs` name a policy).
pub fn by_name(name: &str) -> Option<Policy> {
    Policy::ALL.into_iter().find(|p| p.name() == name)
}

/// Most migrations one [`Policy::Barrier`] epoch may request (each
/// balancing step is one move or one two-migration swap).
const BARRIER_MOVES_PER_EPOCH: usize = 4;

/// Whether a thread in `state` may be picked to move by a policy.
fn movable(state: ThreadState) -> bool {
    matches!(
        state,
        ThreadState::Running | ThreadState::WrongPath | ThreadState::WaitingSync
    )
}

/// [`Policy::Barrier`]'s epoch: even out per-cluster *live* thread counts.
/// When threads finish early (uneven work tails — the imbalance the
/// paper's sync bars measure), their clusters idle under static
/// placement; this refills them from overloaded clusters, swapping live
/// threads with finished ones when no context is free.
pub(crate) fn barrier_moves(snap: &SchedSnapshot) -> Vec<Migration> {
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
            .filter(|&(tid, _)| !snap.threads[tid].done && movable(snap.threads[tid].state))
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

/// EWMA smoothing factor for [`Policy::HazardPairing`] signatures.
const EWMA_ALPHA: f64 = 0.5;
/// Minimum memory-boundedness gap between two threads before
/// [`Policy::HazardPairing`] considers swapping them worthwhile.
const PAIRING_GAP: f64 = 0.25;

/// [`Policy::HazardPairing`]'s epoch: fold each thread's in-flight-load
/// fraction into its EWMA signature in `sigs` (the policy's per-run
/// state, one entry per thread, `None` until first observed), then swap
/// the most memory-bound thread of the most memory-bound cluster with the
/// least memory-bound thread of the least memory-bound cluster —
/// co-locating complementary signatures so loads overlap with compute
/// instead of piling onto the same cluster's window.
pub(crate) fn pairing_moves(snap: &SchedSnapshot, sigs: &mut Vec<Option<f64>>) -> Vec<Migration> {
    if sigs.len() < snap.threads.len() {
        sigs.resize(snap.threads.len(), None);
    }
    for t in &snap.threads {
        let mem_now = if t.inflight > 0 {
            t.inflight_loads as f64 / t.inflight as f64
        } else {
            0.0
        };
        let s = &mut sigs[t.tid];
        *s = Some(match *s {
            Some(mem) => EWMA_ALPHA * mem_now + (1.0 - EWMA_ALPHA) * mem,
            None => mem_now,
        });
    }
    let mem = |tid: ThreadId| sigs[tid].expect("observed above");
    let nc = snap.topo.n_clusters();
    if nc < 2 {
        return Vec::new();
    }
    // Per-cluster mean memory-boundedness over live, swappable threads.
    let mut sum = vec![0.0f64; nc];
    let mut cnt = vec![0usize; nc];
    let swappable = |t: &ThreadObs| !t.done && movable(t.state);
    for t in &snap.threads {
        let Some(p) = t.placement else { continue };
        if swappable(t) {
            sum[snap.topo.global_cluster(p)] += mem(t.tid);
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
    let Some(a) = on(hi).max_by(|x, y| mem(x.tid).total_cmp(&mem(y.tid)).then(y.tid.cmp(&x.tid)))
    else {
        return Vec::new();
    };
    let Some(b) = on(lo).min_by(|x, y| mem(x.tid).total_cmp(&mem(y.tid)).then(x.tid.cmp(&y.tid)))
    else {
        return Vec::new();
    };
    if mem(a.tid) - mem(b.tid) < PAIRING_GAP {
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
            inflight: 0,
            inflight_loads: 0,
            done,
        }
    }

    #[test]
    fn by_name_knows_all_policies() {
        for p in Policy::ALL {
            assert_eq!(by_name(p.name()), Some(p));
            assert_eq!(format!("{p:?}"), format!("{:?}", p.name()));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn for_chip_degrades_on_fixed_assignment() {
        use crate::configs::ArchKind;
        for p in Policy::ALL {
            assert_eq!(p.for_chip(&ArchKind::Smt2.chip()), p);
            assert_eq!(
                p.for_chip(&ArchKind::Fa4.chip()),
                Policy::Static,
                "{p:?} on FA4"
            );
        }
    }

    #[test]
    fn barrier_rebalance_swaps_live_for_done() {
        // Cluster 0: 4 live threads. Cluster 1: 1 live + 3 done — the
        // classic uneven-tail shape. Expect a live thread moved into a
        // done thread's context (a swap: two migrations).
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
        let moves = barrier_moves(&SchedSnapshot {
            threads,
            topo: topo(),
        });
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
        let threads = vec![
            obs(0, 0, 0, ThreadState::Running, false),
            obs(1, 1, 0, ThreadState::Running, false),
        ];
        let snap = SchedSnapshot {
            threads,
            topo: topo(),
        };
        assert!(barrier_moves(&snap).is_empty());
    }

    #[test]
    fn hazard_pairing_swaps_complementary_threads() {
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
            threads,
            topo: topo(),
        };
        let moves = pairing_moves(&snap, &mut Vec::new());
        assert_eq!(moves.len(), 2, "one swap: {moves:?}");
        // tid 0 (most memory-bound) swaps with tid 1 (least).
        assert_eq!(moves[0].tid, 0);
        assert_eq!(moves[0].to, snap.threads[1].placement.unwrap());
        assert_eq!(moves[1].tid, 1);
        assert_eq!(moves[1].to, snap.threads[0].placement.unwrap());
    }

    #[test]
    fn hazard_pairing_respects_the_gap() {
        let mk = |tid, cluster, ctx, loads| ThreadObs {
            inflight: 10,
            inflight_loads: loads,
            ..obs(tid, cluster, ctx, ThreadState::Running, false)
        };
        // Both clusters near-identical: no swap worth its cost.
        let threads = vec![mk(0, 0, 0, 5), mk(1, 1, 0, 5)];
        let snap = SchedSnapshot {
            threads,
            topo: topo(),
        };
        assert!(pairing_moves(&snap, &mut Vec::new()).is_empty());
    }

    #[test]
    fn config_errors_render() {
        assert!(SchedConfigError::DynamicOnFixedAssignment
            .to_string()
            .contains("fixed-assignment"));
    }
}
