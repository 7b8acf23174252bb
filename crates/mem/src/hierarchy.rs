//! The assembled memory system: per-node TLB + L1 + L2 + MSHRs + memory
//! channel + network interface, glued by the directory (paper §3.4, Fig 3).
//!
//! Per the paper, each chip's clusters share one primary cache ("we choose a
//! shared primary cache for all our configurations") and the L2; the
//! instruction cache is perfect, so only data accesses come through here.
//!
//! [`MemorySystem::access`] is the single entry point the load/store units
//! call. It returns the completion cycle of the access (contention-free
//! Table 3 round trip of the servicing level, plus any queueing delays on
//! banks, MSHRs, links, directory and memory channels).

use crate::cache::{Cache, LookupResult};
use crate::config::{
    MemConfig, BANK_OCCUPANCY, INVALIDATION_PENALTY, L1_LATENCY, L2_LATENCY, LINE_SIZE,
    LINK_OCCUPANCY, LOCAL_MEM_LATENCY, MEMORY_OCCUPANCY, PAGE_SIZE, TLB_ENTRIES, TLB_MISS_PENALTY,
};
use crate::directory::{Directory, Service};
use crate::mshr::MshrFile;
use crate::resource::Resource;
use crate::stats::MemStats;
use crate::tlb::Tlb;
use csmt_trace::{emit, Event, HostPhase, HostStopwatch, Probe, Wants};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Which level ultimately serviced an access: defined once in the probe
/// vocabulary (`csmt_isa::vocab`), which the cache events carry too.
pub use csmt_isa::ServicedBy;

/// Result of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available (loads) / globally performed
    /// (stores).
    pub complete_at: u64,
    /// Servicing level.
    pub serviced_by: ServicedBy,
    /// Whether the TLB missed.
    pub tlb_miss: bool,
}

/// Per-node hardware: caches, TLB, MSHRs, memory channel, network link.
#[derive(Debug, Clone)]
struct NodeMem {
    l1: Cache,
    l2: Cache,
    l1_banks: Vec<Resource>,
    l2_banks: Vec<Resource>,
    mshr: MshrFile,
    tlb: Tlb,
    /// Memory channel + directory controller for this node's memory slice.
    mem_channel: Resource,
    /// Network-interface link (both directions share it; the paper's NoC is
    /// not otherwise specified).
    link: Resource,
    stats: MemStats,
}

impl NodeMem {
    fn new(cfg: &MemConfig, seed: u64) -> Self {
        NodeMem {
            l1: Cache::l1(cfg),
            l2: Cache::l2(cfg),
            l1_banks: (0..cfg.banks).map(|_| Resource::new()).collect(),
            l2_banks: (0..cfg.banks).map(|_| Resource::new()).collect(),
            mshr: MshrFile::new(cfg.max_outstanding_loads),
            tlb: Tlb::new(TLB_ENTRIES, seed),
            mem_channel: Resource::new(),
            link: Resource::new(),
            stats: MemStats::default(),
        }
    }
}

/// The full memory system for a machine of one or more nodes (chips).
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    nodes: Vec<NodeMem>,
    dir: Directory,
}

impl MemorySystem {
    /// Build a system with `nodes` chips. For the low-end machine pass 1;
    /// the paper's high-end machine uses 4.
    ///
    /// Panics unless `cfg.page_size` is [`PAGE_SIZE`]: the directory homes
    /// pages by `cfg.page_size`, but the workloads place their data by
    /// [`PAGE_SIZE`], so any other size would silently turn a thread's
    /// private pages remote.
    pub fn new(cfg: MemConfig, nodes: usize, seed: u64) -> Self {
        assert!(nodes >= 1);
        assert_eq!(
            cfg.page_size, PAGE_SIZE,
            "MemConfig::page_size is {} B, but the workloads place data by PAGE_SIZE = {} B",
            cfg.page_size, PAGE_SIZE
        );
        let lines_per_page = cfg.page_size / LINE_SIZE as u64;
        let mut rng = csmt_isa::SplitMix64::new(seed);
        MemorySystem {
            nodes: (0..nodes)
                .map(|i| NodeMem::new(&cfg, rng.fork(i as u64).next_u64()))
                .collect(),
            dir: Directory::new(nodes, lines_per_page),
            cfg,
        }
    }

    /// Free MSHR slots at `node` at time `now` — the LSQ consults this to
    /// respect the 32-outstanding-loads limit without issuing.
    pub fn free_mshrs(&mut self, node: usize, now: u64) -> usize {
        let cap = self.cfg.max_outstanding_loads;
        cap - self.nodes[node].mshr.outstanding(now).min(cap)
    }

    /// Perform a data access from `node` at cycle `now`.
    pub fn access(&mut self, node: usize, addr: u64, kind: AccessKind, now: u64) -> AccessOutcome {
        self.access_probed(node, addr, kind, now, &mut csmt_trace::NullProbe)
    }

    /// [`access`](MemorySystem::access) with an observability probe: the
    /// classified outcome is reported as a
    /// [`CacheEvent`](csmt_trace::CacheEvent) when the probe wants cache
    /// events. With [`NullProbe`](csmt_trace::NullProbe) this
    /// monomorphizes to exactly `access`.
    pub fn access_probed<P: Probe>(
        &mut self,
        node: usize,
        addr: u64,
        kind: AccessKind,
        now: u64,
        probe: &mut P,
    ) -> AccessOutcome {
        // Host self-profiling: memory time nests inside the cluster's
        // issue (loads) / commit (stores) phases; the profiler reports
        // it as its own row so cache-model cost is visible separately.
        let mut host = HostStopwatch::start::<P>();
        let out = self.access_inner(node, addr, kind, now);
        host.lap(probe, HostPhase::Memory);
        emit(probe, Wants::CACHE, || {
            Event::Cache(csmt_trace::CacheEvent {
                cycle: now,
                node: node as u32,
                addr,
                write: kind == AccessKind::Write,
                level: out.serviced_by,
                tlb_miss: out.tlb_miss,
                complete_at: out.complete_at,
            })
        });
        out
    }

    fn access_inner(
        &mut self,
        node: usize,
        addr: u64,
        kind: AccessKind,
        now: u64,
    ) -> AccessOutcome {
        debug_assert!(node < self.nodes.len());
        let line = self.cfg.line_of(addr);
        let page = self.cfg.page_of(addr);
        let is_write = kind == AccessKind::Write;

        let mut t = now;
        let mut tlb_miss = false;
        {
            let n = &mut self.nodes[node];
            n.stats.accesses += 1;
            if is_write {
                n.stats.writes += 1;
            }
            // 1. TLB (shared by all threads on the chip).
            if !n.tlb.access(page) {
                tlb_miss = true;
                n.stats.tlb_misses += 1;
                t += TLB_MISS_PENALTY;
            }
        }

        // 2. Secondary-miss check: if the line is already being fetched, the
        // access piggybacks on the in-flight fill — no bank port, no new
        // downstream traffic (the tag arrays allocate at miss initiation, so
        // this must be checked before the L1 lookup would report a "hit").
        if let Some(c) = self.nodes[node].mshr.outstanding_complete(line, t) {
            let n = &mut self.nodes[node];
            n.stats.mshr_merges += 1;
            n.stats.l2_hits += 1;
            if is_write {
                // Mark the (already allocated) line dirty on arrival.
                n.l1.access(line, true);
            }
            return AccessOutcome {
                complete_at: c.max(t + L1_LATENCY),
                serviced_by: ServicedBy::L2,
                tlb_miss,
            };
        }

        // 3. Write-upgrade check: a store hitting a *clean* L1 line on a
        // multi-node machine needs directory permission before it can be
        // considered an L1 hit.
        let coherent_write = is_write && self.nodes.len() > 1;
        let needs_upgrade = coherent_write && self.nodes[node].l1.probe_dirty(line) == Some(false);

        // 4. L1 lookup (reserves the addressed bank).
        let l1_result = {
            let n = &mut self.nodes[node];
            let bank = n.l1.bank_of(line);
            n.stats.contention_wait += n.l1_banks[bank].queue(&mut t, BANK_OCCUPANCY);
            n.l1.access(line, is_write)
        };

        if let LookupResult::Hit = l1_result {
            // Upgrade path: the data is local, but the directory at the home
            // node must grant ownership and invalidate other sharers.
            let upgrade = if needs_upgrade {
                self.upgrade(node, line, &mut t)
            } else {
                None
            };
            let Some(lat) = upgrade else {
                self.nodes[node].stats.l1_hits += 1;
                return AccessOutcome {
                    complete_at: t + L1_LATENCY,
                    serviced_by: ServicedBy::L1,
                    tlb_miss,
                };
            };
            return AccessOutcome {
                complete_at: t + L1_LATENCY + lat,
                serviced_by: ServicedBy::LocalMem,
                tlb_miss,
            };
        }

        // 5. L1 miss: handle the victim writeback into L2, then take an
        // MSHR (step 2 merged any miss on a line already in flight).
        if let LookupResult::Miss { evicted: Some(v) } = l1_result {
            if v.dirty {
                let n = &mut self.nodes[node];
                n.stats.writebacks += 1;
                let bank = n.l2.bank_of(v.line);
                n.l2_banks[bank].reserve(t, BANK_OCCUPANCY);
                // The L2 is inclusive of dirty L1 victims; allocate there.
                n.l2.access(v.line, true);
            }
        }

        let start = self.nodes[node].mshr.request(line, t);
        self.nodes[node].stats.contention_wait += start - t;
        t = start;

        // 6. L2 lookup.
        let l2_result = {
            let n = &mut self.nodes[node];
            let bank = n.l2.bank_of(line);
            n.stats.contention_wait += n.l2_banks[bank].queue(&mut t, BANK_OCCUPANCY);
            n.l2.access(line, is_write)
        };

        let (complete_at, serviced_by) = match l2_result {
            LookupResult::Hit => {
                // A write hitting an L2 line on a multi-node machine still
                // needs the directory's permission: `needs_upgrade` only
                // covered the L1-resident case, so the directory's own view
                // decides here.
                let upgrade = if coherent_write {
                    self.upgrade(node, line, &mut t)
                } else {
                    None
                };
                match upgrade {
                    Some(lat) => (t + L2_LATENCY + lat, ServicedBy::LocalMem),
                    None => {
                        self.nodes[node].stats.l2_hits += 1;
                        (t + L2_LATENCY, ServicedBy::L2)
                    }
                }
            }
            LookupResult::Miss { evicted } => {
                // L2 victim: the L2 is inclusive, so the victim must leave
                // the L1 too (back-invalidation); a dirty copy at either
                // level is written back to its home memory (occupying the
                // home channel; latency is off the critical path).
                if let Some(v) = evicted {
                    let l1_dirty = self.nodes[node].l1.invalidate(v.line) == Some(true);
                    if v.dirty || l1_dirty {
                        self.nodes[node].stats.writebacks += 1;
                        let home = self.dir.home_of(v.line);
                        self.nodes[home].mem_channel.reserve(t, MEMORY_OCCUPANCY);
                    }
                }
                let (service, lat) = self.transaction(node, line, is_write, &mut t);
                let stats = &mut self.nodes[node].stats;
                let svc = match service {
                    Service::LocalMem | Service::None => {
                        stats.local_mem += 1;
                        ServicedBy::LocalMem
                    }
                    Service::RemoteMem => {
                        stats.remote_mem += 1;
                        ServicedBy::RemoteMem
                    }
                    Service::RemoteL2 { .. } => {
                        stats.remote_l2 += 1;
                        ServicedBy::RemoteL2
                    }
                };
                (t + lat, svc)
            }
        };

        // 7. Fill: the returning line occupies the L1 (and on L2 miss the
        // L2) bank for the fill time, delaying later accesses to that bank.
        {
            let n = &mut self.nodes[node];
            let fill = self.cfg.fill_time;
            let b1 = n.l1.bank_of(line);
            n.l1_banks[b1].reserve(complete_at, fill);
            if matches!(l2_result, LookupResult::Miss { .. }) {
                let b2 = n.l2.bank_of(line);
                n.l2_banks[b2].reserve(complete_at, fill);
            }
            n.mshr.complete(line, complete_at);
        }

        AccessOutcome {
            complete_at,
            serviced_by,
            tlb_miss,
        }
    }

    /// The one directory transaction, for a miss and for an upgrade alike:
    /// the home node's verdict on `line`, the remote copies it invalidates
    /// or downgrades, the invalidations counted, and the queueing on the
    /// resources the service crosses (advancing `t`). Returns the service
    /// and its latency: the Table 3 round trip of the servicing level,
    /// plus the invalidation penalty when remote copies were shot down
    /// (0 for a silent upgrade).
    fn transaction(
        &mut self,
        node: usize,
        line: u64,
        is_write: bool,
        t: &mut u64,
    ) -> (Service, u64) {
        let out = if is_write {
            self.dir.write(line, node)
        } else {
            self.dir.read(line, node)
        };
        // Invalidated copies leave the victims' L1 and L2 (one message on
        // each victim's link); a read of a line dirty elsewhere (a read
        // invalidates nothing) leaves the owner clean copies.
        for victim in 0..self.nodes.len() {
            if out.invalidated_mask & (1u32 << victim) != 0 {
                let n = &mut self.nodes[victim];
                n.l1.invalidate(line);
                n.l2.invalidate(line);
                n.link.reserve(*t, LINK_OCCUPANCY);
            }
        }
        if let (false, Service::RemoteL2 { owner }) = (is_write, out.service) {
            let n = &mut self.nodes[owner];
            n.l1.clean(line);
            n.l2.clean(line);
        }
        let invalidations = out.invalidated_mask.count_ones();
        self.nodes[node].stats.invalidations += u64::from(invalidations);
        let base = match out.service {
            Service::None => return (out.service, 0),
            Service::LocalMem => LOCAL_MEM_LATENCY,
            Service::RemoteMem => self.cfg.remote_mem_latency,
            Service::RemoteL2 { .. } => self.cfg.remote_l2_latency,
        };
        let home = self.dir.home_of(line);
        let mut wait = 0;
        // Off-chip messages traverse the requester's network interface.
        if home != node || matches!(out.service, Service::RemoteL2 { .. }) {
            wait += self.nodes[node].link.queue(t, LINK_OCCUPANCY);
        }
        // Home memory channel / directory controller.
        wait += self.nodes[home].mem_channel.queue(t, MEMORY_OCCUPANCY);
        // Owner's link for cache-to-cache transfers.
        if let Service::RemoteL2 { owner } = out.service {
            wait += self.nodes[owner].link.queue(t, LINK_OCCUPANCY);
        }
        self.nodes[node].stats.contention_wait += wait;
        let inval = if invalidations > 0 {
            INVALIDATION_PENALTY
        } else {
            0
        };
        (out.service, base + inval)
    }

    /// A write to a line this node already caches: a directory write
    /// transaction. `Some(latency)` is an upgrade the home services
    /// (counted in `upgrades`); `None` a silent E→M upgrade, free.
    fn upgrade(&mut self, node: usize, line: u64, t: &mut u64) -> Option<u64> {
        let (service, lat) = self.transaction(node, line, true, t);
        if service == Service::None {
            return None;
        }
        self.nodes[node].stats.upgrades += 1;
        Some(lat)
    }

    /// Statistics for one node.
    pub fn node_stats(&self, node: usize) -> &MemStats {
        &self.nodes[node].stats
    }

    /// Aggregated statistics across nodes.
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for n in &self.nodes {
            total.merge(&n.stats);
        }
        total
    }

    /// The four counters the per-cycle [`csmt_trace::CycleStats`] stream
    /// reports: `(accesses, l1_hits, l2_hits, tlb_misses)`, summed over
    /// nodes. A cheap subset of [`stats`](MemorySystem::stats) for the
    /// hot end-of-cycle path — four integer adds per node instead of a
    /// full [`MemStats`] merge.
    pub fn cycle_counters(&self) -> (u64, u64, u64, u64) {
        let (mut acc, mut l1, mut l2, mut tlb) = (0u64, 0u64, 0u64, 0u64);
        for n in &self.nodes {
            acc += n.stats.accesses;
            l1 += n.stats.l1_hits;
            l2 += n.stats.l2_hits;
            tlb += n.stats.tlb_misses;
        }
        (acc, l1, l2, tlb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(nodes: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::table3(), nodes, 42)
    }

    #[test]
    fn l1_hit_costs_one_cycle_when_uncontended() {
        let mut m = sys(1);
        m.access(0, 0x1000, AccessKind::Read, 0); // cold miss fills
        let now = 10_000; // long after fills quiesce
        let o = m.access(0, 0x1000, AccessKind::Read, now);
        assert_eq!(o.serviced_by, ServicedBy::L1);
        assert_eq!(o.complete_at, now + 1);
    }

    #[test]
    fn cold_miss_goes_to_local_memory_at_40_cycles() {
        let mut m = sys(1);
        // Warm the TLB first so the miss penalty does not obscure the check.
        m.access(0, 0x0, AccessKind::Read, 0);
        let now = 10_000;
        let o = m.access(0, 0x40 * 9, AccessKind::Read, now); // same page, new line
        assert_eq!(o.serviced_by, ServicedBy::LocalMem);
        assert!(!o.tlb_miss);
        assert_eq!(o.complete_at, now + 40);
    }

    #[test]
    fn l2_hit_costs_ten_cycles() {
        let mut m = sys(1);
        let cfg = MemConfig::table3();
        let l1 = crate::cache::Cache::l1(&cfg);
        let l2 = crate::cache::Cache::l2(&cfg);
        // Find two extra lines that collide with line of 0x2000 in the L1
        // but not in the (bigger) L2, to evict it from L1 only.
        let base_line = cfg.line_of(0x2000);
        let collide: Vec<u64> = (1u64..1_000_000)
            .map(|k| base_line + k)
            .filter(|&l| {
                l1.set_of(l) == l1.set_of(base_line) && l2.set_of(l) != l2.set_of(base_line)
            })
            .take(2)
            .collect();
        m.access(0, 0x2000, AccessKind::Read, 0);
        for (k, &l) in collide.iter().enumerate() {
            // Same page? Not necessarily — warm TLB by construction: use
            // large now gaps so fills settle; TLB misses only add to those
            // earlier accesses, not the probe below.
            m.access(0, l * 64, AccessKind::Read, 1000 * (k as u64 + 1));
        }
        let now = 100_000;
        let o = m.access(0, 0x2000, AccessKind::Read, now);
        assert_eq!(o.serviced_by, ServicedBy::L2);
        assert_eq!(o.complete_at, now + 10);
    }

    #[test]
    fn tlb_miss_adds_walk_penalty() {
        let mut m = sys(1);
        let o = m.access(0, 0x123456, AccessKind::Read, 0);
        assert!(o.tlb_miss);
        assert_eq!(o.complete_at, 30 + 40); // walk + local memory
    }

    #[test]
    fn secondary_miss_merges_and_completes_with_primary() {
        let mut m = sys(1);
        m.access(0, 0x0, AccessKind::Read, 0); // TLB warm
        let now = 10_000;
        let a = m.access(0, 0x5000, AccessKind::Read, now);
        let b = m.access(0, 0x5008, AccessKind::Read, now + 1); // same line
        assert_eq!(b.complete_at, a.complete_at);
        assert_eq!(m.stats().mshr_merges, 1);
    }

    #[test]
    fn remote_page_serviced_by_remote_memory_at_60() {
        let mut m = sys(4);
        // Page 1 homes at node 1; access from node 0.
        let addr = 4096;
        m.access(0, addr, AccessKind::Read, 0); // cold, TLB miss
        let now = 10_000;
        let o = m.access(0, addr + 64 * 3, AccessKind::Read, now); // same page, new line
        assert_eq!(o.serviced_by, ServicedBy::RemoteMem);
        assert_eq!(o.complete_at, now + 60);
    }

    #[test]
    fn dirty_remote_line_is_cache_to_cache_at_75() {
        let mut m = sys(4);
        let addr = 4096; // homed at node 1
                         // Warm node 0's TLB on a different line of the same page.
        m.access(0, addr + 64 * 5, AccessKind::Read, 0);
        // Node 2 writes the line (becomes Modified at node 2).
        m.access(2, addr, AccessKind::Write, 0);
        let now = 10_000;
        let o = m.access(0, addr, AccessKind::Read, now);
        assert_eq!(o.serviced_by, ServicedBy::RemoteL2);
        assert_eq!(o.complete_at, now + 75);
        assert_eq!(m.stats().remote_l2, 1);
    }

    #[test]
    #[should_panic(expected = "PAGE_SIZE = 4096 B")]
    fn a_page_size_the_workloads_do_not_use_is_refused() {
        let cfg = MemConfig {
            page_size: 2 * PAGE_SIZE,
            ..MemConfig::table3()
        };
        MemorySystem::new(cfg, 4, 42);
    }

    #[test]
    fn write_to_shared_line_pays_invalidation_penalty() {
        let mut m = sys(4);
        let addr = 0; // homed at node 0
        m.access(0, addr, AccessKind::Read, 0);
        m.access(1, addr, AccessKind::Read, 100); // now Shared{0,1}
        let now = 10_000;
        // Node 0 holds a clean copy in its L1; the write is an upgrade.
        let o = m.access(0, addr, AccessKind::Write, now);
        // local mem (40) + invalidation penalty (30) + L1 latency 1
        assert_eq!(o.complete_at, now + 40 + 30 + 1);
        assert_eq!(m.stats().invalidations, 1);
        // Node 1's copy is gone: its next read re-fetches beyond L1/L2.
        let o1 = m.access(1, addr, AccessKind::Read, now + 1000);
        assert_eq!(o1.serviced_by, ServicedBy::RemoteL2); // dirty at node 0 now
    }

    #[test]
    fn single_node_writes_never_pay_coherence() {
        let mut m = sys(1);
        m.access(0, 0x0, AccessKind::Read, 0);
        let now = 10_000;
        let o = m.access(0, 0x0, AccessKind::Write, now);
        assert_eq!(o.serviced_by, ServicedBy::L1);
        assert_eq!(o.complete_at, now + 1);
        assert_eq!(m.stats().invalidations, 0);
        assert_eq!(m.stats().upgrades, 0);
    }

    #[test]
    fn bank_contention_delays_back_to_back_same_bank_accesses() {
        let mut m = sys(1);
        // Warm two lines in the same L1 bank (same line → same bank trivially;
        // use two addresses in one line's bank: line L and L + 7 share bank
        // (7 banks, line-interleaved ⇒ same bank every 7 lines)).
        let a1 = 0x0u64;
        let a2 = 7 * 64u64;
        m.access(0, a1, AccessKind::Read, 0);
        m.access(0, a2, AccessKind::Read, 500);
        let now = 10_000;
        let x = m.access(0, a1, AccessKind::Read, now);
        let y = m.access(0, a2, AccessKind::Read, now);
        assert_eq!(x.complete_at, now + 1);
        assert_eq!(
            y.complete_at,
            now + 2,
            "second access queues behind the bank"
        );
    }

    #[test]
    fn l2_eviction_back_invalidates_the_l1() {
        let mut m = sys(1);
        let cfg = MemConfig::table3();
        let l2 = crate::cache::Cache::l2(&cfg);
        // Find 4 extra lines colliding with line X in the (4-way) L2.
        let x = cfg.line_of(0x3000);
        let collide: Vec<u64> = (1u64..10_000_000)
            .map(|k| x + k * 7) // odd stride avoids degenerate L1 patterns
            .filter(|&l| l2.set_of(l) == l2.set_of(x))
            .take(4)
            .collect();
        m.access(0, 0x3000, AccessKind::Read, 0);
        // X now in L1+L2. Evict it from the L2 with 4 colliding fills.
        for (k, &l) in collide.iter().enumerate() {
            m.access(0, l * 64, AccessKind::Read, 1_000 * (k as u64 + 1));
        }
        // X must have left the L1 as well: the re-access misses to memory
        // (L1 hit would complete at +1, L2 at +10).
        let now = 1_000_000;
        let o = m.access(0, 0x3000, AccessKind::Read, now);
        assert!(
            o.complete_at >= now + 40,
            "inclusion violated: {:?} in {} cycles",
            o.serviced_by,
            o.complete_at - now
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut m = sys(4);
            let mut sum = 0u64;
            for i in 0..2000u64 {
                let node = (i % 4) as usize;
                let addr = (i * 811) % (1 << 20);
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                sum = sum.wrapping_add(m.access(node, addr, kind, i * 2).complete_at);
            }
            (sum, m.stats())
        };
        let (s1, st1) = run();
        let (s2, st2) = run();
        assert_eq!(s1, s2);
        assert_eq!(st1, st2);
    }

    #[test]
    fn stats_accumulate_sensibly() {
        let mut m = sys(1);
        for i in 0..100u64 {
            m.access(0, i * 8, AccessKind::Read, i * 50);
        }
        let s = m.stats();
        assert_eq!(s.accesses, 100);
        // 100 sequential dwords = 13 lines: ~13 misses, rest L1 hits/merges.
        assert!(s.l1_hits > 80, "{s:?}");
        assert!(s.local_mem >= 12, "{s:?}");
    }

    #[test]
    fn free_mshrs_decrease_with_outstanding_misses() {
        let mut m = sys(1);
        m.access(0, 0, AccessKind::Read, 0); // TLB warm
        let now = 10_000;
        assert_eq!(m.free_mshrs(0, now), 32);
        for k in 0..5u64 {
            m.access(0, 0x10_000 + k * 64, AccessKind::Read, now);
        }
        assert!(m.free_mshrs(0, now) <= 27);
        assert_eq!(m.free_mshrs(0, now + 10_000), 32);
    }
}
