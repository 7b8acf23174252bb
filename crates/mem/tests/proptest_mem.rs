//! Property-based tests of the memory system: cache behaviour against a
//! naive reference model, directory protocol invariants against a
//! state-machine spec, and whole-hierarchy conservation laws.

use csmt_mem::cache::{Cache, LookupResult};
use csmt_mem::directory::{DirState, Directory, Service};
use csmt_mem::{AccessKind, MemConfig, MemorySystem};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Cache vs reference model
// ---------------------------------------------------------------------

/// Naive reference: per-set LRU list of (line, dirty).
struct RefCache {
    sets: HashMap<usize, Vec<(u64, bool)>>,
    assoc: usize,
}

impl RefCache {
    fn access(&mut self, set: usize, line: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        let ways = self.sets.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
            let (l, d) = ways.remove(pos);
            ways.push((l, d || write)); // move to MRU
            return (true, None);
        }
        let victim = if ways.len() >= self.assoc {
            Some(ways.remove(0))
        } else {
            None
        };
        ways.push((line, write));
        (false, victim)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The cache's hit/miss/victim behaviour matches an independent LRU
    /// reference model, for arbitrary access sequences.
    #[test]
    fn cache_matches_reference_lru(
        accesses in prop::collection::vec((0u64..256, any::<bool>()), 1..400),
        assoc in 1usize..5,
    ) {
        let sets = 16usize;
        let mut cache = Cache::new(sets, assoc, 7);
        let mut reference = RefCache { sets: HashMap::new(), assoc };
        for (line, write) in accesses {
            let set = cache.set_of(line);
            let (ref_hit, ref_victim) = reference.access(set, line, write);
            match cache.access(line, write) {
                LookupResult::Hit => prop_assert!(ref_hit, "cache hit, reference missed: line {line}"),
                LookupResult::Miss { evicted } => {
                    prop_assert!(!ref_hit, "cache missed, reference hit: line {line}");
                    match (evicted, ref_victim) {
                        (None, None) => {}
                        (Some(v), Some((rl, rd))) => {
                            prop_assert_eq!(v.line, rl);
                            prop_assert_eq!(v.dirty, rd);
                        }
                        (a, b) => prop_assert!(false, "victim mismatch: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// probe_dirty agrees with access outcomes.
    #[test]
    fn cache_probe_consistency(
        accesses in prop::collection::vec((0u64..128, any::<bool>()), 1..200),
    ) {
        let mut cache = Cache::new(8, 2, 7);
        for (line, write) in accesses {
            cache.access(line, write);
            let dirty = cache.probe_dirty(line);
            prop_assert!(dirty.is_some(), "just-accessed line must be present");
            if write {
                prop_assert_eq!(dirty, Some(true));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Directory protocol vs state-machine spec
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefDir {
    Uncached,
    Shared(u32),
    Exclusive(usize),
    Modified(usize),
}

fn ref_read(state: RefDir, node: usize) -> RefDir {
    let bit = 1u32 << node;
    match state {
        RefDir::Uncached => RefDir::Exclusive(node),
        RefDir::Shared(m) => RefDir::Shared(m | bit),
        RefDir::Exclusive(o) if o == node => RefDir::Exclusive(o),
        RefDir::Exclusive(o) => RefDir::Shared(bit | (1 << o)),
        RefDir::Modified(o) if o == node => RefDir::Exclusive(node),
        RefDir::Modified(o) => RefDir::Shared(bit | (1 << o)),
    }
}

fn ref_write(state: RefDir, node: usize) -> RefDir {
    let _ = state;
    RefDir::Modified(node)
}

fn states_match(a: DirState, b: RefDir) -> bool {
    match (a, b) {
        (DirState::Uncached, RefDir::Uncached) => true,
        (DirState::Shared(x), RefDir::Shared(y)) => x == y,
        (DirState::Exclusive(x), RefDir::Exclusive(y)) => x as usize == y,
        (DirState::Modified(x), RefDir::Modified(y)) => x as usize == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The directory follows the MESI state-machine spec for any sequence
    /// of reads/writes from any nodes, and each outcome is consistent with
    /// the pre-state (c2c only from Modified; invalidations only when other
    /// copies existed).
    #[test]
    fn directory_follows_mesi_spec(
        ops in prop::collection::vec((0usize..4, any::<bool>()), 1..200),
    ) {
        let mut dir = Directory::new(4, 64);
        let mut reference = RefDir::Uncached;
        let line = 5u64;
        for (node, is_write) in ops {
            let pre = reference;
            let out = if is_write { dir.write(line, node) } else { dir.read(line, node) };
            reference = if is_write { ref_write(pre, node) } else { ref_read(pre, node) };
            prop_assert!(states_match(dir.inspect(line), reference),
                "state diverged: {:?} vs {reference:?} after node {node} {}",
                dir.inspect(line), if is_write { "write" } else { "read" });
            // Cache-to-cache service only when the line was Modified elsewhere.
            if let Service::RemoteL2 { owner } = out.service {
                prop_assert!(matches!(pre, RefDir::Modified(o) if o == owner && o != node));
            }
            // Invalidations only if other nodes really held copies.
            if out.invalidated_mask != 0 {
                prop_assert!(is_write);
                let holders = match pre {
                    RefDir::Shared(m) => m & !(1 << node),
                    RefDir::Exclusive(o) | RefDir::Modified(o) if o != node => 1 << o,
                    _ => 0,
                };
                prop_assert_eq!(out.invalidated_mask, holders);
            }
            // Silent upgrades only from own Exclusive/Modified.
            if out.service == Service::None {
                prop_assert!(matches!(pre, RefDir::Exclusive(o) | RefDir::Modified(o) if o == node));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-hierarchy conservation laws
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every access is serviced by exactly one level: the per-level
    /// counters partition the access count, completion times never precede
    /// the request, and latency is at least the level's Table 3 round trip.
    #[test]
    fn hierarchy_conservation(
        accesses in prop::collection::vec(
            (0usize..4, 0u64..(1 << 22), any::<bool>(), 1u64..50),
            1..300
        ),
    ) {
        let mut m = MemorySystem::new(MemConfig::table3(), 4, 9);
        let mut now = 0u64;
        let mut count = 0u64;
        for (node, addr, is_write, dt) in accesses {
            now += dt;
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let out = m.access(node, addr & !7, kind, now);
            count += 1;
            prop_assert!(out.complete_at > now, "completion {} <= request {}", out.complete_at, now);
            let min = match out.serviced_by {
                csmt_mem::ServicedBy::L1 => 1,
                csmt_mem::ServicedBy::L2 => 1, // merges may complete almost immediately
                csmt_mem::ServicedBy::LocalMem => 40,
                csmt_mem::ServicedBy::RemoteMem => 60,
                csmt_mem::ServicedBy::RemoteL2 => 75,
            };
            prop_assert!(out.complete_at - now >= min || matches!(out.serviced_by, csmt_mem::ServicedBy::L2),
                "{:?} completed in {} cycles", out.serviced_by, out.complete_at - now);
        }
        let s = m.stats();
        prop_assert_eq!(s.accesses, count);
        // Partition law: every access serviced at exactly one level.
        prop_assert_eq!(
            s.l1_hits + s.l2_hits + s.local_mem + s.remote_mem + s.remote_l2,
            count,
            "levels must partition accesses: {:?}", s
        );
        // Merges are a subset of L2-serviced accesses.
        prop_assert!(s.mshr_merges <= s.l2_hits);
    }

    /// Determinism of the full hierarchy.
    #[test]
    fn hierarchy_deterministic(
        accesses in prop::collection::vec((0usize..2, 0u64..(1 << 18), any::<bool>()), 1..200),
        seed in 0u64..100,
    ) {
        let run = || {
            let mut m = MemorySystem::new(MemConfig::table3(), 2, seed);
            let mut now = 0;
            let mut sum = 0u64;
            for (node, addr, w) in &accesses {
                now += 3;
                let kind = if *w { AccessKind::Write } else { AccessKind::Read };
                sum = sum.wrapping_add(m.access(*node, *addr, kind, now).complete_at);
            }
            (sum, m.stats())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}
