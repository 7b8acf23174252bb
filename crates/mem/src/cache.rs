//! Set-associative, banked, write-back cache tag arrays.
//!
//! Timing (bank contention, fill time) lives in the hierarchy; this module
//! is the stateful tag/LRU machinery shared by L1 and L2. Both caches in the
//! paper are write-back / write-allocate with LRU within a set (the
//! conventional 1998 design; the paper specifies sizes, associativity, banks
//! and fill time but not the policy, so we use the standard one and note it
//! in DESIGN.md).

use crate::config::{MemConfig, L1_ASSOC, L1_SETS, L2_ASSOC, L2_SETS};

/// Result of a lookup-with-fill operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent; it has been filled. Carries the evicted victim, if the
    /// victim was valid, and whether it was dirty (needs writeback).
    Miss {
        /// The valid line this fill displaced, if any.
        evicted: Option<Victim>,
    },
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line address (byte address / line size) of the victim.
    pub line: u64,
    /// True if the line was modified and must be written back.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u32,
}

const INVALID: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// One cache level: tags + LRU + dirty bits, organized as `sets × assoc`.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: Vec<Way>,
    sets: usize,
    assoc: usize,
    banks: usize,
    lru_clock: u32,
}

impl Cache {
    /// Build a cache with `sets` sets of `assoc` ways across `banks` banks
    /// and LRU replacement.
    pub fn new(sets: usize, assoc: usize, banks: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc >= 1 && banks >= 1);
        Cache {
            ways: vec![INVALID; sets * assoc],
            sets,
            assoc,
            banks,
            lru_clock: 0,
        }
    }

    /// L1 cache per Table 3 dimensions.
    pub fn l1(cfg: &MemConfig) -> Self {
        Self::new(L1_SETS, L1_ASSOC, cfg.banks)
    }

    /// L2 cache per Table 3 dimensions.
    pub fn l2(cfg: &MemConfig) -> Self {
        Self::new(L2_SETS, L2_ASSOC, cfg.banks)
    }

    /// Set index with XOR-folded hashing. Plain modulo indexing makes every
    /// power-of-two-spaced stream (per-thread data slices, large array
    /// strides) collide in one set; folding the upper line bits in — as real
    /// L2s and most simulators do — decorrelates them.
    #[inline]
    pub fn set_of(&self, line: u64) -> usize {
        let bits = self.sets.trailing_zeros();
        let mask = self.sets as u64 - 1;
        let mut x = line;
        let mut s = 0u64;
        while x != 0 {
            s ^= x & mask;
            x >>= bits;
        }
        s as usize
    }

    /// Bank servicing `line`. Banks are line-interleaved, the standard
    /// layout for multi-banked caches.
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        (line as usize) % self.banks
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }

    /// Probe without modifying state (used by the directory to ask whether a
    /// node still caches a line).
    pub fn probe(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let tag = line;
        (0..self.assoc).any(|w| {
            let way = &self.ways[self.slot(set, w)];
            way.valid && way.tag == tag
        })
    }

    /// Probe without modifying state, reporting the line's dirty bit if
    /// present. Used for write-upgrade detection (`Some(false)` means the
    /// node holds a clean copy whose first write needs a directory upgrade).
    pub fn probe_dirty(&self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        (0..self.assoc).find_map(|w| {
            let way = &self.ways[self.slot(set, w)];
            (way.valid && way.tag == line).then_some(way.dirty)
        })
    }

    /// Access `line`; on a miss, allocate it (write-allocate), evicting LRU.
    /// `write` sets the dirty bit on the (now-present) line.
    pub fn access(&mut self, line: u64, write: bool) -> LookupResult {
        let set = self.set_of(line);
        let tag = line;
        self.lru_clock = self.lru_clock.wrapping_add(1);
        // One fused pass over the set: hit check, first-invalid victim
        // candidate and the lowest-stamp (LRU) candidate together, where
        // separate scans would walk the ways up to three times.
        let base = self.slot(set, 0);
        let mut invalid_way = usize::MAX;
        let mut stamp_way = 0;
        let mut stamp_best = u32::MAX;
        for w in 0..self.assoc {
            let way = self.ways[base + w];
            if way.valid {
                if way.tag == tag {
                    self.ways[base + w].lru = self.lru_clock;
                    self.ways[base + w].dirty |= write;
                    return LookupResult::Hit;
                }
                if way.lru < stamp_best {
                    stamp_best = way.lru;
                    stamp_way = w;
                }
            } else if invalid_way == usize::MAX {
                invalid_way = w;
            }
        }
        // Victim: first invalid way, else the least recently used. (When
        // no way is invalid every way was valid, so `stamp_way` covered
        // the full set.)
        let victim_way = if invalid_way != usize::MAX {
            invalid_way
        } else {
            stamp_way
        };
        let idx = base + victim_way;
        let evicted = if self.ways[idx].valid {
            Some(Victim {
                line: self.ways[idx].tag,
                dirty: self.ways[idx].dirty,
            })
        } else {
            None
        };
        self.ways[idx] = Way {
            tag,
            valid: true,
            dirty: write,
            lru: self.lru_clock,
        };
        LookupResult::Miss { evicted }
    }

    /// Invalidate `line` if present; returns `Some(dirty)` if it was there.
    /// Used by the directory protocol.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        for w in 0..self.assoc {
            let idx = self.slot(set, w);
            if self.ways[idx].valid && self.ways[idx].tag == line {
                let dirty = self.ways[idx].dirty;
                self.ways[idx] = INVALID;
                return Some(dirty);
            }
        }
        None
    }

    /// Downgrade `line` to clean (after a cache-to-cache transfer the owner
    /// keeps a shared clean copy). Returns true if the line was present.
    pub fn clean(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        for w in 0..self.assoc {
            let idx = self.slot(set, w);
            if self.ways[idx].valid && self.ways[idx].tag == line {
                self.ways[idx].dirty = false;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{L1_SIZE, L2_SIZE, LINE_SIZE};

    fn small() -> Cache {
        // 4 sets, 2-way: 8 lines total.
        Cache::new(4, 2, 7)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(matches!(
            c.access(5, false),
            LookupResult::Miss { evicted: None }
        ));
        assert_eq!(c.access(5, false), LookupResult::Hit);
    }

    /// First three lines that map to the same set as line 0.
    fn colliding_lines(c: &Cache, n: usize) -> Vec<u64> {
        let target = c.set_of(0);
        (0u64..100_000)
            .filter(|&l| c.set_of(l) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn lru_evicts_least_recently_used_within_set() {
        let mut c = small();
        let ls = colliding_lines(&c, 3);
        c.access(ls[0], false);
        c.access(ls[1], false);
        c.access(ls[0], false); // ls[0] now MRU; ls[1] is LRU
        match c.access(ls[2], false) {
            LookupResult::Miss { evicted: Some(v) } => assert_eq!(v.line, ls[1]),
            other => panic!("{other:?}"),
        }
        assert!(c.probe(ls[0]));
        assert!(!c.probe(ls[1]));
        assert!(c.probe(ls[2]));
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = small();
        let ls = colliding_lines(&c, 4);
        c.access(ls[0], true); // dirty
        c.access(ls[1], false); // clean
                                // Evict ls[0] (LRU): should be dirty.
        match c.access(ls[2], false) {
            LookupResult::Miss { evicted: Some(v) } => {
                assert_eq!(v.line, ls[0]);
                assert!(v.dirty);
            }
            other => panic!("{other:?}"),
        }
        // Now ls[1] is LRU and clean.
        match c.access(ls[3], false) {
            LookupResult::Miss { evicted: Some(v) } => {
                assert_eq!(v.line, ls[1]);
                assert!(!v.dirty);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(3, false);
        c.access(3, true);
        assert_eq!(c.invalidate(3), Some(true));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(9, false);
        assert_eq!(c.invalidate(9), Some(false));
        assert_eq!(c.invalidate(9), None);
        assert!(!c.probe(9));
    }

    #[test]
    fn clean_downgrades_dirty_line() {
        let mut c = small();
        c.access(2, true);
        assert!(c.clean(2));
        assert_eq!(c.invalidate(2), Some(false));
        assert!(!c.clean(2));
    }

    #[test]
    fn banks_are_line_interleaved() {
        let c = Cache::new(8, 1, 7);
        for line in 0..21u64 {
            assert_eq!(c.bank_of(line), (line % 7) as usize);
        }
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for line in 0..4u64 {
            assert!(matches!(
                c.access(line, false),
                LookupResult::Miss { evicted: None }
            ));
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line, false), LookupResult::Hit);
        }
    }

    #[test]
    fn set_hash_spreads_power_of_two_strides() {
        // Streams spaced by large powers of two (the pathological case for
        // modulo indexing) must land in many distinct sets.
        let c = Cache::new(512, 2, 7);
        let sets: std::collections::HashSet<usize> =
            (0..16u64).map(|t| c.set_of(t << 20)).collect();
        assert!(sets.len() >= 12, "only {} distinct sets", sets.len());
    }

    #[test]
    fn table3_geometry_roundtrip() {
        let cfg = MemConfig::table3();
        let l1 = Cache::l1(&cfg);
        let l2 = Cache::l2(&cfg);
        assert_eq!(l1.sets * l1.assoc * LINE_SIZE, L1_SIZE);
        assert_eq!(l2.sets * l2.assoc * LINE_SIZE, L2_SIZE);
    }
}
