//! Translation lookaside buffer.
//!
//! §3.4: "the 512-entry TLB is shared by all threads and is fully
//! associative and uses random replacement." Fully associative lookup is
//! modelled with a hash set plus a FIFO-ordered slot vector; the victim on a
//! fill is chosen uniformly at random from a deterministic PRNG.

use csmt_isa::{FxHashMap, SplitMix64};

/// Fully associative TLB with random replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// page -> slot index, for O(1) lookup. Deterministic fixed-seed Fx
    /// hashing: this map sits on every memory access and is never
    /// iterated, so the std SipHash + random seed buys nothing here.
    map: FxHashMap<u64, usize>,
    /// slot -> page.
    slots: Vec<u64>,
    capacity: usize,
    rng: SplitMix64,
}

impl Tlb {
    /// TLB with `capacity` entries and a deterministic replacement stream.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 1);
        let mut map = FxHashMap::default();
        map.reserve(capacity * 2);
        Self {
            map,
            slots: Vec::with_capacity(capacity),
            capacity,
            rng: SplitMix64::new(seed),
        }
    }

    /// Translate `page`; returns true on hit. On a miss the page is filled,
    /// evicting a uniformly random victim when full.
    pub fn access(&mut self, page: u64) -> bool {
        if self.map.contains_key(&page) {
            return true;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(page, self.slots.len());
            self.slots.push(page);
        } else {
            let victim = self.rng.below_usize(self.capacity);
            let old = self.slots[victim];
            self.map.remove(&old);
            self.map.insert(page, victim);
            self.slots[victim] = page;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4, 1);
        assert!(!t.access(100));
        assert!(t.access(100));
    }

    #[test]
    fn fills_to_capacity_without_eviction() {
        let mut t = Tlb::new(4, 1);
        for p in 0..4 {
            t.access(p);
        }
        assert_eq!(t.slots.len(), 4);
        for p in 0..4 {
            assert!(t.access(p), "page {p} should be resident");
        }
    }

    #[test]
    fn random_replacement_evicts_exactly_one() {
        let mut t = Tlb::new(4, 1);
        for p in 0..4 {
            t.access(p);
        }
        t.access(99); // evicts one of 0..4
        assert_eq!(t.slots.len(), 4);
        assert!(t.access(99));
        let survivors = (0..4).filter(|&p| t.map.contains_key(&p)).count();
        assert_eq!(survivors, 3);
    }

    #[test]
    fn replacement_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = Tlb::new(8, seed);
            let mut trace = Vec::new();
            for i in 0..100u64 {
                trace.push(t.access(i * 3 % 17));
            }
            trace
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn map_and_slots_stay_consistent() {
        let mut t = Tlb::new(3, 5);
        for i in 0..50u64 {
            t.access(i % 11);
            assert_eq!(t.map.len(), t.slots.len().min(3));
            for (slot, &page) in t.slots.iter().enumerate() {
                assert_eq!(t.map.get(&page), Some(&slot));
            }
        }
    }
}
