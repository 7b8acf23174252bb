//! Deterministic SplitMix64 PRNG.
//!
//! Every source of "randomness" in the simulator (TLB random replacement,
//! irregular workload address patterns, wrong-path instruction mixes) draws
//! from a seeded [`SplitMix64`] so that a given configuration always produces
//! the same cycle count. Determinism is load-bearing: the paper's figures are
//! single runs, and our tests assert exact reproducibility.

/// SplitMix64 generator (Steele, Lea & Flood; public-domain constants).
///
/// Small, fast (one multiply-xor-shift chain per draw), and statistically
/// good enough for replacement policies and synthetic address streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Two generators with the same seed
    /// yield identical sequences.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply technique (Lemire); bias is negligible for
    /// the small bounds used here (≤ a few thousand).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derive an independent child generator. Used to give each thread /
    /// structure its own stream while keeping global determinism.
    #[inline]
    pub fn fork(&mut self, tag: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 7, 100, 4096] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_is_calibrated() {
        let mut r = SplitMix64::new(13);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        let mut fa2 = a.fork(2);
        assert_ne!(fa.next_u64(), fa2.next_u64());
    }
}
