//! Issue-slot accounting (paper §4.1).
//!
//! "We gather detailed statistics on an issue slot basis. For each
//! processor, we scan the entire instruction window every cycle and record
//! the type of hazard faced by each instruction that is unable to issue. At
//! the end, the wasted slots are divided proportionally among the different
//! types of hazards."
//!
//! The scan is the definition, not the implementation: each window entry
//! caches its class and the per-thread class counts are maintained as
//! instructions move (see `pipeline::window`), which yields the weights the
//! scan would; test and debug builds run the scan too and assert equality.
//!
//! The eight categories are exactly the paper's: `useful` plus the seven
//! hazard classes of its stacked bars.

use serde::Serialize;

/// One cluster's activity deltas for a single cycle, returned by the
/// stepping entry points so the machine can maintain its running
/// cycle-stats aggregates without re-merging every cluster's full
/// [`SlotStats`] each cycle.
///
/// Both counts are exact integers (bounded by the issue/retire width),
/// so folding them into `u64` accumulators and converting to `f64` at
/// emission reproduces the old full-merge values bit for bit: every
/// intermediate value is far below 2^53, where `f64` addition of
/// integers is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Useful (correct-path) instructions issued this cycle.
    pub useful: u32,
    /// Instructions committed this cycle.
    pub committed: u32,
}

/// The §4.1 hazard classes, defined once in the probe vocabulary
/// (`csmt_isa::vocab`) so the observers name the same enum.
pub use csmt_isa::Hazard;

/// The §4.1 division of `wasted` slots over one cycle's hazard `weights`:
/// `wasted * w / total` for each non-zero weight, or all of it to `fetch`
/// when every weight is zero (an empty window with nothing to blame means
/// fetch could not keep up). The one copy of the arithmetic: both
/// [`SlotStats::record_cycle`] and a [`StallShares`] come from here.
fn split(wasted: f64, weights: &[f64; 7]) -> [f64; 7] {
    let mut out = [0.0; 7];
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        // Most cycles blame two or three hazards: a zero weight's share
        // is `0.0` without the divide.
        for (o, &w) in out.iter_mut().zip(weights) {
            if w != 0.0 {
                *o = wasted * w / total;
            }
        }
    } else {
        out[Hazard::Fetch.index()] = wasted;
    }
    out
}

/// What one cycle with nothing issued charges at `width` under fixed
/// hazard `weights`, divided once so a cluster stalled for many cycles
/// replays it with [`SlotStats::record_stalled`] instead of dividing again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StallShares {
    width: usize,
    wasted: [f64; 7],
}

impl StallShares {
    /// The shares `record_cycle(width, 0, 0, weights)` adds.
    pub(crate) fn new(width: usize, weights: &[f64; 7]) -> Self {
        StallShares {
            width,
            wasted: split(width as f64, weights),
        }
    }
}

/// Accumulated slot statistics for one cluster (or one whole machine after
/// merging). Wasted slots are divided *proportionally* among the hazards
/// observed in a cycle, so the accumulators are `f64`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SlotStats {
    /// Slots that issued useful (correct-path) instructions.
    pub useful: f64,
    /// Wasted slots by hazard (indexed by [`Hazard::index`]).
    pub wasted: [f64; 7],
    /// Total cycles accounted.
    pub cycles: u64,
    /// Total issue slots accounted (cycles × width).
    pub slots: u64,
    /// Useful instructions committed (architectural work, for IPC).
    pub committed: u64,
}

impl SlotStats {
    /// Record one cycle of `width` slots: `useful` issued correct-path,
    /// `other_issued` issued wrong-path (charged to `other`), and the rest
    /// split proportionally over `weights` (indexed by hazard). If all
    /// weights are zero the residue is charged to `fetch` (an empty window
    /// with nothing to blame means fetch could not keep up).
    pub fn record_cycle(
        &mut self,
        width: usize,
        useful: usize,
        other_issued: usize,
        weights: &[f64; 7],
    ) {
        debug_assert!(useful + other_issued <= width);
        self.cycles += 1;
        self.slots += width as u64;
        self.useful += useful as f64;
        self.wasted[Hazard::Other.index()] += other_issued as f64;
        let wasted = (width - useful - other_issued) as f64;
        if wasted > 0.0 {
            self.charge(&split(wasted, weights));
        }
    }

    /// Record one cycle in which nothing issued: bit for bit what
    /// `record_cycle(width, 0, 0, weights)` adds for the `shares` built
    /// from the same `width` and `weights`, without redoing the division.
    /// (`record_cycle`'s `useful` and `other` terms are `+ 0.0` there,
    /// which leaves a never-negative accumulator's bits alone.)
    pub(crate) fn record_stalled(&mut self, shares: &StallShares) {
        self.cycles += 1;
        self.slots += shares.width as u64;
        self.charge(&shares.wasted);
    }

    fn charge(&mut self, shares: &[f64; 7]) {
        // A zero share adds `+0.0`, which leaves the (never negative)
        // accumulator's bits alone: no branch needed.
        for (acc, s) in self.wasted.iter_mut().zip(shares) {
            *acc += s;
        }
    }

    /// Merge another cluster's slots into this accumulator. `cycles` is
    /// taken as the max (clusters advance in lockstep).
    pub fn merge(&mut self, other: &SlotStats) {
        self.useful += other.useful;
        for (a, b) in self.wasted.iter_mut().zip(&other.wasted) {
            *a += b;
        }
        self.cycles = self.cycles.max(other.cycles);
        self.slots += other.slots;
        self.committed += other.committed;
    }

    /// Fraction of all slots in each category, `[useful, other, structural,
    /// memory, data, control, sync, fetch]`, summing to ~1.
    pub fn breakdown(&self) -> [f64; 8] {
        let total = self.slots as f64;
        if total == 0.0 {
            return [0.0; 8];
        }
        let mut out = [0.0; 8];
        out[0] = self.useful / total;
        for h in Hazard::ALL {
            out[1 + h.index()] = self.wasted[h.index()] / total;
        }
        out
    }

    /// Committed useful instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_all_fields() {
        let mut s = SlotStats::default();
        s.record_cycle(4, 2, 1, &[0.0; 7]);
        s.committed = 2;
        let v = serde::Serialize::to_value(&s);
        assert_eq!(v["useful"].as_f64(), Some(2.0));
        assert_eq!(v["wasted"][Hazard::Other.index()].as_f64(), Some(1.0));
        assert_eq!(v["cycles"].as_u64(), Some(1));
        assert_eq!(v["slots"].as_u64(), Some(4));
        assert_eq!(v["committed"].as_u64(), Some(2));
    }

    #[test]
    fn full_issue_cycle_is_all_useful() {
        let mut s = SlotStats::default();
        s.record_cycle(4, 4, 0, &[0.0; 7]);
        assert_eq!(s.useful, 4.0);
        assert_eq!(s.wasted.iter().sum::<f64>(), 0.0);
        assert_eq!(s.slots, 4);
    }

    #[test]
    fn wasted_slots_divide_proportionally() {
        let mut s = SlotStats::default();
        let mut w = [0.0; 7];
        w[Hazard::Data.index()] = 3.0;
        w[Hazard::Memory.index()] = 1.0;
        s.record_cycle(8, 4, 0, &w);
        assert!((s.wasted[Hazard::Data.index()] - 3.0).abs() < 1e-9);
        assert!((s.wasted[Hazard::Memory.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_path_issue_charges_other() {
        let mut s = SlotStats::default();
        s.record_cycle(4, 1, 2, &[0.0; 7]);
        assert_eq!(s.useful, 1.0);
        assert_eq!(s.wasted[Hazard::Other.index()], 2.0);
        // The remaining slot with no weights goes to fetch.
        assert_eq!(s.wasted[Hazard::Fetch.index()], 1.0);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let mut s = SlotStats::default();
        let mut w = [0.0; 7];
        w[Hazard::Sync.index()] = 1.0;
        for _ in 0..10 {
            s.record_cycle(8, 3, 1, &w);
        }
        let b = s.breakdown();
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((b[0] - 3.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_slots_and_commits() {
        let mut a = SlotStats::default();
        a.record_cycle(4, 2, 0, &[0.0; 7]);
        a.committed = 10;
        let mut b = SlotStats::default();
        b.record_cycle(4, 4, 0, &[0.0; 7]);
        b.record_cycle(4, 4, 0, &[0.0; 7]);
        b.committed = 5;
        a.merge(&b);
        assert_eq!(a.slots, 12);
        assert_eq!(a.cycles, 2); // lockstep: max, not sum
        assert_eq!(a.committed, 15);
        assert_eq!(a.useful, 10.0);
    }

    /// A stall span replays one division: k `record_stalled` calls must
    /// leave every accumulator with the bits of k `record_cycle(width, 0,
    /// 0, w)` calls, from accumulators that already hold fractions, for
    /// weights blaming nothing (the fetch fallback), one class, or several.
    #[test]
    fn record_stalled_is_record_cycle_bit_for_bit() {
        let mut one = [0.0; 7];
        one[Hazard::Sync.index()] = 3.0;
        let mut several = [0.0; 7];
        several[Hazard::Memory.index()] = 5.0;
        several[Hazard::Data.index()] = 2.0;
        several[Hazard::Sync.index()] = 1.0;
        several[Hazard::Other.index()] = 1.0;
        let mut start = SlotStats::default();
        let mut thirds = [0.0; 7];
        thirds[Hazard::Memory.index()] = 1.0;
        thirds[Hazard::Data.index()] = 2.0;
        for _ in 0..7 {
            start.record_cycle(8, 3, 0, &thirds);
            start.record_cycle(8, 1, 2, &several);
        }
        assert!(start.wasted.iter().any(|w| w.fract() != 0.0));
        let bits = |s: &SlotStats| {
            (
                s.useful.to_bits(),
                s.wasted.map(f64::to_bits),
                s.cycles,
                s.slots,
            )
        };
        for weights in [[0.0; 7], one, several] {
            for width in [1, 4, 8] {
                let (mut cycled, mut stalled) = (start.clone(), start.clone());
                let shares = StallShares::new(width, &weights);
                for k in 0..1000 {
                    cycled.record_cycle(width, 0, 0, &weights);
                    stalled.record_stalled(&shares);
                    assert_eq!(
                        bits(&stalled),
                        bits(&cycled),
                        "{weights:?} x{width}, cycle {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn ipc_uses_committed_over_cycles() {
        let mut s = SlotStats::default();
        s.record_cycle(8, 8, 0, &[0.0; 7]);
        s.record_cycle(8, 0, 0, &[0.0; 7]);
        s.committed = 8;
        assert!((s.ipc() - 4.0).abs() < 1e-9);
    }
}
