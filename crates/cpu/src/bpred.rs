//! Branch prediction (paper §3.1).
//!
//! "A 2K-entry direct-mapped branch prediction table, with each entry having
//! a 2-bit saturating counter and addressed by the low-order bits of the PC,
//! allows multiple branch predictions to be performed even when there are
//! pending unresolved branches."
//!
//! We add the branch target buffer of Figure 2: a predicted-taken branch
//! whose target is absent from the BTB cannot be fetched past, which the
//! pipeline treats like a misprediction (fetch resumes at resolution).

/// 2-bit saturating counter states. Strong-not-taken is the implicit
/// floor (0) that `saturating_sub` clamps to, so it needs no name.
const WEAK_NT: u8 = 1;
const WEAK_T: u8 = 2;
const STRONG_T: u8 = 3;

/// Direction-prediction scheme.
///
/// The paper's core uses the 2-bit bimodal table quoted above; `GShare`
/// (global history XOR PC) and `StaticTaken` are provided for the
/// predictor ablation (`csmt-study predictor_study`) —
/// gshare is the natural mid-1990s upgrade, static-taken the lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// 2K-entry bimodal, 2-bit saturating counters — the paper's design.
    #[default]
    Bimodal,
    /// Gshare: PHT indexed by PC XOR a global history register. The
    /// history register is shared by all threads of the cluster (as a real
    /// SMT front end would share it), so cross-thread interference is
    /// modelled. History updates at resolution.
    GShare {
        /// Bits of global history folded into the index.
        history_bits: u32,
    },
    /// Predict taken always (with BTB): the no-hardware baseline.
    StaticTaken,
}

/// Direct-mapped pattern history table + BTB.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    kind: PredictorKind,
    counters: Vec<u8>,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    /// Speculative global history (gshare): updated at predict with the
    /// predicted outcome, repaired from `arch_ghr` when a misprediction
    /// resolves (mirroring the pipeline squash).
    ghr: u64,
    /// Architectural global history: updated only at resolution with true
    /// outcomes.
    arch_ghr: u64,
    lookups: u64,
    mispredicts: u64,
}

/// PHT entries (paper: 2K).
pub const PHT_ENTRIES: usize = 2048;
/// BTB entries (paper Figure 2 shows a BTB but gives no size; 512 is the
/// period-typical choice, documented in DESIGN.md).
pub const BTB_ENTRIES: usize = 512;

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// Fresh predictor of the paper's bimodal kind.
    pub fn new() -> Self {
        Self::with_kind(PredictorKind::Bimodal)
    }

    /// Fresh predictor of the given kind.
    pub fn with_kind(kind: PredictorKind) -> Self {
        BranchPredictor {
            kind,
            counters: vec![WEAK_NT; PHT_ENTRIES],
            btb_tags: vec![u64::MAX; BTB_ENTRIES],
            btb_targets: vec![0; BTB_ENTRIES],
            ghr: 0,
            arch_ghr: 0,
            lookups: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn pht_index_with(&self, pc: u64, history: u64) -> usize {
        let base = (pc >> 2) as usize;
        match self.kind {
            PredictorKind::Bimodal | PredictorKind::StaticTaken => base & (PHT_ENTRIES - 1),
            PredictorKind::GShare { history_bits } => {
                let hist = (history & ((1u64 << history_bits) - 1)) as usize;
                (base ^ hist) & (PHT_ENTRIES - 1)
            }
        }
    }

    #[inline]
    fn btb_index(pc: u64) -> usize {
        ((pc >> 2) as usize) & (BTB_ENTRIES - 1)
    }

    /// Direction prediction for the branch at `pc`.
    #[inline]
    pub fn predict(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        if self.kind == PredictorKind::StaticTaken {
            return true;
        }
        let pred = self.counters[self.pht_index_with(pc, self.ghr)] >= WEAK_T;
        if matches!(self.kind, PredictorKind::GShare { .. }) {
            // Speculative history update with the prediction.
            self.ghr = (self.ghr << 1) | u64::from(pred);
        }
        pred
    }

    /// Whether the BTB can supply `target` for a predicted-taken branch.
    #[inline]
    pub fn btb_hit(&self, pc: u64, target: u64) -> bool {
        let i = Self::btb_index(pc);
        self.btb_tags[i] == pc && self.btb_targets[i] == target
    }

    /// Resolve the branch at `pc`: train the counter, fill the BTB for taken
    /// branches, and count mispredictions.
    pub fn resolve(&mut self, pc: u64, taken: bool, target: u64, was_mispredicted: bool) {
        // Train at the index the prediction-time history implied: the
        // architectural history leading into this branch (exact on the
        // correct path, the standard approximation after squashes).
        let idx = self.pht_index_with(pc, self.arch_ghr);
        let c = &mut self.counters[idx];
        *c = if taken {
            (*c + 1).min(STRONG_T)
        } else {
            c.saturating_sub(1)
        };
        if matches!(self.kind, PredictorKind::GShare { .. }) {
            self.arch_ghr = (self.arch_ghr << 1) | u64::from(taken);
            if was_mispredicted {
                // Squash repair: speculative history restarts from the
                // architectural one.
                self.ghr = self.arch_ghr;
            }
        }
        if taken {
            let i = Self::btb_index(pc);
            self.btb_tags[i] = pc;
            self.btb_targets[i] = target;
        }
        if was_mispredicted {
            self.mispredicts += 1;
        }
    }

    /// (lookups, mispredictions).
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_prediction_is_not_taken() {
        let mut p = BranchPredictor::new();
        assert!(!p.predict(0x1000));
    }

    #[test]
    fn counter_saturates_toward_taken() {
        let mut p = BranchPredictor::new();
        let pc = 0x44;
        p.resolve(pc, true, 0x10, false); // WEAK_NT -> WEAK_T
        assert!(p.predict(pc));
        p.resolve(pc, true, 0x10, false); // -> STRONG_T
        p.resolve(pc, false, 0x10, false); // -> WEAK_T: still predicts taken
        assert!(p.predict(pc));
        p.resolve(pc, false, 0x10, false); // -> WEAK_NT
        assert!(!p.predict(pc));
    }

    #[test]
    fn loop_branch_learns_after_two_takens() {
        let mut p = BranchPredictor::new();
        let pc = 0x88;
        let mut wrong = 0;
        for _ in 0..100 {
            let pred = p.predict(pc);
            if !pred {
                wrong += 1;
            }
            p.resolve(pc, true, 0x40, !pred);
        }
        assert_eq!(wrong, 1, "only the cold prediction misses");
    }

    #[test]
    fn aliasing_maps_to_same_counter() {
        let mut p = BranchPredictor::new();
        let pc = 0x100;
        let alias = pc + (PHT_ENTRIES as u64) * 4;
        for _ in 0..3 {
            p.resolve(pc, true, 0x0, false);
        }
        assert!(p.predict(alias), "aliased PC shares the trained counter");
    }

    #[test]
    fn btb_filled_only_by_taken_branches() {
        let mut p = BranchPredictor::new();
        let pc = 0x200;
        assert!(!p.btb_hit(pc, 0x40));
        p.resolve(pc, false, 0x40, false);
        assert!(!p.btb_hit(pc, 0x40));
        p.resolve(pc, true, 0x40, false);
        assert!(p.btb_hit(pc, 0x40));
        assert!(!p.btb_hit(pc, 0x44), "target must match");
    }

    #[test]
    fn static_taken_always_predicts_taken() {
        let mut p = BranchPredictor::with_kind(PredictorKind::StaticTaken);
        assert!(p.predict(0x10));
        p.resolve(0x10, false, 0, true);
        assert!(p.predict(0x10), "no learning in the static predictor");
    }

    #[test]
    fn gshare_learns_an_alternating_pattern_bimodal_cannot() {
        // taken, not-taken, taken, not-taken...: bimodal oscillates around
        // ~50% accuracy; gshare keys off the previous outcome and converges.
        let run = |kind: PredictorKind| {
            let mut p = BranchPredictor::with_kind(kind);
            let pc = 0x40;
            let mut wrong = 0;
            for i in 0..400u64 {
                let actual = i % 2 == 0;
                let pred = p.predict(pc);
                if pred != actual {
                    wrong += 1;
                }
                p.resolve(pc, actual, 0x80, pred != actual);
            }
            wrong
        };
        let bimodal = run(PredictorKind::Bimodal);
        let gshare = run(PredictorKind::GShare { history_bits: 8 });
        assert!(gshare < 20, "gshare should converge: {gshare}");
        assert!(bimodal > 100, "bimodal should thrash: {bimodal}");
    }

    #[test]
    fn gshare_still_learns_loop_branches() {
        let mut p = BranchPredictor::with_kind(PredictorKind::GShare { history_bits: 6 });
        let pc = 0x88;
        let mut wrong = 0;
        for _ in 0..200 {
            let pred = p.predict(pc);
            if !pred {
                wrong += 1;
            }
            p.resolve(pc, true, 0x40, !pred);
        }
        assert!(wrong <= 8, "all-taken history saturates quickly: {wrong}");
    }

    #[test]
    fn mispredict_stat_counts_resolutions() {
        let mut p = BranchPredictor::new();
        p.resolve(0, true, 0, true);
        p.resolve(0, true, 0, false);
        p.resolve(0, false, 0, true);
        assert_eq!(p.stats().1, 2);
    }
}
