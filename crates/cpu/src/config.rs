//! Per-cluster resource budgets (the columns of paper Table 2).
//!
//! A chip is `n` identical clusters; chip-level constructors live in
//! `csmt-core::configs`. The invariant running through Table 2 is that the
//! whole chip always sums to (about) the same hardware: 8 issue slots, 128
//! window/ROB entries, 128+128 renaming registers, 8/8/8 functional units —
//! except FA1/SMT1, whose single 8-issue cluster has 6/4/4 units, exactly as
//! the paper specifies for the conventional superscalar.

/// How the cluster's fetch unit chooses threads each cycle.
///
/// The paper's architectures fetch from one thread per cycle in round-robin
/// order (§3.2); its §5.2 discussion of the fetch bottleneck cites Tullsen
/// et al.'s alternatives — "partitioning the fetch unit or using
/// instruction count feedback techniques" — which are provided here for the
/// corresponding ablation (`csmt-study fetch_policies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// One thread per cycle, strict round-robin — the paper's baseline.
    #[default]
    RoundRobin,
    /// Instruction-count feedback (ICOUNT): fetch for the thread with the
    /// fewest instructions in flight, so no thread clogs the shared window.
    ICount,
    /// Partitioned fetch: two threads fetch per cycle, half the width each.
    Partitioned2,
}

/// Resource budget of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Maximum instructions issued per cycle (also the per-thread fetch
    /// width: "each cluster has its own fetch unit, with a thread capable of
    /// fetching up to <issue width> instructions/cycle", §3.3).
    pub issue_width: usize,
    /// Hardware thread contexts in this cluster (1 for FA clusters).
    pub hw_threads: usize,
    /// Functional units: `[integer, load/store, floating point]`.
    pub fu_counts: [usize; 3],
    /// Entries in the shared instruction window / reorder buffer (Table 2
    /// lists a single figure for both).
    pub window_entries: usize,
    /// Integer renaming registers.
    pub rename_int: usize,
    /// FP renaming registers.
    pub rename_fp: usize,
    /// Instructions retired per cycle (= issue width; §3.1 "fetch and retire
    /// up to n instructions each cycle").
    pub retire_width: usize,
    /// Fetch-unit thread-selection policy (paper baseline: round-robin).
    pub fetch_policy: FetchPolicy,
    /// Branch-direction predictor (paper baseline: 2-bit bimodal).
    pub predictor: crate::bpred::PredictorKind,
    /// Store-buffer entries: committed stores whose cache write is still in
    /// flight. A full buffer stalls store commit (a structural hazard).
    /// The paper does not size one; 16 is generous enough to be invisible
    /// in the baseline and exists for the backpressure ablation.
    pub store_buffer: usize,
}

impl ClusterConfig {
    /// A cluster of the given issue width with Table 2's proportional
    /// budgets: `width × 16` window entries and rename registers of each
    /// kind, `width` FUs of each kind (capped per the 8-issue special case).
    pub fn for_width(issue_width: usize, hw_threads: usize) -> Self {
        assert!(
            matches!(issue_width, 1 | 2 | 4 | 8),
            "paper uses widths 1/2/4/8"
        );
        assert!(hw_threads >= 1);
        let fu_counts = if issue_width == 8 {
            // Table 2: the 8-issue cluster (FA1 / SMT1) has 6/4/4 units.
            [6, 4, 4]
        } else {
            [issue_width, issue_width, issue_width]
        };
        ClusterConfig {
            issue_width,
            hw_threads,
            fu_counts,
            window_entries: issue_width * 16,
            rename_int: issue_width * 16,
            rename_fp: issue_width * 16,
            retire_width: issue_width,
            fetch_policy: FetchPolicy::RoundRobin,
            predictor: crate::bpred::PredictorKind::Bimodal,
            store_buffer: 16,
        }
    }

    /// The same budget with a different store-buffer capacity.
    pub fn with_store_buffer(self, store_buffer: usize) -> Self {
        assert!(store_buffer >= 1);
        ClusterConfig {
            store_buffer,
            ..self
        }
    }

    /// The same budget with a different branch predictor.
    pub fn with_predictor(self, predictor: crate::bpred::PredictorKind) -> Self {
        ClusterConfig { predictor, ..self }
    }

    /// The same budget with a different fetch policy.
    pub fn with_fetch_policy(self, fetch_policy: FetchPolicy) -> Self {
        ClusterConfig {
            fetch_policy,
            ..self
        }
    }

    /// Total issue slots per cycle (for slot accounting).
    pub fn slots_per_cycle(&self) -> usize {
        self.issue_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's per-cluster rows.
    #[test]
    fn table2_cluster_budgets() {
        // FA8 / (SMT8): 1-issue clusters.
        let c1 = ClusterConfig::for_width(1, 1);
        assert_eq!(c1.fu_counts, [1, 1, 1]);
        assert_eq!(c1.window_entries, 16);
        assert_eq!((c1.rename_int, c1.rename_fp), (16, 16));
        // FA4 / SMT4: 2-issue clusters.
        let c2 = ClusterConfig::for_width(2, 2);
        assert_eq!(c2.fu_counts, [2, 2, 2]);
        assert_eq!(c2.window_entries, 32);
        assert_eq!((c2.rename_int, c2.rename_fp), (32, 32));
        // FA2 / SMT2: 4-issue clusters.
        let c4 = ClusterConfig::for_width(4, 4);
        assert_eq!(c4.fu_counts, [4, 4, 4]);
        assert_eq!(c4.window_entries, 64);
        assert_eq!((c4.rename_int, c4.rename_fp), (64, 64));
        // FA1 / SMT1: one 8-issue cluster with 6/4/4 units.
        let c8 = ClusterConfig::for_width(8, 8);
        assert_eq!(c8.fu_counts, [6, 4, 4]);
        assert_eq!(c8.window_entries, 128);
        assert_eq!((c8.rename_int, c8.rename_fp), (128, 128));
    }

    #[test]
    fn retire_width_tracks_issue_width() {
        for w in [1, 2, 4, 8] {
            let c = ClusterConfig::for_width(w, 1);
            assert_eq!(c.retire_width, w);
            assert_eq!(c.slots_per_cycle(), w);
        }
    }

    #[test]
    #[should_panic]
    fn odd_widths_rejected() {
        ClusterConfig::for_width(3, 1);
    }

    #[test]
    fn default_fetch_policy_is_the_papers_round_robin() {
        assert_eq!(
            ClusterConfig::for_width(4, 4).fetch_policy,
            FetchPolicy::RoundRobin
        );
        let c = ClusterConfig::for_width(4, 4).with_fetch_policy(FetchPolicy::ICount);
        assert_eq!(c.fetch_policy, FetchPolicy::ICount);
        assert_eq!(c.issue_width, 4);
    }
}
