//! Per-cluster resource budgets (the columns of paper Table 2).
//!
//! A chip is `n` identical clusters; chip-level constructors live in
//! `csmt-core::configs`. The invariant running through Table 2 is that the
//! whole chip always sums to (about) the same hardware: 8 issue slots, 128
//! window/ROB entries, 128+128 renaming registers, 8/8/8 functional units —
//! except FA1/SMT1, whose single 8-issue cluster has 6/4/4 units, exactly as
//! the paper specifies for the conventional superscalar. Every budget is
//! therefore a function of the issue width, and only the width is stored.

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

/// Resource budget of one cluster: the Table 2 width and contexts, plus the
/// policies the ablations vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Maximum instructions issued per cycle (also the per-thread fetch
    /// width: "each cluster has its own fetch unit, with a thread capable of
    /// fetching up to \<issue width\> instructions/cycle", §3.3, and the
    /// retire width: "fetch and retire up to n instructions each cycle",
    /// §3.1).
    pub issue_width: usize,
    /// Hardware thread contexts in this cluster (1 for FA clusters).
    pub hw_threads: usize,
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
    /// A cluster of the given issue width with the paper's policies and
    /// Table 2's proportional budgets (see the budget methods below).
    pub fn for_width(issue_width: usize, hw_threads: usize) -> Self {
        assert!(
            matches!(issue_width, 1 | 2 | 4 | 8),
            "paper uses widths 1/2/4/8"
        );
        assert!(hw_threads >= 1);
        ClusterConfig {
            issue_width,
            hw_threads,
            fetch_policy: FetchPolicy::RoundRobin,
            predictor: crate::bpred::PredictorKind::Bimodal,
            store_buffer: 16,
        }
    }

    /// Entries in the shared instruction window / reorder buffer: `width ×
    /// 16` (Table 2 lists a single figure for both).
    pub fn window_entries(&self) -> usize {
        self.issue_width * 16
    }

    /// Renaming registers in each of the integer and FP pools: `width × 16`
    /// (Table 2 gives both pools the same size in every row).
    pub fn rename_regs(&self) -> usize {
        self.issue_width * 16
    }

    /// Functional units `[integer, load/store, floating point]`: `width` of
    /// each, except Table 2's 8-issue cluster (FA1 / SMT1) with 6/4/4.
    pub fn fu_counts(&self) -> [usize; 3] {
        if self.issue_width == 8 {
            [6, 4, 4]
        } else {
            [self.issue_width; 3]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's per-cluster rows: (width, FUs, IQ+ROB, rename regs).
    #[test]
    fn table2_cluster_budgets() {
        for (width, fus, window, rename) in [
            (1, [1, 1, 1], 16, 16),   // FA8 / (SMT8): 1-issue clusters
            (2, [2, 2, 2], 32, 32),   // FA4 / SMT4: 2-issue clusters
            (4, [4, 4, 4], 64, 64),   // FA2 / SMT2: 4-issue clusters
            (8, [6, 4, 4], 128, 128), // FA1 / SMT1: one 8-issue cluster
        ] {
            let c = ClusterConfig::for_width(width, 1);
            assert_eq!(c.fu_counts(), fus, "width {width}");
            assert_eq!(c.window_entries(), window, "width {width}");
            assert_eq!(c.rename_regs(), rename, "width {width}");
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
