//! Chip-level architecture configurations (paper Table 2).
//!
//! | Type | Clusters × IPC | Threads/cluster \[chip\] |
//! |------|----------------|--------------------------|
//! | FA8  | 8 × 1          | 1 \[8\]                  |
//! | FA4  | 4 × 2          | 1 \[4\]                  |
//! | FA2  | 2 × 4          | 1 \[2\]                  |
//! | FA1  | 1 × 8          | 1 \[1\]                  |
//! | SMT4 | 4 × 2          | 2 \[8\]                  |
//! | SMT2 | 2 × 4          | 4 \[8\]                  |
//! | SMT1 | 1 × 8          | 8 \[8\]                  |
//!
//! `SMT8` is "a special case of the clustered SMT processor in that it is
//! the same as the FA8 processor" (§5.2) — we expose it as an alias.

use csmt_cpu::ClusterConfig;

/// The seven architectures of Table 2 (plus the SMT8 alias of FA8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Eight 1-issue single-threaded clusters.
    Fa8,
    /// Four 2-issue single-threaded clusters.
    Fa4,
    /// Two 4-issue single-threaded clusters.
    Fa2,
    /// One 8-issue conventional superscalar.
    Fa1,
    /// Eight 1-issue single-thread SMT clusters (alias of FA8).
    Smt8,
    /// Four 2-issue clusters, 2 threads each.
    Smt4,
    /// Two 4-issue clusters, 4 threads each — the paper's headline design.
    Smt2,
    /// One centralized 8-issue SMT, 8 threads.
    Smt1,
}

impl ArchKind {
    /// The five architectures compared in Figures 4 and 5.
    pub const FA_FIGURES: [ArchKind; 5] = [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt2,
    ];

    /// The four architectures compared in Figures 7 and 8.
    pub const SMT_FIGURES: [ArchKind; 4] = [
        ArchKind::Smt8,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ];

    /// All distinct configurations.
    pub const ALL: [ArchKind; 8] = [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt8,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ];

    /// Display name as used in the paper's charts.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Fa8 => "FA8",
            ArchKind::Fa4 => "FA4",
            ArchKind::Fa2 => "FA2",
            ArchKind::Fa1 => "FA1",
            ArchKind::Smt8 => "SMT8",
            ArchKind::Smt4 => "SMT4",
            ArchKind::Smt2 => "SMT2",
            ArchKind::Smt1 => "SMT1",
        }
    }

    /// Clusters on the chip: Table 2's "Clusters" column.
    pub fn clusters(self) -> usize {
        match self {
            ArchKind::Fa8 | ArchKind::Smt8 => 8,
            ArchKind::Fa4 | ArchKind::Smt4 => 4,
            ArchKind::Fa2 | ArchKind::Smt2 => 2,
            ArchKind::Fa1 | ArchKind::Smt1 => 1,
        }
    }

    /// The chip configuration for this architecture: [`clusters`]
    /// clusters of width `8 / clusters`, each with one context (fixed
    /// assignment) or `width` contexts (clustered SMT, 8 per chip). SMT8's
    /// single-context 1-wide clusters satisfy both readings: it *is* FA8
    /// (§5.2).
    ///
    /// [`clusters`]: ArchKind::clusters
    pub fn chip(self) -> ChipConfig {
        let width = CHIP_ISSUE_WIDTH / self.clusters();
        let contexts = match self {
            ArchKind::Fa8 | ArchKind::Fa4 | ArchKind::Fa2 | ArchKind::Fa1 => 1,
            _ => width,
        };
        ChipConfig {
            kind: self,
            cluster: ClusterConfig::for_width(width, contexts),
        }
    }
}

/// A chip: identical SMT clusters sharing the chip's L1/L2 through the
/// memory system, nothing else (§3.3). Only [`ArchKind::chip`] builds one,
/// so its shape is always a Table 2 row; the modifiers change policies,
/// never budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipConfig {
    kind: ArchKind,
    cluster: ClusterConfig,
}

/// Total chip issue width in every Table 2 configuration.
pub const CHIP_ISSUE_WIDTH: usize = 8;

impl ChipConfig {
    /// Which Table 2 row this is.
    pub fn kind(&self) -> ArchKind {
        self.kind
    }

    /// Number of clusters on the chip.
    pub fn clusters(&self) -> usize {
        self.kind.clusters()
    }

    /// Per-cluster budget.
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster
    }

    /// Hardware thread contexts on the whole chip (Table 2's bracketed
    /// "\[chip\]" column).
    pub fn threads_per_chip(&self) -> usize {
        self.clusters() * self.cluster.hw_threads
    }

    /// The same chip with a different per-cluster fetch policy (for the
    /// Tullsen fetch-bottleneck ablation).
    pub fn with_fetch_policy(mut self, policy: csmt_cpu::FetchPolicy) -> Self {
        self.cluster = self.cluster.with_fetch_policy(policy);
        self
    }

    /// The same chip with a different branch predictor (predictor ablation).
    pub fn with_predictor(mut self, predictor: csmt_cpu::PredictorKind) -> Self {
        self.cluster = self.cluster.with_predictor(predictor);
        self
    }

    /// The same chip with a different per-cluster store-buffer capacity
    /// (backpressure ablation).
    pub fn with_store_buffer(mut self, store_buffer: usize) -> Self {
        self.cluster = self.cluster.with_store_buffer(store_buffer);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_cpu::{FetchPolicy, PredictorKind};

    /// One Table 2 row: (kind, clusters, ipc/cluster, threads/chip,
    /// FUs/cluster, IQ+ROB/cluster, rename regs/cluster).
    type Table2Row = (ArchKind, usize, usize, usize, [usize; 3], usize, usize);

    /// Table 2, every row and column — as built, and after every policy
    /// modifier (an ablation never leaves its row).
    #[test]
    fn table2_chip_rows() {
        let rows: [Table2Row; 8] = [
            // kind, clusters, ipc/cluster, threads/chip, FUs/cluster, IQ+ROB/cluster, rename/cluster
            (ArchKind::Fa8, 8, 1, 8, [1, 1, 1], 16, 16),
            (ArchKind::Fa4, 4, 2, 4, [2, 2, 2], 32, 32),
            (ArchKind::Fa2, 2, 4, 2, [4, 4, 4], 64, 64),
            (ArchKind::Fa1, 1, 8, 1, [6, 4, 4], 128, 128),
            (ArchKind::Smt8, 8, 1, 8, [1, 1, 1], 16, 16),
            (ArchKind::Smt4, 4, 2, 8, [2, 2, 2], 32, 32),
            (ArchKind::Smt2, 2, 4, 8, [4, 4, 4], 64, 64),
            (ArchKind::Smt1, 1, 8, 8, [6, 4, 4], 128, 128),
        ];
        for (kind, clusters, ipc, threads, fus, iq, ren) in rows {
            let ablated = kind
                .chip()
                .with_fetch_policy(FetchPolicy::ICount)
                .with_predictor(PredictorKind::StaticTaken)
                .with_store_buffer(1);
            assert_eq!(ablated.cluster().store_buffer, 1, "{kind:?}");
            for c in [kind.chip(), ablated] {
                let cl = c.cluster();
                assert_eq!(c.kind(), kind);
                assert_eq!(c.clusters(), clusters, "{kind:?}");
                assert_eq!(cl.issue_width, ipc, "{kind:?}");
                assert_eq!(c.clusters() * cl.issue_width, CHIP_ISSUE_WIDTH, "{kind:?}");
                assert_eq!(c.threads_per_chip(), threads, "{kind:?}");
                assert_eq!(cl.fu_counts(), fus, "{kind:?}");
                assert_eq!(cl.window_entries(), iq, "{kind:?}");
                assert_eq!(cl.rename_regs(), ren, "{kind:?}");
            }
        }
    }

    #[test]
    fn smt8_is_fa8_in_hardware() {
        let a = ArchKind::Smt8.chip();
        let b = ArchKind::Fa8.chip();
        assert_eq!(a.clusters(), b.clusters());
        assert_eq!(a.cluster(), b.cluster());
    }

    #[test]
    fn figure_sets_are_subsets_of_all() {
        for k in ArchKind::FA_FIGURES.iter().chain(&ArchKind::SMT_FIGURES) {
            assert!(ArchKind::ALL.contains(k));
        }
    }
}
