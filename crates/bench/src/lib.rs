//! # csmt-bench — figure/table regeneration harness
//!
//! The study table ([`studies::STUDIES`]: every EXPERIMENTS.md number is
//! one row, run by the `csmt-study` binary), the shared figure plumbing —
//! normalizing to the paper's baseline, rendering the stacked-bar
//! breakdowns as text tables, the §5.2 clock-frequency adjustment — and
//! the gated microbenches. The front doors parse argv with
//! `csmt_sweep::Cli`.

pub mod studies;

use csmt_core::{ArchKind, RunResult};
use csmt_cpu::Hazard;

/// Work scale of the figure studies (full figure quality).
pub const FIGURE_SCALE: f64 = 1.0;
/// Seed used by all figure runs.
pub const FIGURE_SEED: u64 = 0xC5_317;

/// Every `CSMT_*` environment knob, in one table: `(name, read by, what
/// it does)`. Printed by the front doors' `--help` (see
/// [`render_env_knobs`]) and mirrored in README.md; the
/// `env_knobs_match_readme_and_env_reads` test keeps table, README and
/// the actual `env::var` reads in step. Everything else a run can vary
/// is a flag.
pub const ENV_KNOBS: &[(&str, &str, &str)] = &[
    (
        "CSMT_SWEEP_CACHE=<dir>",
        "csmt-study, csmt-sweep",
        "content-addressed result cache: previously computed sweep cells are file reads (results are identical either way)",
    ),
    (
        "CSMT_SWEEP_THREADS=<n>",
        "csmt-study, csmt-sweep",
        "worker count of the sweep engine's job pool (default: host parallelism; results are identical at any count)",
    ),
    (
        "CSMT_BENCH_JSON=<path>",
        "machine_step, cluster_step, sweep benches",
        "dump the throughput summary as JSON (input format of bench_gate)",
    ),
];

/// The [`ENV_KNOBS`] table rendered as aligned help text.
pub fn render_env_knobs() -> String {
    use std::fmt::Write;
    let mut out = String::from("environment knobs:\n");
    for (name, bins, what) in ENV_KNOBS {
        let _ = writeln!(out, "  {name:<26} [{bins}]\n      {what}");
    }
    out
}

/// One figure cell: an application simulated on one architecture.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Architecture simulated.
    pub arch: ArchKind,
    /// Full run statistics.
    pub result: RunResult,
    /// Execution time normalized to the figure's baseline (=100).
    pub normalized: f64,
}

/// All architectures of one figure for one application.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// Application name.
    pub app: &'static str,
    /// One cell per architecture, in figure order.
    pub cells: Vec<Cell>,
}

impl AppRow {
    /// The architecture with the lowest cycle count.
    pub fn best(&self) -> &Cell {
        self.cells
            .iter()
            .min_by_key(|c| c.result.cycles)
            .expect("non-empty row")
    }

    /// Cell for a given architecture.
    pub fn cell(&self, arch: ArchKind) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.arch == arch)
            .expect("arch in row")
    }
}

/// §5.2 clock-frequency adjustment. Palacharla & Jouppi \[12\]: an 8-issue
/// cluster's cycle time is ~2× a 4-issue cluster's at 0.18 µm, while 4-issue
/// and narrower clusters cycle alike. Returns the relative cycle-time factor
/// (1.0 = fast clock).
pub fn cycle_time_factor(arch: ArchKind) -> f64 {
    match arch.chip().cluster().issue_width {
        8 => 2.0,
        _ => 1.0,
    }
}

/// Wall-clock-equivalent time: cycles × cycle-time factor.
pub fn adjusted_time(cell: &Cell) -> f64 {
    cell.result.cycles as f64 * cycle_time_factor(cell.arch)
}

/// Render one figure as the paper prints it: normalized execution time with
/// the §4.1 breakdown per bar.
pub fn render_figure(title: &str, rows: &[AppRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>6}  {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "arch", "norm", "useful", "other", "struct", "mem", "data", "ctrl", "sync", "fetch"
    );
    for row in rows {
        for cell in &row.cells {
            let b = cell.result.breakdown();
            let _ = writeln!(
                out,
                "{:<8} {:<6} {:>6.0}  {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
                row.app,
                cell.arch.name(),
                cell.normalized,
                b[0] * 100.0,
                b[1] * 100.0,
                b[2] * 100.0,
                b[3] * 100.0,
                b[4] * 100.0,
                b[5] * 100.0,
                b[6] * 100.0,
                b[7] * 100.0,
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// The fetch-hazard fraction of one cell.
pub fn fetch_fraction(c: &Cell) -> f64 {
    c.result.hazard_fraction(Hazard::Fetch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_factors_follow_palacharla_jouppi() {
        assert_eq!(cycle_time_factor(ArchKind::Fa1), 2.0);
        assert_eq!(cycle_time_factor(ArchKind::Smt1), 2.0);
        assert_eq!(cycle_time_factor(ArchKind::Smt2), 1.0);
        assert_eq!(cycle_time_factor(ArchKind::Fa8), 1.0);
    }

    /// The leading `CSMT_*` identifier of `s` (stops at `=`, a quote
    /// or a backtick).
    fn knob_name(s: &str) -> &str {
        let end = s
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(s.len());
        &s[..end]
    }

    /// Every `CSMT_*` string literal passed to `env::var` or
    /// `env::var_os` in the `.rs` files under `dir`.
    fn env_reads(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("source dir is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                env_reads(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
                for call in ["env::var(", "env::var_os("] {
                    for (at, _) in text.match_indices(call) {
                        let arg = text[at + call.len()..].trim_start();
                        if let Some(lit) = arg.strip_prefix("\"CSMT_") {
                            out.insert(format!("CSMT_{}", knob_name(lit)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn env_knobs_match_readme_and_env_reads() {
        use std::collections::BTreeSet;
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let table: BTreeSet<String> = ENV_KNOBS
            .iter()
            .map(|(name, _, _)| knob_name(name).to_owned())
            .collect();
        assert_eq!(table.len(), ENV_KNOBS.len(), "duplicate ENV_KNOBS row");

        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        let documented: BTreeSet<String> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `CSMT_"))
            .map(|rest| format!("CSMT_{}", knob_name(rest)))
            .collect();
        assert_eq!(table, documented, "ENV_KNOBS vs README knob table");

        // Library and binary sources, plus the bench targets (the only
        // readers of CSMT_BENCH_JSON).
        let mut read = BTreeSet::new();
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let krate = krate.expect("dir entry").path();
            for sub in ["src", "benches"] {
                if krate.join(sub).is_dir() {
                    env_reads(&krate.join(sub), &mut read);
                }
            }
        }
        assert_eq!(table, read, "ENV_KNOBS vs CSMT_* environment reads");
    }
}
