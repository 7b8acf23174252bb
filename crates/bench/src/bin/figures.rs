//! The paper's four simulated bar charts from one table:
//! `figures <fig4|fig5|fig7|fig8|all> [scale]`. Each prints execution time
//! normalized to the figure's first architecture (= 100) with the §4.1
//! hazard breakdown per bar, then one verdict line per application; with
//! `CSMT_JSON_DIR` set the cells are also written as `<dir>/<figN>.json`.
//!
//! Paper shapes to verify — Figs 4/5 (FA vs SMT2; low-end, then four chips
//! on the DASH-like CC-NUMA): SMT2 takes the fewest cycles on all six
//! applications; FA curves are U-shaped (FA8 best for vpenta/ocean, mid FAs
//! for the rest) and on the high-end machine the sweet spot of the least
//! parallel applications moves toward FA1. Figs 7/8 (SMT8 = FA8 … SMT1):
//! cycles improve monotonically toward SMT1, SMT2 stays within 0–9% of it
//! (which the §5.2 clock argument turns into an SMT2 win), and the fetch
//! hazard grows from SMT4 toward SMT1 (Tullsen et al.'s shared-queue
//! bottleneck).

use csmt_bench::{fetch_fraction, render_figure, run_figure, write_json, AppRow, FIGURE_SCALE};
use csmt_core::ArchKind;
use csmt_workloads::all_apps;

/// The per-application verdict line printed under a figure's table.
enum Footer {
    /// Figs 4/5 — the paper's headline: SMT2's margin over the best FA.
    BestFaVsSmt2,
    /// Figs 7/8 — SMT2's distance from the centralized SMT1, optionally
    /// with the SMT4 → SMT2 → SMT1 fetch-hazard trend.
    Smt2VsSmt1 { fetch: bool },
}

/// One figure: command-line name (also the JSON file stem), grid (the
/// first architecture is the normalization baseline), title, verdict.
struct Figure {
    name: &'static str,
    archs: &'static [ArchKind],
    n_chips: usize,
    title: &'static str,
    footer: Footer,
}

const FIGURES: [Figure; 4] = [
    Figure {
        name: "fig4",
        archs: &ArchKind::FA_FIGURES,
        n_chips: 1,
        title: "Figure 4 — FA vs clustered SMT, low-end machine (normalized to FA8)",
        footer: Footer::BestFaVsSmt2,
    },
    Figure {
        name: "fig5",
        archs: &ArchKind::FA_FIGURES,
        n_chips: 4,
        title: "Figure 5 — FA vs clustered SMT, high-end machine (4 chips, normalized to FA8)",
        footer: Footer::BestFaVsSmt2,
    },
    Figure {
        name: "fig7",
        archs: &ArchKind::SMT_FIGURES,
        n_chips: 1,
        title: "Figure 7 — centralized vs clustered SMT, low-end machine (normalized to SMT8)",
        footer: Footer::Smt2VsSmt1 { fetch: true },
    },
    Figure {
        name: "fig8",
        archs: &ArchKind::SMT_FIGURES,
        n_chips: 4,
        title: "Figure 8 — centralized vs clustered SMT, high-end machine (4 chips, normalized to SMT8)",
        footer: Footer::Smt2VsSmt1 { fetch: false },
    },
];

fn best_fa_vs_smt2(row: &AppRow) {
    let best_fa = row
        .cells
        .iter()
        .filter(|c| c.arch != ArchKind::Smt2)
        .min_by(|a, b| a.normalized.partial_cmp(&b.normalized).unwrap())
        .unwrap();
    let smt2 = row.cell(ArchKind::Smt2);
    println!(
        "{:<8} best FA = {} ({:.0}), SMT2 = {:.0}  ({:+.1}% vs best FA)",
        row.app,
        best_fa.arch.name(),
        best_fa.normalized,
        smt2.normalized,
        100.0 * (smt2.normalized - best_fa.normalized) / best_fa.normalized,
    );
}

fn smt2_vs_smt1(row: &AppRow, fetch: bool) {
    let smt1 = row.cell(ArchKind::Smt1);
    let smt2 = row.cell(ArchKind::Smt2);
    print!(
        "{:<8} SMT2 = {:.0} vs SMT1 = {:.0} ({:+.1}%)",
        row.app,
        smt2.normalized,
        smt1.normalized,
        100.0 * (smt2.normalized - smt1.normalized) / smt1.normalized,
    );
    if fetch {
        print!(
            "  fetch: SMT4 {:.1}% → SMT2 {:.1}% → SMT1 {:.1}%",
            fetch_fraction(row.cell(ArchKind::Smt4)) * 100.0,
            fetch_fraction(smt2) * 100.0,
            fetch_fraction(smt1) * 100.0,
        );
    }
    println!();
}

fn run(fig: &Figure, scale: f64) {
    let rows = run_figure(fig.archs, &all_apps(), fig.n_chips, fig.archs[0], scale);
    if let Some(p) = write_json(&rows, fig.name) {
        eprintln!("wrote {}", p.display());
    }
    print!("{}", render_figure(fig.title, &rows));
    for row in &rows {
        match fig.footer {
            Footer::BestFaVsSmt2 => best_fa_vs_smt2(row),
            Footer::Smt2VsSmt1 { fetch } => smt2_vs_smt1(row, fetch),
        }
    }
}

fn main() {
    let which: String = csmt_bench::arg_or(1, String::new());
    let scale: f64 = csmt_bench::arg_or(2, FIGURE_SCALE);
    let selected: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| which == "all" || which == f.name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "usage: figures <fig4|fig5|fig7|fig8|all> [scale]   (default scale {FIGURE_SCALE})"
        );
        for f in &FIGURES {
            eprintln!("  {}  {}", f.name, f.title);
        }
        std::process::exit(2);
    }
    for (i, fig) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(fig, scale);
    }
}
