//! Branch-predictor ablation (extension).
//!
//! The paper fixes a 2K-entry 2-bit bimodal table (§3.1). This study swaps
//! in a static-taken predictor (lower bound) and an 8-bit gshare (the
//! natural mid-90s upgrade) to measure how much of each architecture's
//! performance rides on prediction quality — wide single-thread machines
//! (FA1) lean hardest on speculation depth, many-context machines least.

use csmt_core::ArchKind;
use csmt_cpu::PredictorKind;
use csmt_workloads::{all_apps, RunSpec};

fn main() {
    let scale = csmt_bench::scale_from_args_or(0.5);
    let predictors = [
        ("static-taken", PredictorKind::StaticTaken),
        ("bimodal-2bit", PredictorKind::Bimodal),
        ("gshare-8", PredictorKind::GShare { history_bits: 8 }),
    ];
    // One grid, in print order: arch x predictor, each over the six
    // applications.
    const ARCHS: [ArchKind; 4] = [ArchKind::Fa8, ArchKind::Fa1, ArchKind::Smt2, ArchKind::Smt1];
    let apps = all_apps();
    let mut groups = Vec::new();
    for arch in ARCHS {
        for (_, kind) in predictors {
            let over_apps = apps.iter().map(|app| RunSpec {
                chip: arch.chip().with_predictor(kind),
                ..RunSpec::new(app, arch, 1, scale, 7)
            });
            groups.push(over_apps.collect());
        }
    }
    // (cycles, lookups, mispredicts) over the six applications, per group.
    let totals: Vec<(u64, u64, u64)> = csmt_bench::run_groups(groups)
        .iter()
        .map(|runs| {
            runs.iter().fold((0, 0, 0), |t, r| {
                (
                    t.0 + r.cycles,
                    t.1 + r.branch_lookups,
                    t.2 + r.branch_mispredicts,
                )
            })
        })
        .collect();
    println!(
        "{:<6} {:<14} {:>14} {:>10} {:>12}",
        "arch", "predictor", "total cycles", "vs bimod", "mispred rate"
    );
    let bimodal = predictors
        .iter()
        .position(|(_, kind)| *kind == PredictorKind::Bimodal)
        .expect("the paper's predictor is the baseline");
    for (arch, totals) in ARCHS.iter().zip(totals.chunks(predictors.len())) {
        for ((name, _), (cycles, lookups, wrong)) in predictors.iter().zip(totals) {
            println!(
                "{:<6} {:<14} {:>14} {:>9.1}% {:>11.2}%",
                arch.name(),
                name,
                cycles,
                100.0 * *cycles as f64 / totals[bimodal].0 as f64 - 100.0,
                *wrong as f64 / (*lookups).max(1) as f64 * 100.0
            );
        }
        println!();
    }
}
