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
    println!(
        "{:<6} {:<14} {:>14} {:>10} {:>12}",
        "arch", "predictor", "total cycles", "vs bimod", "mispred rate"
    );
    for arch in [ArchKind::Fa8, ArchKind::Fa1, ArchKind::Smt2, ArchKind::Smt1] {
        let mut baseline = 0u64;
        // Bimodal first to establish the baseline.
        let order = [1usize, 0, 2];
        let mut rows = Vec::new();
        for &i in &order {
            let (name, kind) = predictors[i];
            let chip = arch.chip().with_predictor(kind);
            let mut cycles = 0u64;
            let mut lookups = 0u64;
            let mut wrong = 0u64;
            for app in all_apps() {
                let r = RunSpec {
                    chip,
                    ..RunSpec::new(&app, arch, 1, scale, 7)
                }
                .run();
                cycles += r.cycles;
                lookups += r.branch_lookups;
                wrong += r.branch_mispredicts;
            }
            if kind == PredictorKind::Bimodal {
                baseline = cycles;
            }
            rows.push((i, name, cycles, wrong as f64 / lookups.max(1) as f64));
        }
        rows.sort_by_key(|r| r.0);
        for (_, name, cycles, rate) in rows {
            println!(
                "{:<6} {:<14} {:>14} {:>9.1}% {:>11.2}%",
                arch.name(),
                name,
                cycles,
                100.0 * cycles as f64 / baseline as f64 - 100.0,
                rate * 100.0
            );
        }
        println!();
    }
}
