//! Figure 6: ILP versus thread parallelism for the six applications,
//! measured exactly as the paper does — thread parallelism as the average
//! number of running threads on FA8 (the architecture enabling the most
//! thread parallelism), ILP as the average IPC on FA1 (the architecture
//! enabling the most ILP) — for the low-end (a) and high-end (b) machines.
//!
//! The analytic model (§2) is consulted for each measured point: which
//! architecture the model predicts best, versus which the simulator found
//! best, closing the loop of the paper's §5.1.1.

use csmt_core::ArchKind;
use csmt_model::{AppPoint, ArchModel};
use csmt_workloads::all_apps;

/// The FA columns of Figs 4/5 (the same cells: a cache `figures` filled
/// serves them).
const FAS: [ArchKind; 4] = [ArchKind::Fa8, ArchKind::Fa4, ArchKind::Fa2, ArchKind::Fa1];

fn measure(n_chips: usize, scale: f64) {
    println!(
        "{:<8} {:>8} {:>8}   {:>12} {:>12}",
        "app", "threads", "ilp", "model best", "sim best FA"
    );
    for row in &csmt_bench::run_figure(&FAS, &all_apps(), n_chips, ArchKind::Fa8, scale) {
        let fa8 = &row.cell(ArchKind::Fa8).result;
        let fa1 = &row.cell(ArchKind::Fa1).result;
        // Per-chip averages, as the paper plots single-processor charts.
        let threads = (fa8.avg_running_threads / n_chips as f64).max(0.05);
        let ilp = (fa1.ipc() / n_chips as f64).max(0.05);
        let point = AppPoint::new(threads, ilp);
        let fas = [
            ArchModel::Fa { clusters: 8 },
            ArchModel::Fa { clusters: 4 },
            ArchModel::Fa { clusters: 2 },
            ArchModel::Fa { clusters: 1 },
        ];
        let model_best = csmt_model::ranking(&fas, point)[0].0.name();
        println!(
            "{:<8} {:>8.2} {:>8.2}   {:>12} {:>12}",
            row.app,
            threads,
            ilp,
            model_best,
            row.best().arch.name()
        );
    }
}

fn main() {
    let scale = csmt_bench::scale_from_args_or(1.0);
    println!("== Figure 6(a) — low-end machine ==");
    measure(1, scale);
    println!("\n== Figure 6(b) — high-end machine (per-chip averages) ==");
    measure(4, scale);
}
