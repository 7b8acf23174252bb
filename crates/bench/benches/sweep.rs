//! Sweep-engine throughput: cells/sec cold (every cell simulated and
//! stored) vs warm (every cell a content-addressed cache hit) on a
//! figure-scale grid — the number the result cache must improve.
//!
//! The grid is the FA-figure architecture set × all six applications at
//! the figure seed, one chip. Cold and warm runs return bit-identical
//! results (the bench asserts the aggregate cycle count matches, and
//! `cycles_per_run` equality in the gate re-checks it every CI run), so
//! the warm/cold ratio is pure cache win; `BENCH_sweep.json` records
//! both floors for `scripts/bench_gate.sh`, and the acceptance bar is
//! warm ≥ 10× cold. Set `CSMT_BENCH_JSON=<path>` to dump the summary.

use csmt_core::ArchKind;
use csmt_sweep::{ResultCache, SweepEngine};
use csmt_workloads::{all_apps, AppSpec, RunSpec};
use std::time::Instant;

/// Work scale of the grid: figure-shaped but affordable in smoke mode.
const SCALE: f64 = 0.05;
/// The figure seed (`csmt_bench::FIGURE_SEED`).
const SEED: u64 = 0xC5_317;

/// The benchmark grid: FA figure set × all six applications.
fn grid(apps: &[AppSpec]) -> Vec<RunSpec<'_>> {
    apps.iter()
        .flat_map(|app| {
            ArchKind::FA_FIGURES
                .into_iter()
                .map(move |arch| RunSpec::new(app, arch, 1, SCALE, SEED))
        })
        .collect()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let warm_reps = if test_mode { 1 } else { 3 };
    let apps = all_apps();
    let cells = grid(&apps);

    let dir = std::env::temp_dir().join(format!("csmt_sweep_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir).expect("temp cache dir");
    let engine = SweepEngine::new(SweepEngine::from_env().threads(), Some(cache));

    // Cold: every cell simulates and stores.
    let t0 = Instant::now();
    let cold = engine.run_specs(&cells);
    let cold_secs = t0.elapsed().as_secs_f64();
    assert_eq!(cold.misses, cells.len(), "cold run must start empty");
    let total_cycles: u64 = cold.results.iter().map(|r| r.cycles).sum();
    let cold_cps = cells.len() as f64 / cold_secs;
    println!(
        "sweep/cold: {cold_cps:.2} cells/sec ({} cells, {total_cycles} total cycles, {cold_secs:.2}s)",
        cells.len()
    );

    // Warm: every cell is a verified cache hit; results bit-identical.
    let t0 = Instant::now();
    let mut warm_cycles = 0;
    for _ in 0..warm_reps {
        let warm = engine.run_specs(&cells);
        assert_eq!(warm.hits, cells.len(), "warm run must be pure hits");
        warm_cycles = warm.results.iter().map(|r| r.cycles).sum();
    }
    let warm_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        warm_cycles, total_cycles,
        "cached results must be bit-identical to simulated ones"
    );
    let warm_cps = (cells.len() * warm_reps) as f64 / warm_secs;
    let ratio = warm_cps / cold_cps;
    println!("sweep/warm: {warm_cps:.0} cells/sec ({warm_reps} rep(s), {warm_secs:.3}s)");
    println!(
        "sweep: warm/cold {ratio:.0}x on {} worker(s)",
        engine.threads()
    );

    if let Some(path) = std::env::var_os("CSMT_BENCH_JSON") {
        let body = format!(
            "[\n    {{\"scenario\": \"sweep_cold\", \"steps_per_sec\": {cold_cps:.2}, \
             \"cycles_per_run\": {total_cycles}}},\n    \
             {{\"scenario\": \"sweep_warm\", \"steps_per_sec\": {warm_cps:.0}, \
             \"cycles_per_run\": {warm_cycles}, \"warm_over_cold\": {ratio:.1}}}\n]\n"
        );
        std::fs::write(&path, body).expect("CSMT_BENCH_JSON must be writable");
        eprintln!("wrote {}", std::path::Path::new(&path).display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
