//! Figure 9 (extension): dynamic thread-to-cluster allocation on the
//! clustered SMT chip.
//!
//! The paper fixes thread-to-cluster assignment at fork and notes the
//! clustered design "allows a simpler thread scheduler" — this study asks
//! what moving threads *during* execution buys. Every workload runs on
//! SMT2 under each scheduling policy (static round-robin, barrier
//! rebalance, hazard pairing) and on FA4 under static, all with the same
//! seed; execution time is normalized to SMT2/static = 100 (lower is
//! better).
//!
//! Workloads: the six applications (threads = hardware contexts, as in
//! Figs 4–8) plus one multiprogrammed mix of eight independent sequential
//! jobs. For the mix, FA4's four contexts run the eight jobs in two
//! capacity-sized batches so total work matches SMT2's single batch.
//!
//! ```text
//! cargo run --release --bin fig9_dynamic_alloc [scale] [--smoke] [--sched <policy>]
//! ```
//!
//! `--smoke` uses a small scale (0.05) for CI; `--sched` restricts the
//! dynamic policies run (the SMT2/static baseline always runs).

use csmt_bench::{render_env_knobs, FIGURE_SCALE, FIGURE_SEED};
use csmt_core::sched::POLICY_NAMES;
use csmt_core::ArchKind;
use csmt_workloads::{
    all_apps, simulate, simulate_job_batches, simulate_multiprogram, AppSpec, RunSpec,
};
use serde::Serialize;

/// Scale used by `--smoke` (CI gate).
const SMOKE_SCALE: f64 = 0.05;
/// Jobs in the multiprogrammed mix row.
const MIX_JOBS: usize = 8;

/// One measured cell of the figure.
#[derive(Debug, Clone, Serialize)]
struct Fig9Cell {
    workload: String,
    variant: String,
    cycles: u64,
    normalized: f64,
    ipc: f64,
    migrations: u64,
    migration_wait_cycles: u64,
}

/// A workload row: either one parallel application or the job mix.
enum Workload {
    App(AppSpec),
    Mix(&'static str, Vec<AppSpec>),
}

impl Workload {
    fn name(&self) -> &str {
        match self {
            Workload::App(a) => a.name,
            Workload::Mix(n, _) => n,
        }
    }

    /// Run this workload on SMT2 under `policy`, or on FA4/static when
    /// `policy` is `None`.
    fn run(&self, policy: Option<&str>, scale: f64) -> (u64, f64, u64, u64) {
        match (self, policy) {
            (Workload::App(app), Some(sched)) => {
                let r = RunSpec {
                    sched,
                    ..RunSpec::new(app, ArchKind::Smt2, 1, scale, FIGURE_SEED)
                }
                .run();
                (r.cycles, r.ipc(), r.migrations, r.migration_wait_cycles)
            }
            (Workload::App(app), None) => {
                let r = simulate(app, ArchKind::Fa4, 1, scale, FIGURE_SEED);
                (r.cycles, r.ipc(), 0, 0)
            }
            (Workload::Mix(_, mix), Some(sched)) => {
                let r = simulate_multiprogram(mix, ArchKind::Smt2, 1, scale, FIGURE_SEED, sched);
                (r.cycles, r.ipc(), r.migrations, r.migration_wait_cycles)
            }
            (Workload::Mix(_, mix), None) => {
                // FA4 has 4 contexts: the 8-job set runs as 2 batches with
                // the same per-job streams SMT2 sees, so work is identical.
                let r = simulate_job_batches(
                    mix,
                    MIX_JOBS,
                    ArchKind::Fa4.chip(),
                    1,
                    scale,
                    FIGURE_SEED,
                );
                (r.total_cycles, r.throughput(), 0, 0)
            }
        }
    }
}

fn usage() -> String {
    format!(
        "usage: fig9_dynamic_alloc [scale] [--smoke] [--sched <policy>]\n\
         \n\
         policies: {}\n\
         --smoke      small scale ({SMOKE_SCALE}) for CI\n\
         --sched <p>  run only dynamic policy <p> (baseline always runs)\n\
         \n\
         {}",
        POLICY_NAMES.join(", "),
        render_env_knobs()
    )
}

fn main() {
    let mut scale: Option<f64> = None;
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--sched" => {
                let Some(p) = args.next() else {
                    eprintln!("--sched needs a policy name\n\n{}", usage());
                    std::process::exit(2);
                };
                if !POLICY_NAMES.contains(&p.as_str()) {
                    eprintln!(
                        "unknown scheduling policy {p:?} (valid policies: {})",
                        POLICY_NAMES.join(", ")
                    );
                    std::process::exit(2);
                }
                only = Some(p);
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            s => scale = Some(s.parse().expect("scale must be a float")),
        }
    }
    let scale = scale.unwrap_or(if smoke { SMOKE_SCALE } else { FIGURE_SCALE });

    let apps = all_apps();
    let mix: Vec<AppSpec> = vec![
        apps[0].clone(), // swim
        apps[3].clone(), // vpenta
        apps[1].clone(), // tomcatv
        apps[5].clone(), // ocean
    ];
    let mut workloads: Vec<Workload> = apps.into_iter().map(Workload::App).collect();
    workloads.push(Workload::Mix("mix4x2", mix));

    // Column order: SMT2 under each policy, then the FA4 reference.
    let mut variants: Vec<(String, Option<String>)> =
        vec![("SMT2/static".into(), Some("static".into()))];
    for p in POLICY_NAMES {
        if p == "static" {
            continue;
        }
        if only.as_deref().is_none_or(|o| o == p) {
            variants.push((format!("SMT2/{p}"), Some(p.to_string())));
        }
    }
    variants.push(("FA4/static".into(), None));

    // Every cell is an independent deterministic simulation: run the
    // flattened grid through the bounded work-stealing sweep pool
    // (CSMT_SWEEP_THREADS workers) and reassemble rows in order.
    let ncols = variants.len();
    let flat = csmt_sweep::pool::run_jobs(
        workloads.len() * ncols,
        csmt_sweep::SweepEngine::from_env().threads(),
        |i| workloads[i / ncols].run(variants[i % ncols].1.as_deref(), scale),
        |_, _| {},
    );
    let grid: Vec<Vec<(u64, f64, u64, u64)>> = flat.chunks(ncols).map(<[_]>::to_vec).collect();

    let mut cells: Vec<Fig9Cell> = Vec::new();
    for (w, row) in workloads.iter().zip(&grid) {
        let base = row[0].0;
        for ((variant, _), &(cycles, ipc, migrations, wait)) in variants.iter().zip(row) {
            cells.push(Fig9Cell {
                workload: w.name().to_string(),
                variant: variant.clone(),
                cycles,
                normalized: 100.0 * cycles as f64 / base as f64,
                ipc,
                migrations,
                migration_wait_cycles: wait,
            });
        }
    }

    println!(
        "== Figure 9 — dynamic thread-to-cluster allocation, low-end machine \
         (scale {scale}, normalized to SMT2/static = 100) =="
    );
    println!(
        "{:<8} {:<20} {:>12} {:>7} {:>6} {:>6} {:>10}",
        "workload", "variant", "cycles", "norm", "ipc", "migr", "wait/migr"
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 && i % variants.len() == 0 {
            println!();
        }
        let per = if c.migrations == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.0}",
                c.migration_wait_cycles as f64 / c.migrations as f64
            )
        };
        println!(
            "{:<8} {:<20} {:>12} {:>7.1} {:>6.2} {:>6} {:>10}",
            c.workload, c.variant, c.cycles, c.normalized, c.ipc, c.migrations, per
        );
    }

    // Per-workload verdict: did any dynamic policy beat the static seam?
    println!();
    for (w, row) in workloads.iter().zip(&grid) {
        let base = row[0].0;
        let best_dyn = variants
            .iter()
            .zip(row)
            .skip(1)
            .filter(|((_, p), _)| p.is_some())
            .min_by_key(|(_, r)| r.0);
        if let Some(((name, _), r)) = best_dyn {
            let delta = 100.0 * (r.0 as f64 - base as f64) / base as f64;
            println!(
                "{:<8} best dynamic: {name} at {:+.2}% vs SMT2/static ({} migrations)",
                w.name(),
                delta,
                r.2
            );
        }
    }

    if let Some(dir) = std::env::var_os("CSMT_JSON_DIR") {
        let path = std::path::Path::new(&dir).join("fig9_dynamic_alloc.json");
        let body = serde_json::to_string_pretty(&cells).expect("serializable");
        std::fs::write(&path, body).expect("CSMT_JSON_DIR must be writable");
        eprintln!("wrote {}", path.display());
    }
}
