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
use csmt_workloads::{all_apps, by_name, AppSpec, BatchResult, RunSpec};
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

/// The runs that execute a workload row — one parallel application, or
/// (`None`) the job `mix` — on `arch` under `sched`: one for an
/// application; for the mix, as many capacity-sized batches as the chip
/// needs (FA4 has 4 contexts: the 8-job set runs as 2 batches with the
/// same per-job streams SMT2 sees, so work is identical).
fn specs_of<'a>(
    app: Option<&'a AppSpec>,
    mix: &'a [AppSpec],
    arch: ArchKind,
    sched: &'a str,
    scale: f64,
) -> Vec<RunSpec<'a>> {
    match app {
        Some(app) => vec![RunSpec {
            sched,
            ..RunSpec::new(app, arch, 1, scale, FIGURE_SEED)
        }],
        None => {
            RunSpec::job_batches(mix, MIX_JOBS, arch.chip(), 1, scale, FIGURE_SEED, sched).collect()
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
    let mut args = std::env::args().enumerate().skip(1);
    while let Some((n, a)) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--sched" => {
                let Some((_, p)) = args.next() else {
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
            // A typo'd scale is an error naming argv[n], never a default.
            _ => scale = Some(csmt_bench::arg_or(n, FIGURE_SCALE)),
        }
    }
    let scale = scale.unwrap_or(if smoke { SMOKE_SCALE } else { FIGURE_SCALE });

    let apps = all_apps();
    let mix = &["swim", "vpenta", "tomcatv", "ocean"].map(|n| by_name(n).expect("a paper app"));
    let mut workloads: Vec<(&str, Option<&AppSpec>)> =
        apps.iter().map(|a| (a.name, Some(a))).collect();
    workloads.push(("mix4x2", None));

    // Column order: SMT2 under each policy, then the FA4 reference.
    let mut variants: Vec<(String, ArchKind, &str)> =
        vec![("SMT2/static".into(), ArchKind::Smt2, "static")];
    for p in POLICY_NAMES {
        if p != "static" && only.as_deref().is_none_or(|o| o == p) {
            variants.push((format!("SMT2/{p}"), ArchKind::Smt2, p));
        }
    }
    variants.push(("FA4/static".into(), ArchKind::Fa4, "static"));

    // One grid, in print order: workload x variant, each the runs of
    // one figure cell.
    let ncols = variants.len();
    let groups = workloads
        .iter()
        .flat_map(|&(_, row)| {
            variants
                .iter()
                .map(move |&(_, arch, sched)| specs_of(row, mix, arch, sched, scale))
        })
        .collect();
    let results = csmt_bench::run_groups(groups);
    let mut cells: Vec<Fig9Cell> = Vec::new();
    for ((workload, _), row) in workloads.iter().zip(results.chunks(ncols)) {
        let totals: Vec<BatchResult> = row.iter().map(|runs| runs.iter().collect()).collect();
        for (((variant, ..), runs), total) in variants.iter().zip(row).zip(&totals) {
            cells.push(Fig9Cell {
                workload: workload.to_string(),
                variant: variant.clone(),
                cycles: total.total_cycles,
                // A row's first cell is its SMT2/static baseline.
                normalized: 100.0 * total.total_cycles as f64 / totals[0].total_cycles as f64,
                ipc: total.throughput(),
                migrations: runs.iter().map(|r| r.migrations).sum(),
                migration_wait_cycles: runs.iter().map(|r| r.migration_wait_cycles).sum(),
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
        if i > 0 && i % ncols == 0 {
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
    for row in cells.chunks(ncols) {
        let base = row[0].cycles;
        let best_dyn = variants
            .iter()
            .zip(row)
            .skip(1)
            .filter(|((_, arch, _), _)| *arch == ArchKind::Smt2)
            .min_by_key(|(_, c)| c.cycles);
        if let Some((_, c)) = best_dyn {
            let delta = 100.0 * (c.cycles as f64 - base as f64) / base as f64;
            println!(
                "{:<8} best dynamic: {} at {:+.2}% vs SMT2/static ({} migrations)",
                c.workload, c.variant, delta, c.migrations
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
