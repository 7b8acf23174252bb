//! The study table: every EXPERIMENTS.md number is one row of
//! [`STUDIES`], run by `csmt-study <name> [scale]` — DESIGN.md §4's
//! per-experiment index, as code.
//!
//! A study builds its grid of [`RunSpec`]s in its own frame (a `RunSpec`
//! borrows its `AppSpec`s and job mixes, so a grid cannot be returned),
//! hands it to the one [`Runner`] it is given and renders the results as
//! the text it prints. `csmt-study`'s runner is the sweep engine (pooled,
//! cached, optionally writing one JSONL line per cell); tests supply their
//! own.

use std::fmt::Write as _;

use csmt_core::{ArchKind, Policy, RunResult};
use csmt_cpu::{FetchPolicy, Hazard, PredictorKind};
use csmt_mem::MemConfig;
use csmt_model::{envelope, AppPoint, ArchModel, Region};
use csmt_workloads::{all_apps, by_name, AppSpec, BatchResult, RunSpec};

use crate::{
    adjusted_time, cycle_time_factor, fetch_fraction, render_figure, AppRow, Cell, FIGURE_SCALE,
    FIGURE_SEED,
};

/// The one way a study runs cells: a grid of specs in, one result per
/// spec out, in grid order.
pub type Runner<'r> = dyn FnMut(&[RunSpec<'_>]) -> Vec<RunResult> + 'r;

/// How one study run is set.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// Work scale (1.0 = full figure quality).
    pub scale: f64,
    /// Seed of every cell.
    pub seed: u64,
}

impl Setting {
    /// `app` on the Table-2 `arch` × `n_chips` machine under Table 3 and
    /// the static placement, at this setting.
    fn spec(self, app: &AppSpec, arch: ArchKind, n_chips: usize) -> RunSpec<'_> {
        RunSpec::new(app, arch, n_chips, self.scale, self.seed)
    }
}

/// One row of the study table.
pub struct Study {
    /// Command-line name.
    pub name: &'static str,
    /// Scale when none is given (the scale EXPERIMENTS.md quotes).
    pub default_scale: f64,
    /// Seed of every cell (the seed EXPERIMENTS.md quotes).
    pub default_seed: u64,
    /// Run the study's grid through the runner; returns what it prints.
    pub run: fn(&mut Runner<'_>, Setting) -> String,
}

/// Every study, in EXPERIMENTS.md order. Every cell runs the paper's
/// static placement, except Fig 9's, which vary the [`Policy`].
pub const STUDIES: &[Study] = &[
    study("fig1", FIGURE_SCALE, FIGURE_SEED, fig1),
    study("fig4", FIGURE_SCALE, FIGURE_SEED, fig4),
    study("fig5", FIGURE_SCALE, FIGURE_SEED, fig5),
    study("fig6", FIGURE_SCALE, FIGURE_SEED, fig6),
    study("fig7", FIGURE_SCALE, FIGURE_SEED, fig7),
    study("fig8", FIGURE_SCALE, FIGURE_SEED, fig8),
    study(
        "cycle_time_adjusted",
        FIGURE_SCALE,
        FIGURE_SEED,
        cycle_time_adjusted,
    ),
    study("fetch_policies", 0.5, 7, fetch_policies),
    study("predictor_study", 0.5, 7, predictor_study),
    study("multiprogram_mix", 0.3, 7, multiprogram_mix),
    study("ablation_study", 0.5, 7, ablation_study),
    study("fig9", FIGURE_SCALE, FIGURE_SEED, fig9),
];

const fn study(
    name: &'static str,
    default_scale: f64,
    default_seed: u64,
    run: fn(&mut Runner<'_>, Setting) -> String,
) -> Study {
    Study {
        name,
        default_scale,
        default_seed,
        run,
    }
}

/// Run `groups` (one per printed number: a configuration over the six
/// applications, the batches of a job set) through `run` as one grid and
/// return the results group by group.
fn run_groups(run: &mut Runner<'_>, groups: &[Vec<RunSpec<'_>>]) -> Vec<Vec<RunResult>> {
    let mut results = run(&groups.concat()).into_iter();
    groups
        .iter()
        .map(|g| results.by_ref().take(g.len()).collect())
        .collect()
}

/// The six applications × `archs` on `n_chips` chips, each application
/// normalized to `archs[0]` (= 100).
fn figure_rows(
    run: &mut Runner<'_>,
    s: Setting,
    archs: &[ArchKind],
    n_chips: usize,
) -> Vec<AppRow> {
    let apps = all_apps();
    let specs: Vec<RunSpec> = apps
        .iter()
        .flat_map(|app| archs.iter().map(move |&arch| s.spec(app, arch, n_chips)))
        .collect();
    let results = run(&specs);
    apps.iter()
        .zip(results.chunks(archs.len()))
        .map(|(app, chunk)| AppRow {
            app: app.name,
            cells: archs
                .iter()
                .zip(chunk)
                .map(|(&arch, result)| Cell {
                    arch,
                    normalized: 100.0 * result.cycles as f64 / chunk[0].cycles as f64,
                    result: result.clone(),
                })
                .collect(),
        })
        .collect()
}

/// Figure 1: the model of parallelism (paper §2) — the FA boxes and SMT
/// envelopes of Figure 1-(b)/(e), delivered performance for an example
/// application, and the region classification of Figure 1-(d)/(g).
/// Analytic: no cells.
fn fig1(_: &mut Runner<'_>, _: Setting) -> String {
    let mut out = String::from("== Figure 1 — model of parallelism (8-issue chips) ==\n\n");
    out += "-- (b) Fixed-assignment boxes: threads × ILP/thread --\n";
    for clusters in [8u32, 4, 2, 1] {
        let m = ArchModel::Fa { clusters };
        let _ = writeln!(
            out,
            "  {:<4} box = {} threads × {} ILP  (area {})",
            m.name(),
            m.max_threads(),
            m.max_ilp(),
            m.max_threads() * m.max_ilp()
        );
    }
    out += "\n-- (e) SMT envelopes: hyperbola x·y = 8, capped at the cluster width --\n";
    for clusters in [1u32, 2, 4, 8] {
        let m = ArchModel::Smt { clusters };
        let line: Vec<String> = envelope(m, 8)
            .iter()
            .map(|(x, y)| format!("({x:.1},{y:.1})"))
            .collect();
        let _ = writeln!(out, "  {:<5} {}", m.name(), line.join(" "));
    }
    out += "\n-- (c)/(f) Example application A = (6 threads, 5 ILP) --\n";
    let a = AppPoint::new(6.0, 5.0);
    let _ = writeln!(out, "  potential performance = {:.0}", a.potential());
    for m in [
        ArchModel::Fa { clusters: 2 },
        ArchModel::Smt { clusters: 2 },
        ArchModel::Smt { clusters: 1 },
    ] {
        let _ = writeln!(
            out,
            "  delivered by {:<5} = {:>4.1}  (utilization {:>4.0}%)",
            m.name(),
            m.delivered(a),
            m.utilization(a) * 100.0
        );
    }
    out += "\n-- (d)/(g) Region classification --\n";
    let _ = writeln!(
        out,
        "  {:<14} {:>10} {:>10} {:>10} {:>10}",
        "app (t, ilp)", "FA2", "FA8", "SMT2", "SMT1"
    );
    let tag = |r: Region| match r {
        Region::AppExploited => "app-max",
        Region::Optimal => "OPTIMAL",
        Region::BothUnderUtilized => "under",
    };
    for p in [
        AppPoint::new(1.0, 2.0), // small app
        AppPoint::new(4.0, 8.0), // engulfs the chip
        AppPoint::new(8.0, 1.0), // thread-rich, ILP-poor
        AppPoint::new(2.0, 6.0), // ILP-rich, thread-poor
    ] {
        let _ = writeln!(
            out,
            "  ({:>3.0},{:>3.0})      {:>10} {:>10} {:>10} {:>10}",
            p.threads,
            p.ilp,
            tag(ArchModel::Fa { clusters: 2 }.region(p)),
            tag(ArchModel::Fa { clusters: 8 }.region(p)),
            tag(ArchModel::Smt { clusters: 2 }.region(p)),
            tag(ArchModel::Smt { clusters: 1 }.region(p)),
        );
    }
    out += "\nConclusion (§2): the SMT optimal regions are supersets of the FA\n\
            optimal regions, so SMT and clustered SMT should deliver more\n\
            performance than FA for the same application mix.\n";
    out
}

/// The per-application verdict line printed under a figure's table.
#[derive(Clone, Copy)]
enum Footer {
    /// Figs 4/5 — the paper's headline: SMT2's margin over the best FA.
    BestFaVsSmt2,
    /// Figs 7/8 — SMT2's distance from the centralized SMT1, optionally
    /// with the SMT4 → SMT2 → SMT1 fetch-hazard trend.
    Smt2VsSmt1 { fetch: bool },
}

/// One of the paper's four simulated bar charts. Paper shapes to verify —
/// Figs 4/5 (FA vs SMT2; low-end, then four chips on the DASH-like
/// CC-NUMA): SMT2 takes the fewest cycles on all six applications; FA
/// curves are U-shaped and on the high-end machine the sweet spot of the
/// least parallel applications moves toward FA1. Figs 7/8 (SMT8 = FA8 …
/// SMT1): cycles improve toward SMT1, SMT2 stays within 0–9% of it (which
/// the §5.2 clock argument turns into an SMT2 win), and the fetch hazard
/// grows from SMT4 toward SMT1 (Tullsen et al.'s shared-queue bottleneck).
fn figure(
    run: &mut Runner<'_>,
    s: Setting,
    archs: &[ArchKind],
    n_chips: usize,
    title: &str,
    footer: Footer,
) -> String {
    let rows = figure_rows(run, s, archs, n_chips);
    let mut out = render_figure(title, &rows);
    for row in &rows {
        match footer {
            Footer::BestFaVsSmt2 => {
                let best_fa = row
                    .cells
                    .iter()
                    .filter(|c| c.arch != ArchKind::Smt2)
                    .min_by(|a, b| a.normalized.partial_cmp(&b.normalized).unwrap())
                    .unwrap();
                let smt2 = row.cell(ArchKind::Smt2);
                let _ = writeln!(
                    out,
                    "{:<8} best FA = {} ({:.0}), SMT2 = {:.0}  ({:+.1}% vs best FA)",
                    row.app,
                    best_fa.arch.name(),
                    best_fa.normalized,
                    smt2.normalized,
                    100.0 * (smt2.normalized - best_fa.normalized) / best_fa.normalized,
                );
            }
            Footer::Smt2VsSmt1 { fetch } => {
                let smt1 = row.cell(ArchKind::Smt1);
                let smt2 = row.cell(ArchKind::Smt2);
                let _ = write!(
                    out,
                    "{:<8} SMT2 = {:.0} vs SMT1 = {:.0} ({:+.1}%)",
                    row.app,
                    smt2.normalized,
                    smt1.normalized,
                    100.0 * (smt2.normalized - smt1.normalized) / smt1.normalized,
                );
                if fetch {
                    let _ = write!(
                        out,
                        "  fetch: SMT4 {:.1}% → SMT2 {:.1}% → SMT1 {:.1}%",
                        fetch_fraction(row.cell(ArchKind::Smt4)) * 100.0,
                        fetch_fraction(smt2) * 100.0,
                        fetch_fraction(smt1) * 100.0,
                    );
                }
                out.push('\n');
            }
        }
    }
    out
}

fn fig4(run: &mut Runner<'_>, s: Setting) -> String {
    let title = "Figure 4 — FA vs clustered SMT, low-end machine (normalized to FA8)";
    figure(
        run,
        s,
        &ArchKind::FA_FIGURES,
        1,
        title,
        Footer::BestFaVsSmt2,
    )
}

fn fig5(run: &mut Runner<'_>, s: Setting) -> String {
    let title = "Figure 5 — FA vs clustered SMT, high-end machine (4 chips, normalized to FA8)";
    figure(
        run,
        s,
        &ArchKind::FA_FIGURES,
        4,
        title,
        Footer::BestFaVsSmt2,
    )
}

fn fig7(run: &mut Runner<'_>, s: Setting) -> String {
    let title = "Figure 7 — centralized vs clustered SMT, low-end machine (normalized to SMT8)";
    let footer = Footer::Smt2VsSmt1 { fetch: true };
    figure(run, s, &ArchKind::SMT_FIGURES, 1, title, footer)
}

fn fig8(run: &mut Runner<'_>, s: Setting) -> String {
    let title =
        "Figure 8 — centralized vs clustered SMT, high-end machine (4 chips, normalized to SMT8)";
    let footer = Footer::Smt2VsSmt1 { fetch: false };
    figure(run, s, &ArchKind::SMT_FIGURES, 4, title, footer)
}

/// Figure 6: ILP versus thread parallelism, measured as the paper does —
/// thread parallelism as the average running threads on FA8, ILP as the
/// average IPC on FA1 — for the low-end (a) and high-end (b) machines,
/// with the §2 model's best-FA prediction next to the simulator's (§5.1.1).
/// The FA cells are Figs 4/5's: a cache those filled serves them.
fn fig6(run: &mut Runner<'_>, s: Setting) -> String {
    const FAS: [ArchKind; 4] = [ArchKind::Fa8, ArchKind::Fa4, ArchKind::Fa2, ArchKind::Fa1];
    let mut out = String::new();
    for (n_chips, title) in [
        (1, "== Figure 6(a) — low-end machine =="),
        (
            4,
            "\n== Figure 6(b) — high-end machine (per-chip averages) ==",
        ),
    ] {
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8}   {:>12} {:>12}",
            "app", "threads", "ilp", "model best", "sim best FA"
        );
        for row in &figure_rows(run, s, &FAS, n_chips) {
            let fa8 = &row.cell(ArchKind::Fa8).result;
            let fa1 = &row.cell(ArchKind::Fa1).result;
            // Per-chip averages, as the paper plots single-processor charts.
            let threads = (fa8.avg_running_threads / n_chips as f64).max(0.05);
            let ilp = (fa1.ipc() / n_chips as f64).max(0.05);
            let models = [8, 4, 2, 1].map(|clusters| ArchModel::Fa { clusters });
            let model_best = csmt_model::ranking(&models, AppPoint::new(threads, ilp))[0]
                .0
                .name();
            let _ = writeln!(
                out,
                "{:<8} {:>8.2} {:>8.2}   {:>12} {:>12}",
                row.app,
                threads,
                ilp,
                model_best,
                row.best().arch.name()
            );
        }
    }
    out
}

/// §5.2 cycle-time adjustment: the charts compare cycle counts at equal
/// clock; per Palacharla & Jouppi [12] an 8-issue cluster's cycle time is
/// about 2× a 4-issue cluster's (0.18 µm). Applying those factors turns
/// the SMT2–SMT1 near-tie into the SMT2 win the paper concludes with.
fn cycle_time_adjusted(run: &mut Runner<'_>, s: Setting) -> String {
    let archs = [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ];
    let factors = archs.map(|a| format!("{}={}", a.name(), cycle_time_factor(a)));
    let mut out = format!("clock factors: {}\n", factors.join("  "));
    let _ = writeln!(
        out,
        "\n{:<8} {:<6} {:>10} {:>12} {:>10}",
        "app", "arch", "cycles", "adj time", "adj norm"
    );
    for row in &figure_rows(run, s, &archs, 1) {
        let base = adjusted_time(row.cell(ArchKind::Fa8));
        let mut best: Option<(&str, f64)> = None;
        for cell in &row.cells {
            let t = adjusted_time(cell);
            let _ = writeln!(
                out,
                "{:<8} {:<6} {:>10} {:>12.0} {:>10.0}",
                row.app,
                cell.arch.name(),
                cell.result.cycles,
                t,
                100.0 * t / base
            );
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((cell.arch.name(), t));
            }
        }
        let best = best.expect("non-empty row").0;
        let _ = writeln!(
            out,
            "{:<8} -> best after clock adjustment: {best}\n",
            row.app
        );
    }
    out
}

/// Fetch-bottleneck ablation (§5.2: "The centralized SMT is more
/// susceptible to this problem than the clustered SMTs"): the SMT chips
/// under round-robin (the paper's), ICOUNT feedback and 2-port
/// partitioned fetch — Tullsen et al.'s mitigations.
fn fetch_policies(run: &mut Runner<'_>, s: Setting) -> String {
    const ARCHS: [ArchKind; 3] = [ArchKind::Smt4, ArchKind::Smt2, ArchKind::Smt1];
    let policies = [
        ("round-robin", FetchPolicy::RoundRobin),
        ("icount", FetchPolicy::ICount),
        ("partitioned-2", FetchPolicy::Partitioned2),
    ];
    // One grid, in print order: arch x policy, each over the six
    // applications.
    let apps = all_apps();
    let mut groups = Vec::new();
    for arch in ARCHS {
        for (_, policy) in policies {
            let over_apps = apps.iter().map(|app| RunSpec {
                chip: arch.chip().with_fetch_policy(policy),
                ..s.spec(app, arch, 1)
            });
            groups.push(over_apps.collect());
        }
    }
    let mut per_app = run_groups(run, &groups).into_iter();
    let mut out = format!(
        "{:<6} {:<14} {:>14} {:>10} {:>10}\n",
        "arch", "fetch policy", "total cycles", "vs RR", "fetch-haz"
    );
    for arch in ARCHS {
        let mut baseline = 0u64;
        for (name, policy) in policies {
            let runs = per_app.next().expect("one group per printed row");
            let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
            let fetch_haz: f64 = runs.iter().map(|r| r.hazard_fraction(Hazard::Fetch)).sum();
            if policy == FetchPolicy::RoundRobin {
                baseline = cycles;
            }
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:>14} {:>9.1}% {:>9.2}%",
                arch.name(),
                name,
                cycles,
                100.0 * cycles as f64 / baseline as f64 - 100.0,
                fetch_haz / runs.len() as f64 * 100.0
            );
        }
        out.push('\n');
    }
    out += "A negative 'vs RR' means the smarter policy recovered part of the\n\
            fetch bottleneck; the centralized SMT1 should benefit the most,\n\
            the clustered SMT4 the least — the paper's susceptibility ordering.\n";
    out
}

/// Branch-predictor ablation: the paper's 2K-entry 2-bit bimodal table
/// (§3.1) against static-taken (lower bound) and 8-bit gshare — how much
/// of each architecture rides on prediction quality.
fn predictor_study(run: &mut Runner<'_>, s: Setting) -> String {
    const ARCHS: [ArchKind; 4] = [ArchKind::Fa8, ArchKind::Fa1, ArchKind::Smt2, ArchKind::Smt1];
    let predictors = [
        ("static-taken", PredictorKind::StaticTaken),
        ("bimodal-2bit", PredictorKind::Bimodal),
        ("gshare-8", PredictorKind::GShare { history_bits: 8 }),
    ];
    // One grid, in print order: arch x predictor, each over the six
    // applications.
    let apps = all_apps();
    let mut groups = Vec::new();
    for arch in ARCHS {
        for (_, kind) in predictors {
            let over_apps = apps.iter().map(|app| RunSpec {
                chip: arch.chip().with_predictor(kind),
                ..s.spec(app, arch, 1)
            });
            groups.push(over_apps.collect());
        }
    }
    // (cycles, lookups, mispredicts) over the six applications, per group.
    let totals: Vec<(u64, u64, u64)> = run_groups(run, &groups)
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
    let mut out = format!(
        "{:<6} {:<14} {:>14} {:>10} {:>12}\n",
        "arch", "predictor", "total cycles", "vs bimod", "mispred rate"
    );
    let bimodal = predictors
        .iter()
        .position(|(_, kind)| *kind == PredictorKind::Bimodal)
        .expect("the paper's predictor is the baseline");
    for (arch, totals) in ARCHS.iter().zip(totals.chunks(predictors.len())) {
        for ((name, _), (cycles, lookups, wrong)) in predictors.iter().zip(totals) {
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:>14} {:>9.1}% {:>11.2}%",
                arch.name(),
                name,
                cycles,
                100.0 * *cycles as f64 / totals[bimodal].0 as f64 - 100.0,
                *wrong as f64 / (*lookups).max(1) as f64 * 100.0
            );
        }
        out.push('\n');
    }
    out
}

/// Multiprogrammed mixes (the evaluation mode of Tullsen et al. [16] and
/// Lo et al. [9]): a fixed set of 8 independent sequential jobs on every
/// architecture, batched on chips with fewer contexts (FA2 = 4 batches of
/// 2) so total work is identical. With no barriers coupling the contexts
/// this isolates pure resource-sharing adaptivity.
fn multiprogram_mix(run: &mut Runner<'_>, s: Setting) -> String {
    const ARCHS: [ArchKind; 7] = [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ];
    const JOBS: usize = 8;
    let apps = all_apps();
    let mix =
        |apps_of: &[usize]| -> Vec<AppSpec> { apps_of.iter().map(|&i| apps[i].clone()).collect() };
    let mixes = [
        ("8 jobs of swim+vpenta", mix(&[0, 3])),
        ("8 jobs of swim+vpenta+tomcatv+ocean", mix(&[0, 3, 1, 5])),
        ("8 jobs over all six applications", mix(&[0, 1, 2, 3, 4, 5])),
    ];
    // One grid, in print order: mix x arch, each the batches of its job set.
    let groups: Vec<Vec<RunSpec>> = mixes
        .iter()
        .flat_map(|(_, mix)| {
            ARCHS.map(|arch| {
                let chip = arch.chip();
                RunSpec::job_batches(mix, JOBS, chip, 1, s.scale, s.seed, Policy::Static).collect()
            })
        })
        .collect();
    let mut rows = run_groups(run, &groups)
        .into_iter()
        .map(|batches| batches.iter().collect::<BatchResult>());
    let mut out = String::new();
    for (name, _) in &mixes {
        let row: Vec<BatchResult> = rows.by_ref().take(ARCHS.len()).collect();
        let _ = writeln!(out, "== {name} ==");
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>12} {:>12} {:>8}",
            "arch", "batches", "total cyc", "throughput", "vs FA8"
        );
        let base = row[0].total_cycles;
        for (arch, r) in ARCHS.iter().zip(&row) {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>12} {:>11.2} {:>7.0}%",
                arch.name(),
                r.batches,
                r.total_cycles,
                r.throughput(),
                100.0 * r.total_cycles as f64 / base as f64
            );
        }
        out.push('\n');
    }
    out += "With independent jobs the SMT chips convert every stalled slot into\n\
            another job's progress; the FA chips cannot. This is the pure\n\
            resource-sharing half of the paper's flexibility argument, with the\n\
            thread-parallelism half (barriers, serial sections) removed.\n";
    out
}

/// Memory-system ablations: how bank count (Table 3's 7 vs 1 vs 16), the
/// §3.1 MSHR budget (32 vs 4), doubled remote latency and the 8-cycle fill
/// occupancy affect the headline SMT2-vs-FA2 comparison.
fn ablation_study(run: &mut Runner<'_>, s: Setting) -> String {
    const MACHINES: [(usize, &str); 2] = [(1, "low-end"), (4, "high-end (4-chip)")];
    let table3 = MemConfig::table3;
    let variants = [
        ("table3 (baseline)", table3()),
        (
            "1 bank/level",
            MemConfig {
                banks: 1,
                ..table3()
            },
        ),
        (
            "16 banks/level",
            MemConfig {
                banks: 16,
                ..table3()
            },
        ),
        (
            "4 MSHRs",
            MemConfig {
                max_outstanding_loads: 4,
                ..table3()
            },
        ),
        (
            "2x remote latency",
            MemConfig {
                remote_mem_latency: 120,
                remote_l2_latency: 150,
                ..table3()
            },
        ),
        (
            "no fill occupancy",
            MemConfig {
                fill_time: 0,
                ..table3()
            },
        ),
    ];
    // One grid, in print order: machine x variant x {FA2, SMT2}, each over
    // the six applications.
    let apps = all_apps();
    let mut groups = Vec::new();
    for (chips, _) in MACHINES {
        for (_, cfg) in &variants {
            for arch in [ArchKind::Fa2, ArchKind::Smt2] {
                let over_apps = apps.iter().map(|app| RunSpec {
                    mem: cfg.clone(),
                    ..s.spec(app, arch, chips)
                });
                groups.push(over_apps.collect());
            }
        }
    }
    let mut totals = run_groups(run, &groups)
        .into_iter()
        .map(|runs| runs.iter().map(|r| r.cycles).sum::<u64>());
    let mut out = String::new();
    for (_, machine) in MACHINES {
        let _ = writeln!(out, "== {machine} machine ==");
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>12}",
            "variant", "FA2 (cyc)", "SMT2 (cyc)", "SMT2 speedup"
        );
        for (name, _) in &variants {
            let fa2 = totals.next().expect("one group per printed number");
            let smt2 = totals.next().expect("one group per printed number");
            let speedup = fa2 as f64 / smt2 as f64;
            let _ = writeln!(out, "{name:<20} {fa2:>10} {smt2:>10} {speedup:>11.2}x");
        }
        out.push('\n');
    }
    out
}

/// Figure 9 (extension): dynamic thread-to-cluster allocation. The paper
/// fixes the assignment at fork; this asks what moving threads during
/// execution buys. Each workload — the six applications, and `mix4x2`, 8
/// sequential jobs (two capacity-sized batches on FA4, so total work
/// matches) — runs on SMT2 under every policy and on FA4 under static,
/// normalized to SMT2/static = 100. The policy is this study's own axis.
fn fig9(run: &mut Runner<'_>, s: Setting) -> String {
    const MIX_JOBS: usize = 8;
    let apps = all_apps();
    let mix = &["swim", "vpenta", "tomcatv", "ocean"].map(|n| by_name(n).expect("a paper app"));
    let mut workloads: Vec<(&str, Option<&AppSpec>)> =
        apps.iter().map(|a| (a.name, Some(a))).collect();
    workloads.push(("mix4x2", None));

    // Column order: the SMT2/static baseline, SMT2 under each dynamic
    // policy, then the FA4 reference.
    let mut variants: Vec<(String, ArchKind, Policy)> = Policy::ALL
        .into_iter()
        .map(|p| (format!("SMT2/{}", p.name()), ArchKind::Smt2, p))
        .collect();
    variants.push(("FA4/static".into(), ArchKind::Fa4, Policy::Static));

    // One grid, in print order: workload x variant, each the runs of one
    // figure cell (one for an application, the batches for the mix).
    let mut groups = Vec::new();
    for &(_, app) in &workloads {
        for &(_, arch, sched) in &variants {
            groups.push(match app {
                Some(app) => vec![RunSpec {
                    sched,
                    ..s.spec(app, arch, 1)
                }],
                None => {
                    let chip = arch.chip();
                    RunSpec::job_batches(mix, MIX_JOBS, chip, 1, s.scale, s.seed, sched).collect()
                }
            });
        }
    }
    let results = run_groups(run, &groups);

    let mut out = format!(
        "== Figure 9 — dynamic thread-to-cluster allocation, low-end machine \
         (scale {}, normalized to SMT2/static = 100) ==\n",
        s.scale
    );
    let _ = writeln!(
        out,
        "{:<8} {:<20} {:>12} {:>7} {:>6} {:>6} {:>10}",
        "workload", "variant", "cycles", "norm", "ipc", "migr", "wait/migr"
    );
    let mut verdicts = String::new();
    for (i, ((workload, _), row)) in workloads
        .iter()
        .zip(results.chunks(variants.len()))
        .enumerate()
    {
        if i > 0 {
            out.push('\n');
        }
        let base = row[0].iter().collect::<BatchResult>().total_cycles;
        // Did any dynamic policy beat the static seam? (first of the best)
        let mut best_dynamic: Option<(&str, u64, u64)> = None;
        for (j, ((variant, arch, _), runs)) in variants.iter().zip(row).enumerate() {
            let total: BatchResult = runs.iter().collect();
            let migrations: u64 = runs.iter().map(|r| r.migrations).sum();
            let wait: u64 = runs.iter().map(|r| r.migration_wait_cycles).sum();
            let per = if migrations == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", wait as f64 / migrations as f64)
            };
            let _ = writeln!(
                out,
                "{:<8} {:<20} {:>12} {:>7.1} {:>6.2} {:>6} {:>10}",
                workload,
                variant,
                total.total_cycles,
                100.0 * total.total_cycles as f64 / base as f64,
                total.throughput(),
                migrations,
                per
            );
            let cycles = total.total_cycles;
            if j > 0 && *arch == ArchKind::Smt2 && best_dynamic.is_none_or(|b| cycles < b.1) {
                best_dynamic = Some((variant, cycles, migrations));
            }
        }
        if let Some((variant, cycles, migrations)) = best_dynamic {
            let delta = 100.0 * (cycles as f64 - base as f64) / base as f64;
            let _ = writeln!(
                verdicts,
                "{workload:<8} best dynamic: {variant} at {delta:+.2}% vs SMT2/static ({migrations} migrations)"
            );
        }
    }
    out.push('\n');
    out + &verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_sweep::SweepEngine;

    fn setting() -> Setting {
        Setting {
            scale: 0.02,
            seed: FIGURE_SEED,
        }
    }

    fn json(r: &RunResult) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn figure_rows_normalize_to_the_first_arch_and_match_direct_runs() {
        // Through a real pool (the host may be 1-CPU, so force the worker
        // count): every cell is bit-for-bit the plain `simulate` the
        // figures used before the engine existed.
        let engine = SweepEngine::new(4, None);
        let mut run = |specs: &[RunSpec<'_>]| engine.run_specs(specs).results;
        let archs = [ArchKind::Fa8, ArchKind::Fa2, ArchKind::Smt2];
        let rows = figure_rows(&mut run, setting(), &archs, 1);
        assert_eq!(rows.len(), all_apps().len());
        for row in &rows {
            assert!((row.cell(ArchKind::Fa8).normalized - 100.0).abs() < 1e-9);
            let app = by_name(row.app).unwrap();
            for cell in &row.cells {
                let direct = csmt_workloads::simulate(&app, cell.arch, 1, 0.02, FIGURE_SEED);
                assert_eq!(json(&cell.result), json(&direct), "{}", row.app);
            }
        }
        let text = render_figure("test", &rows);
        assert!(text.contains("FA2") && text.contains("mgrid"));
    }

    #[test]
    fn run_groups_returns_each_group_in_order() {
        let app = by_name("swim").unwrap();
        let s = setting();
        let groups = vec![
            vec![s.spec(&app, ArchKind::Fa8, 1)],
            vec![],
            vec![
                s.spec(&app, ArchKind::Smt2, 1),
                s.spec(&app, ArchKind::Fa1, 1),
            ],
        ];
        let mut seen = Vec::new();
        let mut run = |specs: &[RunSpec<'_>]| {
            seen.extend(specs.iter().map(|sp| sp.chip.kind()));
            specs.iter().map(RunSpec::run).collect()
        };
        let out = run_groups(&mut run, &groups);
        assert_eq!(seen, [ArchKind::Fa8, ArchKind::Smt2, ArchKind::Fa1]);
        let archs: Vec<Vec<&str>> = out
            .iter()
            .map(|g| g.iter().map(|r| r.arch.as_str()).collect())
            .collect();
        assert_eq!(archs, [vec!["FA8"], vec![], vec!["SMT2", "FA1"]]);
    }
}
