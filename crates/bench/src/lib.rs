//! # csmt-bench — figure/table regeneration harness
//!
//! Shared plumbing for the figure/study binaries and the gated
//! microbenches: running one figure's sweep (architectures ×
//! applications), normalizing to the paper's baseline, rendering the
//! stacked-bar breakdowns as text tables, and applying the §5.2
//! clock-frequency adjustment.

use csmt_core::{ArchKind, RunResult};
use csmt_cpu::Hazard;
use csmt_sweep::SweepEngine;
use csmt_verify::{VerifySummary, Violation};
use csmt_workloads::{AppSpec, RunSpec};
use serde::Serialize;

/// Work scale used by the figure binaries (full figure quality).
pub const FIGURE_SCALE: f64 = 1.0;
/// Seed used by all figure runs.
pub const FIGURE_SEED: u64 = 0xC5_317;

/// Every `CSMT_*` environment knob the binaries honor, in one table:
/// `(name, which binaries, what it does)`. Printed by `--help` output
/// (see [`render_env_knobs`]) and mirrored in README.md; the
/// `env_knobs_match_readme_and_env_reads` test keeps table, README and
/// the actual `env::var` reads in step.
pub const ENV_KNOBS: &[(&str, &str, &str)] = &[
    (
        "CSMT_TRACE_OUT=<dir>",
        "diagnose",
        "write heartbeat_<arch>.jsonl + pipeview_<arch>.trace (Konata) into <dir>",
    ),
    (
        "CSMT_TRACE_INTERVAL=<n>",
        "diagnose, csmt-report",
        "heartbeat/counter sampling interval in cycles (default 1000; anything but a positive integer exits 2)",
    ),
    (
        "CSMT_METRICS_OUT=<dir>",
        "csmt-report",
        "write metrics_<arch>_<app>.json + perfetto_<arch>_<app>.json into <dir>",
    ),
    (
        "CSMT_SELF_PROFILE=1",
        "diagnose, csmt-report",
        "time the simulator's own phases (fetch/issue/commit/memory) and print the host profile",
    ),
    (
        "CSMT_VERIFY=1",
        "diagnose, csmt-report",
        "attach csmt-verify's InvariantProbe; exit 2 on any invariant violation",
    ),
    (
        "CSMT_SCHED=<policy>",
        "figures, cycle_time_adjusted, fig6_parallelism, csmt-sweep, diagnose, csmt-report (fig9_dynamic_alloc has --sched)",
        "thread-to-cluster allocation policy: static (default), barrier, hazard_pairing; dynamic policies fall back to static on fixed-assignment archs; an unknown name exits 2 with the valid names",
    ),
    (
        "CSMT_SWEEP_CACHE=<dir>",
        "figures, cycle_time_adjusted, fig6_parallelism, fig9_dynamic_alloc, multiprogram_mix, ablation_study, fetch_policies, predictor_study, csmt-sweep",
        "content-addressed result cache: previously computed sweep cells are file reads (results are identical either way)",
    ),
    (
        "CSMT_SWEEP_THREADS=<n>",
        "figures, cycle_time_adjusted, fig6_parallelism, fig9_dynamic_alloc, multiprogram_mix, ablation_study, fetch_policies, predictor_study, csmt-sweep",
        "worker count of the sweep engine's job pool (default: host parallelism; results are identical at any count)",
    ),
    (
        "CSMT_JSON_DIR=<dir>",
        "fig*, diagnose",
        "also write each figure/sweep as <dir>/<name>.json for external plotting",
    ),
    (
        "CSMT_BENCH_JSON=<path>",
        "machine_step, cluster_step benches",
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

/// The scheduling policy `CSMT_SCHED` selects (`"static"` when unset) —
/// the binary-edge read of that knob: a `main` resolves it once and
/// passes the name down (`RunSpec::sched`); nothing
/// below the binaries reads the environment for it. On an unknown name,
/// prints the valid names and exits 2 (the `CSMT_VERIFY` convention).
pub fn sched_from_env() -> &'static str {
    let Some(name) = std::env::var_os("CSMT_SCHED") else {
        return "static";
    };
    let name = name.to_string_lossy();
    csmt_core::sched::POLICY_NAMES
        .into_iter()
        .find(|p| *p == name)
        .unwrap_or_else(|| {
            let e = csmt_core::sched::UnknownPolicy {
                name: name.into_owned(),
            };
            eprintln!("error: {e} (from CSMT_SCHED)");
            std::process::exit(2);
        })
}

/// `CSMT_TRACE_INTERVAL`'s text as a sampling interval in cycles: unset
/// means 1000; anything but a positive integer is an error naming it,
/// never the default — a typo must not quietly sample every 1000 cycles.
fn parse_trace_interval(text: Option<&str>) -> Result<u64, String> {
    let Some(s) = text else { return Ok(1000) };
    s.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("CSMT_TRACE_INTERVAL {s:?} is not a positive integer"))
}

/// The heartbeat / counter sampling interval `CSMT_TRACE_INTERVAL`
/// selects (1000 cycles when unset). A bad value prints
/// `parse_trace_interval`'s diagnosis and exits 2 (the `CSMT_SCHED`
/// convention).
pub fn trace_interval_from_env() -> u64 {
    let text = std::env::var_os("CSMT_TRACE_INTERVAL").map(|v| v.to_string_lossy().into_owned());
    parse_trace_interval(text.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Whether the on/off knob `name` is set (to anything but `0` or empty).
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v != "0" && !v.is_empty())
}

/// The summary of a drained `InvariantProbe`, or — on violations — the
/// first ten on stderr and exit 2: a run that breaks the machine's own
/// invariants has nothing trustworthy to report.
pub fn exit_on_violations(
    arch: ArchKind,
    outcome: Result<VerifySummary, Vec<Violation>>,
) -> VerifySummary {
    outcome.unwrap_or_else(|violations| {
        eprintln!(
            "{}: {} invariant violation(s):",
            arch.name(),
            violations.len()
        );
        for v in violations.iter().take(10) {
            eprintln!("  {v}");
        }
        std::process::exit(2);
    })
}

/// `text` (argument `n`, if given) as a `T`: absent means `default`; a
/// value that does not parse is an error naming it, never the default —
/// `fetch_policies O.1` must not quietly run at scale 0.5.
///
/// # Errors
/// The diagnosis [`arg_or`] prints, when `text` is not a valid `T`.
pub fn parse_arg_or<T: std::str::FromStr>(
    n: usize,
    text: Option<&str>,
    default: T,
) -> Result<T, String> {
    text.map_or(Ok(default), |s| {
        s.parse().map_err(|_| {
            format!(
                "argument {n} {s:?} is not a valid {}",
                std::any::type_name::<T>()
            )
        })
    })
}

/// argv[`n`] as a `T`, or `default` when the argument is absent (the argv
/// convention shared by every bench binary). An unparsable value prints
/// [`parse_arg_or`]'s diagnosis and exits 2 (the `CSMT_SCHED` convention).
pub fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    let text = std::env::args().nth(n);
    parse_arg_or(n, text.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Work scale from the binary's first CLI argument, defaulting to
/// [`FIGURE_SCALE`] (the `fig*` binaries all take `[scale]` this way).
pub fn scale_from_args() -> f64 {
    arg_or(1, FIGURE_SCALE)
}

/// [`scale_from_args`] with a binary-specific default (the study binaries
/// default below full figure scale).
pub fn scale_from_args_or(default: f64) -> f64 {
    arg_or(1, default)
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

/// How the study binaries run a grid: the `groups` of runs (one group per
/// printed number, e.g. a configuration over the six applications or the
/// batches of a job set) go through [`SweepEngine::from_env`] as one
/// flat grid and come back group by group.
pub fn run_groups(groups: Vec<Vec<RunSpec<'_>>>) -> Vec<Vec<RunResult>> {
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let specs: Vec<RunSpec> = groups.into_iter().flatten().collect();
    let mut results = SweepEngine::from_env()
        .run_specs(&specs)
        .results
        .into_iter();
    sizes
        .into_iter()
        .map(|n| results.by_ref().take(n).collect())
        .collect()
}

/// Run one figure: `archs` × `apps` on `n_chips` chips, normalizing each
/// application to `baseline` (FA8 for Figs 4/5, SMT8 for Figs 7/8).
///
/// This is the figure binaries' environment edge: the grid runs under the
/// [`sched_from_env`] policy through [`SweepEngine::from_env`]
/// (`CSMT_SWEEP_THREADS` workers, optional `CSMT_SWEEP_CACHE`). Results
/// come back in (apps, archs) order, byte-identical to a sequential sweep
/// at any worker count, cached or not.
pub fn run_figure(
    archs: &[ArchKind],
    apps: &[AppSpec],
    n_chips: usize,
    baseline: ArchKind,
    scale: f64,
) -> Vec<AppRow> {
    run_figure_with_engine(
        &SweepEngine::from_env(),
        archs,
        apps,
        n_chips,
        baseline,
        scale,
        sched_from_env(),
    )
}

/// [`run_figure`] on an explicit engine and scheduling policy (tests pin
/// the worker count, cache and policy instead of inheriting the
/// environment's).
pub fn run_figure_with_engine(
    engine: &SweepEngine,
    archs: &[ArchKind],
    apps: &[AppSpec],
    n_chips: usize,
    baseline: ArchKind,
    scale: f64,
    sched: &str,
) -> Vec<AppRow> {
    let cells: Vec<RunSpec> = apps
        .iter()
        .flat_map(|app| {
            archs.iter().map(move |&arch| RunSpec {
                sched,
                ..RunSpec::new(app, arch, n_chips, scale, FIGURE_SEED)
            })
        })
        .collect();
    let results = engine.run_specs(&cells).results;
    apps.iter()
        .zip(results.chunks(archs.len().max(1)))
        .map(|(app, chunk)| {
            let results = chunk.to_vec();
            let base_cycles = archs
                .iter()
                .zip(&results)
                .find(|(a, _)| **a == baseline)
                .map(|(_, r)| r.cycles)
                .expect("baseline in archs");
            AppRow {
                app: app.name,
                cells: archs
                    .iter()
                    .zip(results)
                    .map(|(&arch, result)| Cell {
                        arch,
                        normalized: 100.0 * result.cycles as f64 / base_cycles as f64,
                        result,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// §5.2 clock-frequency adjustment. Palacharla & Jouppi [12]: an 8-issue
/// cluster's cycle time is ~2× a 4-issue cluster's at 0.18 µm, while 4-issue
/// and narrower clusters cycle alike. Returns the relative cycle-time factor
/// (1.0 = fast clock).
pub fn cycle_time_factor(arch: ArchKind) -> f64 {
    match arch.chip().cluster.issue_width {
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

/// Flat, serializable view of one figure cell (for `CSMT_JSON_DIR` dumps).
#[derive(Debug, Serialize)]
pub struct FlatCell {
    /// Application name.
    pub app: String,
    /// Architecture name.
    pub arch: String,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Normalized to the figure's baseline (=100).
    pub normalized: f64,
    /// Useful IPC.
    pub ipc: f64,
    /// Slot breakdown `[useful, other, structural, memory, data, control, sync, fetch]`.
    pub breakdown: [f64; 8],
    /// Average running threads.
    pub avg_running_threads: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
}

/// If the `CSMT_JSON_DIR` environment variable is set, write the figure's
/// cells as `<dir>/<name>.json` for external plotting (the binary-edge
/// read of that knob around [`write_json_to`]). Returns the path written,
/// if any.
pub fn write_json(rows: &[AppRow], name: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("CSMT_JSON_DIR")?;
    Some(write_json_to(std::path::Path::new(&dir), rows, name))
}

/// Write the figure's cells as `<dir>/<name>.json`; returns the path.
pub fn write_json_to(dir: &std::path::Path, rows: &[AppRow], name: &str) -> std::path::PathBuf {
    let flat: Vec<FlatCell> = rows
        .iter()
        .flat_map(|row| {
            row.cells.iter().map(move |c| FlatCell {
                app: row.app.to_string(),
                arch: c.arch.name().to_string(),
                cycles: c.result.cycles,
                normalized: c.normalized,
                ipc: c.result.ipc(),
                breakdown: c.result.breakdown(),
                avg_running_threads: c.result.avg_running_threads,
                mispredict_rate: c.result.mispredict_rate(),
            })
        })
        .collect();
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(&flat).expect("serializable");
    std::fs::write(&path, body).expect("CSMT_JSON_DIR must be writable");
    path
}

/// The fetch-hazard fraction of one cell.
pub fn fetch_fraction(c: &Cell) -> f64 {
    c.result.hazard_fraction(Hazard::Fetch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_workloads::by_name;

    /// [`run_figure`] pinned to one inline worker, no cache and the static
    /// policy: unit tests must not inherit the caller's shell.
    fn figure(
        archs: &[ArchKind],
        apps: &[AppSpec],
        n_chips: usize,
        baseline: ArchKind,
        scale: f64,
    ) -> Vec<AppRow> {
        let engine = SweepEngine::new(1, None);
        run_figure_with_engine(&engine, archs, apps, n_chips, baseline, scale, "static")
    }

    #[test]
    fn run_figure_normalizes_baseline_to_100() {
        let apps = vec![by_name("vpenta").unwrap()];
        let rows = figure(
            &[ArchKind::Fa8, ArchKind::Smt2],
            &apps,
            1,
            ArchKind::Fa8,
            0.02,
        );
        let base = rows[0].cell(ArchKind::Fa8);
        assert!((base.normalized - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unparsable_argument_is_an_error_not_the_default() {
        assert_eq!(parse_arg_or(1, None, 0.5), Ok(0.5));
        assert_eq!(parse_arg_or(1, Some("0.1"), 0.5), Ok(0.1));
        assert_eq!(
            parse_arg_or(1, Some("O.1"), 0.5),
            Err("argument 1 \"O.1\" is not a valid f64".to_string())
        );
        assert!(parse_arg_or(3, Some("-1"), 1usize).is_err());
        assert_eq!(
            parse_arg_or(1, Some("vpenta"), String::new()),
            Ok("vpenta".into())
        );
    }

    #[test]
    fn bad_trace_interval_is_an_error_not_the_default() {
        assert_eq!(parse_trace_interval(None), Ok(1000));
        assert_eq!(parse_trace_interval(Some("250")), Ok(250));
        for bad in ["0", "1OOO", "-5", ""] {
            assert_eq!(
                parse_trace_interval(Some(bad)),
                Err(format!(
                    "CSMT_TRACE_INTERVAL {bad:?} is not a positive integer"
                ))
            );
        }
    }

    #[test]
    fn cycle_time_factors_follow_palacharla_jouppi() {
        assert_eq!(cycle_time_factor(ArchKind::Fa1), 2.0);
        assert_eq!(cycle_time_factor(ArchKind::Smt1), 2.0);
        assert_eq!(cycle_time_factor(ArchKind::Smt2), 1.0);
        assert_eq!(cycle_time_factor(ArchKind::Fa8), 1.0);
    }

    #[test]
    fn write_json_to_roundtrips() {
        let apps = vec![by_name("vpenta").unwrap()];
        let rows = figure(&[ArchKind::Fa8], &apps, 1, ArchKind::Fa8, 0.02);
        let dir = std::env::temp_dir().join(format!("csmt_json_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_json_to(&dir, &rows, "test_fig");
        assert_eq!(path, dir.join("test_fig.json"));
        let body = std::fs::read_to_string(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 1);
        assert_eq!(parsed[0]["arch"], "FA8");
    }

    #[test]
    fn run_figure_matches_direct_simulation_bit_for_bit() {
        // The sweep-engine path (`RunSpec::run` under "static")
        // must be indistinguishable from the plain `simulate` the figures
        // used before the engine existed.
        let apps = vec![by_name("vpenta").unwrap(), by_name("fmm").unwrap()];
        let archs = [ArchKind::Fa8, ArchKind::Smt2];
        let rows = figure(&archs, &apps, 1, ArchKind::Fa8, 0.02);
        for (row, app) in rows.iter().zip(&apps) {
            for cell in &row.cells {
                let direct = csmt_workloads::simulate(app, cell.arch, 1, 0.02, FIGURE_SEED);
                assert_eq!(
                    serde_json::to_string(&cell.result).unwrap(),
                    serde_json::to_string(&direct).unwrap(),
                    "{} on {}",
                    app.name,
                    cell.arch.name()
                );
            }
        }
    }

    #[test]
    fn run_figure_serial_equals_pooled() {
        // Same grid, 1 worker vs a real pool (the host may be 1-CPU, so
        // force the worker count): every cell and every normalization
        // must be bit-for-bit identical.
        let apps = vec![by_name("mgrid").unwrap(), by_name("swim").unwrap()];
        let archs = [ArchKind::Fa8, ArchKind::Fa2, ArchKind::Smt2];
        let serial = run_figure_with_engine(
            &csmt_sweep::SweepEngine::new(1, None),
            &archs,
            &apps,
            1,
            ArchKind::Fa8,
            0.02,
            "static",
        );
        let pooled = run_figure_with_engine(
            &csmt_sweep::SweepEngine::new(4, None),
            &archs,
            &apps,
            1,
            ArchKind::Fa8,
            0.02,
            "static",
        );
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.app, b.app);
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert_eq!(ca.arch, cb.arch);
                assert!((ca.normalized - cb.normalized).abs() == 0.0);
                assert_eq!(
                    serde_json::to_string(&ca.result).unwrap(),
                    serde_json::to_string(&cb.result).unwrap()
                );
            }
        }
    }

    /// The leading `CSMT_*` identifier of `s` (stops at `=`, a quote
    /// or a backtick).
    fn knob_name(s: &str) -> &str {
        let end = s
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(s.len());
        &s[..end]
    }

    /// Every `CSMT_*` string literal passed to `env::var`,
    /// `env::var_os` or `env_flag` in the `.rs` files under `dir`.
    fn env_reads(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("source dir is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                env_reads(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
                for call in ["env::var(", "env::var_os(", "env_flag("] {
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

    #[test]
    fn render_produces_a_row_per_arch() {
        let apps = vec![by_name("mgrid").unwrap()];
        let rows = figure(
            &[ArchKind::Fa8, ArchKind::Fa4],
            &apps,
            1,
            ArchKind::Fa8,
            0.02,
        );
        let text = render_figure("test", &rows);
        assert!(text.contains("FA8"));
        assert!(text.contains("FA4"));
        assert!(text.contains("mgrid"));
    }
}
