//! The five workloads: their grids, one untraced pass, one traced pass,
//! and the output checks.
//!
//! Load shape: closed loop, one client — the harness issues the next
//! cell only when the previous one has returned, and starts no threads
//! of its own.

use crate::spans::Spans;
use csmt_bench::{render_figure, AppRow, Cell};
use csmt_core::{ArchKind, Machine, RunResult};
use csmt_cpu::Hazard;
use csmt_mem::{MemConfig, MemStats};
use csmt_metrics::{HostProfiler, MetricsProbe};
use csmt_sweep::{ResultCache, SweepCell, SweepEngine};
use csmt_verify::{Fnv64, InvariantProbe};
use csmt_workloads::{all_apps, build_streams, simulate, simulate_probed, AppParams};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The figure seed (`csmt_bench::FIGURE_SEED`), for which
/// `expected.json` pins every digest.
pub const DEFAULT_SEED: u64 = csmt_bench::FIGURE_SEED;

/// Deadlock ceiling, as in `csmt_workloads::runner`.
const MAX_CYCLES: u64 = 2_000_000_000;

/// Table 2 without SMT8, which is configuration-identical to FA8.
const KERNEL_ARCHS: [ArchKind; 7] = [
    ArchKind::Fa8,
    ArchKind::Fa4,
    ArchKind::Fa2,
    ArchKind::Fa1,
    ArchKind::Smt4,
    ArchKind::Smt2,
    ArchKind::Smt1,
];

/// Sweeps of the grid in one `sweep_warm` pass (27 000 cache loads, ~1 s:
/// long enough that the 10 ms tick of `/proc/self/stat` CPU time is ~1%).
pub const SWEEPS_PER_PASS: usize = 250;

/// One paper figure: architectures × the six applications.
pub struct Figure {
    title: &'static str,
    archs: &'static [ArchKind],
    chips: usize,
    baseline: ArchKind,
}

impl Figure {
    /// Cells of the figure's grid: its architectures × the six
    /// applications.
    fn cells(&self) -> usize {
        self.archs.len() * 6
    }
}

const FIG4: Figure = Figure {
    title: "Figure 4: FA vs SMT2, low-end",
    archs: &ArchKind::FA_FIGURES,
    chips: 1,
    baseline: ArchKind::Fa8,
};
const FIG5: Figure = Figure {
    title: "Figure 5: FA vs SMT2, high-end",
    archs: &ArchKind::FA_FIGURES,
    chips: 4,
    baseline: ArchKind::Fa8,
};
const FIG7: Figure = Figure {
    title: "Figure 7: SMT, low-end",
    archs: &ArchKind::SMT_FIGURES,
    chips: 1,
    baseline: ArchKind::Smt8,
};
const FIG8: Figure = Figure {
    title: "Figure 8: SMT, high-end",
    archs: &ArchKind::SMT_FIGURES,
    chips: 4,
    baseline: ArchKind::Smt8,
};

/// What a workload's pass calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `csmt_workloads::simulate` per cell on `chips` chips.
    Kernel {
        /// Machine size.
        chips: usize,
    },
    /// Figure grids through `SweepEngine::from_env()` + `render_figure`.
    Figs,
    /// Figure grids through a one-worker engine with a filled cache.
    SweepWarm,
    /// `simulate_probed` with `(MetricsProbe, InvariantProbe)`.
    Probed,
}

/// One workload.
pub struct Spec {
    /// Normative name.
    pub name: &'static str,
    /// Why it is in the set (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// What a pass calls.
    pub kind: Kind,
    /// Work scale of every cell.
    pub scale: f64,
    /// The `CSMT_*` environment the workload runs under; everything
    /// else is scrubbed.
    pub env: &'static [(&'static str, &'static str)],
}

/// One host thread, serial machine step.
pub const SERIAL: &[(&str, &str)] = &[("CSMT_PARALLEL", "0")];

/// `figs_pooled`: two sweep workers (the harness thread sleeps while
/// they run, so never more runnable threads than the two CPUs of the
/// reference host), and the two-phase step recorded and replayed on the
/// worker's own thread — `par_step`'s tape path without its per-cycle
/// thread handshake, which times the host's scheduler, not the program.
const FIGS_ENV: &[(&str, &str)] = &[
    ("CSMT_PARALLEL", "1"),
    ("CSMT_SWEEP_THREADS", "2"),
    ("CSMT_THREADS", "1"),
];

/// The workload set, in run order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "kernel_lowend",
        why: "42 one-chip cells (7 archs x 6 apps, figure scale) via simulate on one host thread: all host time is Cluster::step plus local L1/L2, no directory, sweep layer bypassed, probes compiled out",
        kind: Kind::Kernel { chips: 1 },
        scale: 1.0,
        env: SERIAL,
    },
    Spec {
        name: "kernel_highend",
        why: "the same 42 cells on 4 chips: MESI directory, remote latencies, 4x the clusters per cycle, long stalls fast-forwarded; moves apart from kernel_lowend when local hits and remote traffic trade off",
        kind: Kind::Kernel { chips: 4 },
        scale: 1.0,
        env: SERIAL,
    },
    Spec {
        name: "figs_pooled",
        why: "Fig 4 + Fig 8 grids via SweepEngine::from_env (2 pool workers) + render_figure, every machine taking the two-phase record/commit step inline: the only one where sweep::pool and par_step's tapes work",
        kind: Kind::Figs,
        scale: 0.25,
        env: FIGS_ENV,
    },
    Spec {
        name: "sweep_warm",
        why: "Fig 4+5+7+8 grids (108 cells) served 250x per pass from a filled result cache: key hash, file read, JSON parse, digest verify in csmt-sweep; the kernel does nothing, so kernel changes must not move it",
        kind: Kind::SweepWarm,
        scale: 0.25,
        env: SERIAL,
    },
    Spec {
        name: "report_probed",
        why: "24 cells ({SMT2,FA4} x 6 apps x {1,4} chips) via simulate_probed with MetricsProbe+InvariantProbe: the csmt-report / CSMT_VERIFY flow, the only one where csmt-trace, -metrics and -verify do work",
        kind: Kind::Probed,
        scale: 1.0,
        env: SERIAL,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn cell(
    app: &csmt_workloads::AppSpec,
    arch: ArchKind,
    n_chips: usize,
    seed: u64,
    scale: f64,
) -> SweepCell {
    SweepCell {
        app: app.clone(),
        arch,
        n_chips,
        seed,
        scale,
        sched: "static".to_string(),
    }
}

fn figure_cells(fig: &Figure, seed: u64, scale: f64) -> Vec<SweepCell> {
    all_apps()
        .iter()
        .flat_map(|app| {
            fig.archs
                .iter()
                .map(move |&arch| cell(app, arch, fig.chips, seed, scale))
        })
        .collect()
}

impl Spec {
    fn figures(&self) -> &'static [Figure] {
        match self.kind {
            Kind::Figs => &[FIG4, FIG8],
            Kind::SweepWarm => &[FIG4, FIG5, FIG7, FIG8],
            Kind::Kernel { .. } | Kind::Probed => &[],
        }
    }

    /// The workload's cells, in pass order (apps outer, archs inner, as
    /// `run_figure` enumerates them).
    pub fn grid(&self, seed: u64, scale: f64) -> Vec<SweepCell> {
        match self.kind {
            Kind::Kernel { chips } => all_apps()
                .iter()
                .flat_map(|app| {
                    KERNEL_ARCHS
                        .iter()
                        .map(move |&arch| cell(app, arch, chips, seed, scale))
                })
                .collect(),
            Kind::Figs | Kind::SweepWarm => self
                .figures()
                .iter()
                .flat_map(|f| figure_cells(f, seed, scale))
                .collect(),
            Kind::Probed => [1, 4]
                .into_iter()
                .flat_map(|chips| {
                    all_apps().into_iter().flat_map(move |app| {
                        [ArchKind::Smt2, ArchKind::Fa4]
                            .into_iter()
                            .map(move |arch| cell(&app, arch, chips, seed, scale))
                    })
                })
                .collect(),
        }
    }
}

/// A workload after set-up: its cells and, for `sweep_warm`, the engine
/// over a filled cache. Dropping it removes the cache directory.
pub struct Ready {
    /// The grid at the workload's scale.
    pub cells: Vec<SweepCell>,
    engine: Option<SweepEngine>,
    cache_dir: Option<PathBuf>,
    /// Digests of the cold (simulated) results the cache was filled
    /// with; every warm load must reproduce them.
    pub cold_digests: Option<Vec<u64>>,
}

impl Ready {
    /// Cells with no cache behind them.
    fn uncached(cells: Vec<SweepCell>) -> Ready {
        Ready {
            cells,
            engine: None,
            cache_dir: None,
            cold_digests: None,
        }
    }
}

impl Drop for Ready {
    fn drop(&mut self) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Directory for everything a run writes (`benchmark/out`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

impl Spec {
    /// One full set-up: build the grid, fill the cache cold
    /// (`sweep_warm`), then a warm-up pass at an eighth of the scale
    /// (`figs_pooled`: half) so that lazy initialisation anywhere in the
    /// stack lands here and not in the first timed pass. With `spans`, the cache fill is traced
    /// under a `setup` root span.
    pub fn setup(&self, seed: u64, scale: f64, spans: Option<&mut Spans>) -> Ready {
        let mut ready = Ready::uncached(self.grid(seed, scale));
        if self.kind == Kind::SweepWarm {
            let dir = out_dir().join(format!("cache-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = ResultCache::new(&dir).expect("cache directory under benchmark/out");
            ready.cache_dir = Some(dir);
            let cold: Vec<RunResult> = match spans {
                Some(sp) => sp.scope("setup", 0, |sp| {
                    (0..ready.cells.len())
                        .map(|i| traced_cell(sp, &ready.cells[i], i as u32, Some(&cache), false).0)
                        .collect()
                }),
                None => {
                    SweepEngine::new(1, Some(cache.clone()))
                        .run(&ready.cells)
                        .results
                }
            };
            ready.cold_digests = Some(cold.iter().map(digest).collect());
            ready.engine = Some(SweepEngine::new(1, Some(cache)));
            black_box(self.pass(&ready, 1));
        } else {
            // Pool workers that live for under ~50 ms can spend their whole
            // life sharing one CPU (seen in one process in eight, doubling
            // its set-up time): warm the pooled workload up at half scale.
            let shrink = if self.kind == Kind::Figs { 2.0 } else { 8.0 };
            black_box(self.pass(&Ready::uncached(self.grid(seed, scale / shrink)), 1));
        }
        ready
    }
}

/// What one pass delivered.
pub struct PassOut {
    /// One entry per cell served, in pass order; `Err` = the cell failed
    /// before producing a result (panic, invariant violation, cache miss).
    pub results: Vec<Result<RunResult, String>>,
    /// Host latency per cell in ms (per engine call ÷ cells where the
    /// engine owns the loop).
    pub cell_ms: Vec<f64>,
    /// Cells served from the result cache.
    pub hits: u64,
    /// Cells simulated.
    pub misses: u64,
}

fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        format!("panicked: {msg}")
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Normalise one figure's results as `csmt_bench::run_figure` does.
fn figure_rows(fig: &Figure, cells: &[SweepCell], results: &[RunResult]) -> Vec<AppRow> {
    let n = fig.archs.len();
    cells
        .chunks(n)
        .zip(results.chunks(n))
        .map(|(cs, rs)| {
            let base = fig
                .archs
                .iter()
                .position(|a| *a == fig.baseline)
                .expect("baseline in figure");
            let base_cycles = rs[base].cycles as f64;
            AppRow {
                app: cs[0].app.name,
                cells: fig
                    .archs
                    .iter()
                    .zip(rs)
                    .map(|(&arch, r)| Cell {
                        arch,
                        normalized: 100.0 * r.cycles as f64 / base_cycles,
                        result: r.clone(),
                    })
                    .collect(),
            }
        })
        .collect()
}

fn probes_for(c: &SweepCell) -> (MetricsProbe, InvariantProbe) {
    (
        MetricsProbe::new(1000),
        InvariantProbe::new(&c.arch.chip(), c.n_chips),
    )
}

/// Drain the probe pair: build the metrics report (what `csmt-report`
/// prints from) and turn invariant violations into a failure.
fn finish_probes(
    probes: (MetricsProbe, InvariantProbe),
    r: RunResult,
) -> Result<RunResult, String> {
    black_box(probes.0.finish());
    match probes.1.finish() {
        Ok(_) => Ok(r),
        Err(v) => Err(format!(
            "{} invariant violation(s), first: {:?}",
            v.len(),
            v[0]
        )),
    }
}

impl Spec {
    /// One cell of a kernel or probed workload, as its users call it.
    fn run_cell(&self, c: &SweepCell) -> Result<RunResult, String> {
        if self.kind != Kind::Probed {
            return Ok(simulate(&c.app, c.arch, c.n_chips, c.scale, c.seed));
        }
        let mut probes = probes_for(c);
        let r = simulate_probed(
            &c.app,
            c.arch.chip(),
            c.n_chips,
            c.scale,
            c.seed,
            MemConfig::table3(),
            &mut probes,
        );
        finish_probes(probes, r)
    }

    /// One untraced pass over `ready` (`sweeps` sweeps of the grid for
    /// `sweep_warm`, which is the only kind that reads it).
    pub fn pass(&self, ready: &Ready, sweeps: usize) -> PassOut {
        let cells = &ready.cells;
        let mut out = PassOut {
            results: Vec::with_capacity(cells.len()),
            cell_ms: Vec::with_capacity(cells.len()),
            hits: 0,
            misses: 0,
        };
        match self.kind {
            Kind::Kernel { .. } | Kind::Probed => {
                for c in cells {
                    let t = Instant::now();
                    out.results
                        .push(caught(|| self.run_cell(c)).and_then(|r| r));
                    out.cell_ms.push(ms_since(t));
                }
                out.misses = cells.len() as u64;
            }
            Kind::Figs => return self.figs_pass(cells, None),
            Kind::SweepWarm => {
                let engine = ready.engine.as_ref().expect("sweep_warm is set up");
                for _ in 0..sweeps {
                    let t = Instant::now();
                    let r = caught(|| engine.run(cells));
                    let per_cell = ms_since(t) / cells.len() as f64;
                    out.cell_ms.extend(cells.iter().map(|_| per_cell));
                    match r {
                        Ok(sw) => {
                            out.hits += sw.hits as u64;
                            out.misses += sw.misses as u64;
                            out.results.extend(sw.results.into_iter().map(Ok));
                        }
                        Err(e) => out.results.extend(cells.iter().map(|_| Err(e.clone()))),
                    }
                }
            }
        }
        out
    }

    /// One `figs_pooled` pass: each figure's grid through the
    /// environment-configured engine, then rendered. The engine owns the
    /// cell loop (and its threads), so from outside a traced pass can
    /// only put spans around the whole engine call and the rendering.
    fn figs_pass(&self, cells: &[SweepCell], mut sp: Option<&mut Spans>) -> PassOut {
        fn spanned<T>(
            sp: &mut Option<&mut Spans>,
            name: &'static str,
            id: u32,
            f: impl FnOnce() -> T,
        ) -> T {
            match sp {
                Some(sp) => sp.scope(name, id, |_| f()),
                None => f(),
            }
        }
        let mut out = PassOut {
            results: Vec::with_capacity(cells.len()),
            cell_ms: Vec::with_capacity(cells.len()),
            hits: 0,
            misses: cells.len() as u64,
        };
        let mut at = 0;
        for fig in self.figures() {
            let fig_cells = &cells[at..at + fig.cells()];
            let id = at as u32;
            at += fig_cells.len();
            let t = Instant::now();
            let r = caught(|| {
                let results = spanned(&mut sp, "sweep.engine_run", id, || {
                    SweepEngine::from_env().run(fig_cells).results
                });
                let rows = figure_rows(fig, fig_cells, &results);
                spanned(&mut sp, "bench.render_figure", id, || {
                    black_box(render_figure(fig.title, &rows));
                });
                results
            });
            let per_cell = ms_since(t) / fig_cells.len() as f64;
            out.cell_ms.extend(fig_cells.iter().map(|_| per_cell));
            match r {
                Ok(results) => out.results.extend(results.into_iter().map(Ok)),
                Err(e) => out.results.extend(fig_cells.iter().map(|_| Err(e.clone()))),
            }
        }
        out
    }

    /// One traced pass under a `pass` root span: the harness executes
    /// every cell itself through the layers' public calls, each wrapped
    /// in a span (`figs_pooled`: see [`Spec::figs_pass`]). Returns what
    /// the pass delivered, for the same checks.
    pub fn traced_pass(&self, ready: &Ready, sweeps: usize, sp: &mut Spans) -> PassOut {
        let cells = &ready.cells;
        if self.kind == Kind::Figs {
            return sp.scope("pass", 0, |sp| self.figs_pass(cells, Some(sp)));
        }
        let cache = ready.engine.as_ref().and_then(SweepEngine::cache);
        let probed = self.kind == Kind::Probed;
        let sweeps = if cache.is_some() { sweeps } else { 1 };
        let mut out = PassOut {
            results: Vec::with_capacity(cells.len() * sweeps),
            cell_ms: Vec::with_capacity(cells.len() * sweeps),
            hits: 0,
            misses: 0,
        };
        sp.scope("pass", 0, |sp| {
            for _ in 0..sweeps {
                for (i, c) in cells.iter().enumerate() {
                    let t = Instant::now();
                    let r = caught(|| traced_cell(sp, c, i as u32, cache, probed));
                    out.cell_ms.push(ms_since(t));
                    out.results.push(match r {
                        Ok((r, true)) => {
                            out.hits += 1;
                            Ok(r)
                        }
                        Ok((_, false)) if cache.is_some() => {
                            Err("miss in a filled cache".to_string())
                        }
                        Ok((r, false)) => {
                            out.misses += 1;
                            Ok(r)
                        }
                        Err(e) => Err(e),
                    });
                }
            }
        });
        out
    }
}

/// One cell through the layers' public calls, a span around each:
/// key → cache load → build streams → machine → attach → run → digest →
/// cache store. Returns the result and whether the cache served it. With
/// `probed`, the run carries the `report_probed` probe pair and a
/// violation panics (the caller catches it).
fn traced_cell(
    sp: &mut Spans,
    c: &SweepCell,
    id: u32,
    cache: Option<&ResultCache>,
    probed: bool,
) -> (RunResult, bool) {
    sp.scope("harness.cell", id, |sp| {
        let key = cache.map(|_| sp.scope("sweep.key", id, |_| c.key()));
        if let (Some(cache), Some(key)) = (cache, key) {
            if let Some(r) = sp.scope("sweep.cache_load", id, |_| cache.load(key)) {
                sp.scope("harness.digest", id, |_| black_box(digest(&r)));
                return (r, true);
            }
        }
        let mut machine = sp.scope("core.machine_new", id, |_| {
            Machine::new(c.arch.chip(), c.n_chips, MemConfig::table3(), c.seed)
        });
        let params = AppParams::new(machine.hw_thread_capacity(), c.n_chips, c.scale, c.seed);
        let streams = sp.scope("workloads.build_streams", id, |_| {
            build_streams(&c.app, &params)
        });
        sp.scope("core.attach_threads", id, |_| {
            machine.attach_threads(streams)
        });
        let r = if probed {
            let mut probes = probes_for(c);
            let r = sp.scope("core.run", id, |_| {
                machine.run_probed(MAX_CYCLES, &mut probes)
            });
            sp.scope("metrics.finish", id, |_| finish_probes(probes, r))
                .unwrap_or_else(|e| panic!("{e}"))
        } else {
            sp.scope("core.run", id, |_| machine.run(MAX_CYCLES))
        };
        sp.scope("harness.digest", id, |_| black_box(digest(&r)));
        if let (Some(cache), Some(key)) = (cache, key) {
            sp.scope("sweep.cache_store", id, |_| cache.store(key, &r));
        }
        (r, false)
    })
}

/// FNV-64 of the serialised `RunResult` — the per-cell result digest
/// `expected.json` pins.
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv64::new();
    h.update(
        serde_json::to_string(r)
            .expect("RunResult serialises")
            .as_bytes(),
    );
    h.finish()
}

/// §4.1 slot conservation: `useful + Σ wasted = slots` up to float
/// rounding.
pub fn slots_conserved(r: &RunResult) -> bool {
    let sum = r.slots.useful + r.slots.wasted.iter().sum::<f64>();
    (sum - r.slots.slots as f64).abs() <= 1e-6 * (r.slots.slots.max(1) as f64)
}

/// Count the failed cells of a pass: no result, broken slot
/// conservation, or a digest different from `reference` (indexed modulo
/// the grid, so `sweep_warm`'s repeated sweeps compare against one
/// grid's worth). Prints the first few failures.
pub fn count_failed(out: &PassOut, reference: &[u64], cells: &[SweepCell]) -> usize {
    let mut failed = 0;
    for (i, r) in out.results.iter().enumerate() {
        let c = &cells[i % cells.len()];
        let why = match r {
            Err(e) => Some(e.clone()),
            Ok(r) if !slots_conserved(r) => Some("slot conservation broken".to_string()),
            Ok(r) if digest(r) != reference[i % reference.len()] => Some(format!(
                "digest {:016x} != expected {:016x}",
                digest(r),
                reference[i % reference.len()]
            )),
            Ok(_) => None,
        };
        if let Some(why) = why {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "FAILED cell {i} ({} on {} x{}): {why}",
                    c.app.name,
                    c.arch.name(),
                    c.n_chips
                );
            }
        }
    }
    failed
}

/// Digests of a pass's results (0 for a cell that produced none).
pub fn digests(out: &PassOut) -> Vec<u64> {
    out.results
        .iter()
        .map(|r| r.as_ref().map_or(0, digest))
        .collect()
}

/// Run `f` under exactly the `CSMT_*` environment `set`, then put back
/// the one in force before. No thread of the library may be alive.
fn with_csmt_env<T>(set: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
    let saved = crate::host::csmt_env();
    crate::host::pin_csmt_env(set).expect("CSMT_* environment can be set");
    let out = f();
    let saved: Vec<(&str, &str)> = saved.iter().map(|(k, v)| (&**k, &**v)).collect();
    crate::host::pin_csmt_env(&saved).expect("CSMT_* environment can be restored");
    out
}

/// Every cell simulated serially (`CSMT_PARALLEL=0`, this thread, no
/// engine): the reference the parallel paths must reproduce, and what
/// `--record-expected` pins.
pub fn serial_reference(cells: &[SweepCell]) -> Vec<RunResult> {
    with_csmt_env(SERIAL, || {
        cells
            .iter()
            .map(|c| simulate(&c.app, c.arch, c.n_chips, c.scale, c.seed))
            .collect()
    })
}

/// What the library's defaults cost: one pass of the `figs_pooled` grids
/// with no `CSMT_*` variable set (sweep pool at host parallelism, each
/// machine's step parallel when the host has more than one CPU — what
/// the figure binaries do on a clean shell) after one under that
/// workload's pinned environment. Returns the two wall times in seconds
/// (default, pinned), the cells the default pass attempted and how many
/// of them failed — no result, or one different from the pinned pass's.
pub fn default_env_pass(seed: u64, scale: f64) -> (f64, f64, usize, usize) {
    let spec = by_name("figs_pooled").expect("workload exists");
    let ready = Ready::uncached(spec.grid(seed, scale));
    let timed = |env: &[(&str, &str)]| {
        with_csmt_env(env, || {
            let t = Instant::now();
            let out = spec.pass(&ready, 1);
            (t.elapsed().as_secs_f64(), out)
        })
    };
    let (pinned_s, pinned) = timed(spec.env);
    let (default_s, default) = timed(&[]);
    let failed = count_failed(&default, &digests(&pinned), &ready.cells);
    (default_s, pinned_s, default.results.len(), failed)
}

/// One pass over `cells` with the public [`HostProfiler`] probe
/// attached: the profile and the pass's wall seconds.
pub fn profiled_pass(cells: &[SweepCell]) -> (HostProfiler, f64) {
    let mut prof = HostProfiler::new();
    let t = Instant::now();
    for c in cells {
        black_box(simulate_probed(
            &c.app,
            c.arch.chip(),
            c.n_chips,
            c.scale,
            c.seed,
            MemConfig::table3(),
            &mut prof,
        ));
    }
    (prof, t.elapsed().as_secs_f64())
}

/// Wall seconds of the same pass without a probe.
pub fn unprofiled_pass(cells: &[SweepCell]) -> f64 {
    let t = Instant::now();
    for c in cells {
        black_box(simulate(&c.app, c.arch, c.n_chips, c.scale, c.seed));
    }
    t.elapsed().as_secs_f64()
}

/// Simulated counters of one grid's results (simulated time: they
/// repeat exactly, so two commits compare exactly).
pub fn sim_counters(cells: &[SweepCell], results: &[RunResult]) -> Vec<(&'static str, f64)> {
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let committed: u64 = results.iter().map(|r| r.slots.committed).sum();
    let slots: f64 = results.iter().map(|r| r.slots.slots as f64).sum();
    let frac = |x: f64, of: f64| if of == 0.0 { 0.0 } else { x / of };
    let wasted = |h: Hazard| {
        frac(
            results.iter().map(|r| r.slots.wasted[h.index()]).sum(),
            slots,
        )
    };
    let mut mem = MemStats::default();
    for r in results {
        mem.merge(&r.mem);
    }
    let lookups: u64 = results.iter().map(|r| r.branch_lookups).sum();
    let mispredicts: u64 = results.iter().map(|r| r.branch_mispredicts).sum();
    let thread_cycles: f64 = results
        .iter()
        .map(|r| r.avg_running_threads * r.cycles as f64)
        .sum();
    let margin = smt2_vs_best_fa_pct(cells, results);
    vec![
        ("sim.cycles", cycles as f64),
        ("sim.committed", committed as f64),
        ("sim.ipc", frac(committed as f64, cycles as f64)),
        (
            "sim.slots.useful_frac",
            frac(results.iter().map(|r| r.slots.useful).sum(), slots),
        ),
        ("sim.slots.structural_frac", wasted(Hazard::Structural)),
        ("sim.slots.memory_frac", wasted(Hazard::Memory)),
        ("sim.slots.data_frac", wasted(Hazard::Data)),
        ("sim.slots.control_frac", wasted(Hazard::Control)),
        ("sim.slots.sync_frac", wasted(Hazard::Sync)),
        ("sim.slots.fetch_frac", wasted(Hazard::Fetch)),
        ("sim.slots.other_frac", wasted(Hazard::Other)),
        ("mem.l1_hit_rate", mem.l1_hit_rate()),
        ("mem.l2_hits", mem.l2_hits as f64),
        ("mem.remote_frac", mem.remote_fraction()),
        ("mem.contention_wait", mem.contention_wait as f64),
        ("mem.mshr_merges", mem.mshr_merges as f64),
        ("mem.tlb_misses", mem.tlb_misses as f64),
        ("mem.writebacks", mem.writebacks as f64),
        ("mem.invalidations", mem.invalidations as f64),
        (
            "cpu.mispredict_rate",
            frac(mispredicts as f64, lookups as f64),
        ),
        (
            "core.avg_running_threads",
            frac(thread_cycles, cycles as f64),
        ),
        (
            "core.barrier_episodes",
            results.iter().map(|r| r.barrier_episodes).sum::<u64>() as f64,
        ),
        (
            "core.lock_acquisitions",
            results.iter().map(|r| r.lock_acquisitions).sum::<u64>() as f64,
        ),
        ("model.smt2_vs_best_fa_pct", margin),
        ("model.paper_gap_pp", margin - PAPER_SMT2_MARGIN_PCT),
    ]
}

/// The paper's headline: SMT2 is ~13% faster than the best FA
/// configuration on the low-end machine (§5.1, Fig 4).
const PAPER_SMT2_MARGIN_PCT: f64 = 13.0;

/// Mean over (application, machine size) of how much faster SMT2 is
/// than the best FA architecture in the grid, in % of the FA time. On
/// `kernel_lowend` this is the Fig 4 mean margin; 0 when the grid has
/// no such pair.
fn smt2_vs_best_fa_pct(cells: &[SweepCell], results: &[RunResult]) -> f64 {
    let is_fa = |a: ArchKind| {
        matches!(
            a,
            ArchKind::Fa8 | ArchKind::Fa4 | ArchKind::Fa2 | ArchKind::Fa1
        )
    };
    let mut margins = Vec::new();
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for c in cells {
        let group = (c.app.name, c.n_chips);
        if seen.contains(&group) {
            continue;
        }
        seen.push(group);
        let in_group = |want: &dyn Fn(ArchKind) -> bool| {
            cells
                .iter()
                .zip(results)
                .filter(|(k, _)| (k.app.name, k.n_chips) == group && want(k.arch))
                .map(|(_, r)| r.cycles)
                .min()
        };
        if let (Some(smt2), Some(fa)) = (in_group(&|a| a == ArchKind::Smt2), in_group(&is_fa)) {
            margins.push(100.0 * (fa as f64 - smt2 as f64) / fa as f64);
        }
    }
    if margins.is_empty() {
        0.0
    } else {
        margins.iter().sum::<f64>() / margins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_shapes() {
        let sizes: Vec<usize> = SPECS
            .iter()
            .map(|s| s.grid(DEFAULT_SEED, s.scale).len())
            .collect();
        assert_eq!(sizes, vec![42, 42, 54, 108, 24]);
        let high = by_name("kernel_highend").unwrap().grid(1, 1.0);
        assert!(high.iter().all(|c| c.n_chips == 4 && c.seed == 1));
        assert!(high.iter().all(|c| c.arch != ArchKind::Smt8));
    }

    #[test]
    fn seed_reaches_the_simulator_and_checks_catch_a_wrong_digest() {
        let spec = by_name("kernel_lowend").unwrap();
        let mut cells = spec.grid(3, 0.01);
        cells.truncate(2);
        let ready = Ready::uncached(cells);
        let out = spec.pass(&ready, 1);
        let reference = digests(&out);
        assert_eq!(count_failed(&out, &reference, &ready.cells), 0);
        assert_eq!(
            count_failed(&out, &[reference[0] ^ 1, reference[1]], &ready.cells),
            1
        );
        let other_seed = spec.grid(4, 0.01);
        assert_ne!(digest(&other_seed[0].simulate()), reference[0]);
        assert_eq!(digest(&serial_reference(&ready.cells)[1]), reference[1]);
    }

    #[test]
    fn traced_cell_equals_untraced_and_spans_nest() {
        let spec = by_name("report_probed").unwrap();
        let mut cells = spec.grid(DEFAULT_SEED, 0.01);
        cells.truncate(1);
        let ready = Ready::uncached(cells);
        let mut sp = Spans::new();
        let traced = spec.traced_pass(&ready, 1, &mut sp);
        assert_eq!(digests(&traced), digests(&spec.pass(&ready, 1)));
        let names: Vec<&str> = sp.all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "pass",
                "harness.cell",
                "core.machine_new",
                "workloads.build_streams",
                "core.attach_threads",
                "core.run",
                "metrics.finish",
                "harness.digest"
            ]
        );
    }

    #[test]
    fn margin_is_mean_gain_of_smt2_over_the_best_fa() {
        let spec = by_name("kernel_lowend").unwrap();
        let cells: Vec<SweepCell> = spec
            .grid(1, 0.01)
            .into_iter()
            .filter(|c| c.app.name == "swim")
            .collect();
        let mut results: Vec<RunResult> = cells.iter().map(|_| cells[0].simulate()).collect();
        for (c, r) in cells.iter().zip(&mut results) {
            r.cycles = match c.arch {
                ArchKind::Smt2 => 80,
                ArchKind::Fa4 => 100,
                _ => 150,
            };
        }
        assert!((smt2_vs_best_fa_pct(&cells, &results) - 20.0).abs() < 1e-12);
    }
}
