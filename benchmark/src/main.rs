//! # csmt-benchmark — end-to-end + per-layer benchmark of the reproduction
//!
//! One binary, started through `benchmark/run.sh`:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON object as the last
//!   line of standard output (the form the benchmark driver calls);
//! * with no `--workload`, every workload runs in its own child process
//!   and the set is written to `benchmark/out/results.json`
//!   (`--trace`: `results.trace.json` + `trace.json`; `--smoke`: one
//!   short traced pass of everything);
//! * `--compare A.json B.json` compares two such files;
//! * `--record-expected` regenerates `benchmark/expected.json`.
//!
//! See `benchmark/README.md` for the workloads, metrics and how they
//! interact.

mod compare;
mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use csmt_core::{ArchKind, Machine, RunResult};
use csmt_mem::MemConfig;
use csmt_sweep::SweepEngine;
use csmt_trace::HostPhase;
use metrics::{END_TO_END, PER_LAYER};
use serde_json::Value;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Spec, DEFAULT_SEED, SPECS};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

const USAGE: &str = "usage: benchmark/run.sh [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--smoke]\n       benchmark/run.sh --compare A.json B.json\n       \
benchmark/run.sh --record-expected\n\n\
Without --workload, runs all five workloads (each in its own process) and writes\n\
benchmark/out/results.json; --trace adds the per-layer run (results.trace.json,\n\
trace.json); --smoke is one short traced pass of everything.";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|x| Value::F64(*x)).collect())
}

/// One reported metric: its value, how many samples it summarises, and
/// the samples (empty for a single measurement).
struct Row {
    name: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Row {
    fn one(name: &'static str, value: f64) -> Row {
        Row {
            name,
            value,
            samples: Vec::new(),
        }
    }
}

/// The pinned outputs of one workload at the default seed.
struct Expected {
    cycles: u64,
    committed: u64,
    digests: Vec<u64>,
}

/// Parse the JSON file at `path`; the error names the file.
fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

fn load_expected(spec: &Spec) -> Result<Expected, String> {
    let v = read_json(&expected_path()).map_err(|e| format!("{e} (run --record-expected)"))?;
    let w = &v["workloads"][spec.name];
    let stale = || {
        format!(
            "expected.json is stale for {} (run --record-expected)",
            spec.name
        )
    };
    if v["seed"].as_u64() != Some(DEFAULT_SEED) || w["scale"].as_f64() != Some(spec.scale) {
        return Err(stale());
    }
    let digests = w["digests"]
        .as_array()
        .ok_or_else(stale)?
        .iter()
        .map(|d| d.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(stale)?;
    Ok(Expected {
        cycles: w["cycles"].as_u64().ok_or_else(stale)?,
        committed: w["committed"].as_u64().ok_or_else(stale)?,
        digests,
    })
}

/// `--record-expected`: every workload's grid simulated serially at the
/// default seed; per-cell digests and totals written to `expected.json`.
fn record_expected() -> Result<(), String> {
    host::pin_csmt_env(&[("CSMT_PARALLEL", "0")])?;
    let workloads = SPECS
        .iter()
        .map(|spec| {
            let results = workloads::serial_reference(&spec.grid(DEFAULT_SEED, spec.scale));
            eprintln!("recorded {} ({} cells)", spec.name, results.len());
            (
                spec.name.to_string(),
                obj(vec![
                    ("scale", Value::F64(spec.scale)),
                    ("cycles", Value::U64(results.iter().map(|r| r.cycles).sum())),
                    (
                        "committed",
                        Value::U64(results.iter().map(|r| r.slots.committed).sum()),
                    ),
                    (
                        "digests",
                        Value::Array(
                            results
                                .iter()
                                .map(|r| Value::Str(format!("{:016x}", workloads::digest(r))))
                                .collect(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("seed", Value::U64(DEFAULT_SEED)),
        ("workloads", Value::Object(workloads)),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("serialisable");
    text.push('\n');
    std::fs::write(expected_path(), text).map_err(|e| format!("expected.json: {e}"))
}

/// Everything one workload run measured.
struct Outcome {
    detail: Value,
    /// The contract line: `{correct, attempted, failed, metrics}`.
    line: Value,
}

/// What the timed, untraced passes of a run delivered.
#[derive(Default)]
struct Timed {
    /// Per-pass wall seconds, CPU seconds and simulated kinst/s.
    wall: Vec<f64>,
    cpu: Vec<f64>,
    kips: Vec<f64>,
    /// Simulated cycles and committed instructions of every result
    /// delivered.
    cycles: u64,
    committed: u64,
    hits: u64,
    misses: u64,
    cell_ms: Vec<f64>,
    /// The first pass's results, one grid's worth.
    first_grid: Vec<RunResult>,
    /// Cells checked and cells that failed a check, over the whole run.
    attempted: usize,
    failed: usize,
}

/// Closed loop, one client: pass after pass until `budget` seconds have
/// gone by (and at least `min_passes`); every pass is checked outside
/// its clock. With no `reference` yet, the first pass becomes it.
fn timed_passes(
    spec: &Spec,
    ready: &workloads::Ready,
    sweeps: usize,
    (budget, min_passes): (f64, usize),
    reference: &mut Option<Vec<u64>>,
) -> Timed {
    let mut t = Timed::default();
    let started = Instant::now();
    while t.wall.len() < min_passes || started.elapsed().as_secs_f64() < budget {
        let cpu0 = host::cpu_seconds();
        let clock = Instant::now();
        let out = spec.pass(ready, sweeps);
        let wall = clock.elapsed().as_secs_f64();
        t.cpu.push(host::cpu_seconds() - cpu0);
        t.wall.push(wall);
        let reference = reference.get_or_insert_with(|| workloads::digests(&out));
        t.attempted += out.results.len();
        t.failed += workloads::count_failed(&out, reference, &ready.cells);
        let delivered = out.results.iter().flatten();
        let committed: u64 = delivered.clone().map(|r| r.slots.committed).sum();
        t.cycles += delivered.map(|r| r.cycles).sum::<u64>();
        t.committed += committed;
        t.kips.push(committed as f64 / wall / 1e3);
        t.hits += out.hits;
        t.misses += out.misses;
        t.cell_ms.extend(out.cell_ms);
        if t.first_grid.is_empty() {
            let grid = out.results.into_iter().take(ready.cells.len());
            t.first_grid = grid.flatten().collect();
        }
    }
    t
}

/// What the per-layer part of a traced run reports.
#[derive(Default)]
struct Traced {
    /// The per-layer metrics, in table order.
    rows: Vec<Row>,
    /// Each span name's share of the traced pass.
    span_shares: Vec<(&'static str, f64)>,
}

/// The per-layer part of a traced run: one more pass with a span around
/// every layer call, one pass under the `HostProfiler` probe, and the
/// direct section; writes `out/trace-<workload>.json`.
fn traced_section(
    spec: &Spec,
    o: &Opts,
    ready: &workloads::Ready,
    (scale, sweeps): (f64, usize),
    sp: &mut Spans,
    reference: &[u64],
    t: &mut Timed,
) -> Result<Traced, String> {
    let cells = &ready.cells;
    // A tenth of sweep_warm's sweeps keeps trace.json small; its wall is
    // scaled back up for the comparison with untraced passes.
    let traced_sweeps = (sweeps / 10).max(1);
    let clock = Instant::now();
    let traced = spec.traced_pass(ready, traced_sweeps, sp);
    let mut traced_wall = clock.elapsed().as_secs_f64();
    if spec.kind == Kind::SweepWarm {
        traced_wall *= sweeps as f64 / traced_sweeps as f64;
    }
    t.attempted += traced.results.len();
    t.failed += workloads::count_failed(&traced, reference, cells);
    t.hits += traced.hits;
    t.misses += traced.misses;

    let mut rows = Vec::new();
    let pass_self = spans::self_ns_by_name(sp.all(), "pass");
    let pass_ns = pass_self.iter().map(|(_, ns)| ns).sum::<u64>().max(1);
    // A warm pass never stores: the store time is the traced cold fill's.
    let setup_self = spans::self_ns_by_name(sp.all(), "setup");
    for (metric, _, _) in PER_LAYER {
        if let Some(span) = metric.strip_suffix(".self_ms") {
            let table = if span == "sweep.cache_store" {
                &setup_self
            } else {
                &pass_self
            };
            let ns = table
                .iter()
                .find(|(n, _)| *n == span)
                .map_or(0, |(_, ns)| *ns);
            rows.push(Row::one(metric, ns as f64 / 1e6));
        }
    }
    let span_shares = pass_self
        .iter()
        .map(|(n, ns)| (*n, *ns as f64 / pass_ns as f64))
        .collect();
    let pass_span = sp.all().iter().find(|s| s.name == "pass").expect("traced");
    rows.push(Row::one(
        "trace.span_share_sum",
        pass_ns as f64 / (pass_span.end_ns - pass_span.start_ns).max(1) as f64,
    ));
    rows.push(Row::one(
        "trace.overhead_frac",
        traced_wall / stats::median(&t.wall) - 1.0,
    ));

    // The workload's own passes are over. The phase profile and the
    // direct section are about the serial kernel, whatever environment
    // the workload ran under.
    host::pin_csmt_env(workloads::SERIAL)?;
    let quarter = spec.grid(o.seed, scale / 4.0);
    let plain = workloads::unprofiled_pass(&quarter);
    let (prof, profiled) = workloads::profiled_pass(&quarter);
    let total = prof.total_nanos().max(1) as f64;
    for (name, phase) in [
        ("cpu.phase.complete_share", HostPhase::Complete),
        ("cpu.phase.commit_share", HostPhase::Commit),
        ("cpu.phase.issue_share", HostPhase::Issue),
        ("cpu.phase.fetch_share", HostPhase::Fetch),
        ("cpu.phase.account_share", HostPhase::Account),
        ("mem.phase.memory_share", HostPhase::Memory),
        ("core.phase.cycle_end_share", HostPhase::CycleEnd),
    ] {
        rows.push(Row::one(name, prof.nanos(phase) as f64 / total));
    }
    let calls: u64 = HostPhase::ALL.into_iter().map(|p| prof.calls(p)).sum();
    rows.push(Row::one("cpu.phase.calls", calls as f64));
    rows.push(Row::one(
        "metrics.host_profiler.overhead_frac",
        profiled / plain - 1.0,
    ));

    let size = if o.smoke {
        &layers::SMOKE
    } else {
        &layers::FULL
    };
    let direct = layers::direct(size, o.seed, cells, &t.first_grid);
    let figs_scale = if o.smoke {
        scale
    } else {
        workloads::by_name("figs_pooled").expect("known").scale
    };
    let (default_s, pinned_s, attempted, failed) = workloads::default_env_pass(o.seed, figs_scale);
    t.attempted += attempted;
    t.failed += failed;
    let total_ns = t.wall.iter().sum::<f64>() * 1e9;
    let per_workload = [
        ("core.cell_ms.p50", stats::percentile(&t.cell_ms, 50.0)),
        ("core.cell_ms.p95", stats::percentile(&t.cell_ms, 95.0)),
        ("core.ns_per_cycle", total_ns / t.cycles.max(1) as f64),
        ("core.ns_per_inst", total_ns / t.committed.max(1) as f64),
        ("bench.figs_default_env_s", default_s),
        ("bench.default_env_over_pinned", default_s / pinned_s),
        ("sweep.hits", t.hits as f64),
        ("sweep.misses", t.misses as f64),
        (
            "sweep.hit_ratio",
            t.hits as f64 / (t.hits + t.misses).max(1) as f64,
        ),
    ];
    rows.extend(
        direct
            .into_iter()
            .chain(per_workload)
            .chain(workloads::sim_counters(cells, &t.first_grid))
            .map(|(n, v)| Row::one(n, v)),
    );
    rows.sort_by_key(|r| PER_LAYER.iter().position(|m| m.0 == r.name));

    let pid = 1 + SPECS
        .iter()
        .position(|s| s.name == spec.name)
        .expect("known") as u32;
    let path = workloads::out_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, spans::chrome_trace(sp.all(), pid, spec.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Traced { rows, span_shares })
}

/// Run one workload in this process.
fn run_workload(spec: &Spec, o: &Opts) -> Result<Outcome, String> {
    let env = host::pin_csmt_env(spec.env)?;
    let scale = if o.smoke { 0.05 } else { spec.scale };
    let sweeps = if o.smoke {
        5
    } else {
        workloads::SWEEPS_PER_PASS
    };
    let parallel_step = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 0).parallel();
    let sweep_workers = match spec.kind {
        Kind::Figs => SweepEngine::from_env().threads(),
        _ => 1,
    };

    // Set-up, several times, so that a cheap set-up still gives a steady
    // median: plain ones for four seconds (at least two, at most
    // fourteen), then the one that is kept (in a traced run, its cold
    // cache fill is traced). Four seconds, because a process's first
    // second or so is the likeliest to share its CPUs with the launcher.
    let mut spans = o.trace.then(Spans::new);
    let mut setup_s = Vec::new();
    let mut timed_setup = |sp: Option<&mut Spans>| {
        let clock = Instant::now();
        let ready = spec.setup(o.seed, scale, sp);
        setup_s.push(clock.elapsed().as_secs_f64());
        ready
    };
    let started = Instant::now();
    let (mut plain, mut last) = (0, 0.0);
    while !o.smoke && (plain < 2 || (plain < 14 && started.elapsed().as_secs_f64() + last < 4.0)) {
        let clock = Instant::now();
        // Dropped at once: the next set-up reuses its cache directory.
        drop(timed_setup(None));
        last = clock.elapsed().as_secs_f64();
        plain += 1;
    }
    let ready = timed_setup(spans.as_mut());
    let n_cells = ready.cells.len();

    // What every delivered result must digest to. At the default seed
    // expected.json pins it; otherwise the parallel and cached paths are
    // held to a serial recomputation, and the serial kernel to itself.
    let expected = if !o.smoke && o.seed == DEFAULT_SEED {
        Some(load_expected(spec)?)
    } else {
        None
    };
    let mut reference: Option<Vec<u64>> = match (&expected, spec.kind) {
        (Some(e), _) => Some(e.digests.clone()),
        (None, Kind::Figs) => Some(
            workloads::serial_reference(&ready.cells)
                .iter()
                .map(workloads::digest)
                .collect(),
        ),
        (None, Kind::SweepWarm) => ready.cold_digests.clone(),
        (None, Kind::Kernel { .. } | Kind::Probed) => None,
    };

    // A traced run spends a third of its time on untraced passes, for
    // the median its overhead is measured against; a smoke run one pass.
    let length = match (o.smoke, o.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (o.seconds / 3.0, 2),
        (false, false) => (o.seconds, 3),
    };
    let mut t = timed_passes(spec, &ready, sweeps, length, &mut reference);
    let reference = reference.expect("set by the first pass");
    if let Some(cold) = &ready.cold_digests {
        // warm = cold is checked per load; cold = pinned is checked here.
        t.attempted += cold.len();
        t.failed += cold.iter().zip(&reference).filter(|(a, b)| a != b).count();
    }
    if let Some(e) = &expected {
        let totals = (
            t.first_grid.iter().map(|r| r.cycles).sum::<u64>(),
            t.first_grid.iter().map(|r| r.slots.committed).sum::<u64>(),
        );
        if t.failed == 0 && totals != (e.cycles, e.committed) {
            return Err(format!(
                "{}: digests match expected.json but its totals do not (stale file?)",
                spec.name
            ));
        }
    }

    let Traced {
        rows: layer_rows,
        span_shares,
    } = match spans.as_mut() {
        Some(sp) => traced_section(spec, o, &ready, (scale, sweeps), sp, &reference, &mut t)?,
        None => Traced::default(),
    };
    drop(ready);
    let rows = vec![
        Row {
            name: "wall_s",
            value: stats::median(&t.wall),
            samples: t.wall.clone(),
        },
        Row {
            name: "cpu_s",
            value: stats::median(&t.cpu),
            samples: t.cpu,
        },
        Row {
            name: "sim_kips",
            value: t.committed as f64 / t.wall.iter().sum::<f64>() / 1e3,
            samples: t.kips,
        },
        Row::one("peak_rss_mb", host::peak_rss_mb()),
        Row {
            name: "setup_s",
            value: stats::median(&setup_s),
            samples: setup_s,
        },
    ];
    let (attempted, failed) = (t.attempted, t.failed);

    // The harness must emit exactly the tables, every value a number.
    let names = |rows: &[Row]| rows.iter().map(|r| r.name).collect::<Vec<_>>();
    if names(&rows) != END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        || (o.trace && names(&layer_rows) != PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>())
    {
        return Err("emitted metrics differ from the metric tables".to_string());
    }
    if let Some(bad) = rows
        .iter()
        .chain(&layer_rows)
        .find(|r| !r.value.is_finite())
    {
        return Err(format!("metric {} is not a number", bad.name));
    }

    let correct = failed == 0;
    let metric_values = |rows: &[Row], with_samples: bool| {
        Value::Object(
            rows.iter()
                .map(|r| {
                    let mut m = vec![
                        ("value", Value::F64(r.value)),
                        (
                            "unit",
                            Value::Str(metrics::unit_of(r.name).expect("in a table").to_string()),
                        ),
                    ];
                    if with_samples {
                        m.push(("n", Value::U64(r.samples.len().max(1) as u64)));
                        m.push(("samples", floats(&r.samples)));
                    }
                    (r.name.to_string(), obj(m))
                })
                .collect(),
        )
    };
    let reported = if o.trace { &layer_rows } else { &rows };
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted as u64)),
        ("failed", Value::U64(failed as u64)),
        ("metrics", metric_values(reported, false)),
    ]);
    let detail = obj(vec![
        ("workload", Value::Str(spec.name.to_string())),
        ("why", Value::Str(spec.why.to_string())),
        ("provenance", host::provenance(o.seed)),
        (
            "csmt_env",
            Value::Object(env.into_iter().map(|(k, v)| (k, Value::Str(v))).collect()),
        ),
        ("sweep_workers", Value::U64(sweep_workers as u64)),
        ("parallel_step_default_on", Value::Bool(parallel_step)),
        ("scale", Value::F64(scale)),
        ("cells", Value::U64(n_cells as u64)),
        ("seconds", Value::F64(o.seconds)),
        ("traced", Value::Bool(o.trace)),
        ("smoke", Value::Bool(o.smoke)),
        ("passes", Value::U64(t.wall.len() as u64)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted as u64)),
        ("failed", Value::U64(failed as u64)),
        (
            "failed_frac",
            Value::F64(failed as f64 / attempted.max(1) as f64),
        ),
        ("end_to_end", metric_values(&rows, true)),
        ("per_layer", metric_values(&layer_rows, false)),
        (
            "span_shares",
            Value::Object(
                span_shares
                    .into_iter()
                    .map(|(n, s)| (n.to_string(), Value::F64(s)))
                    .collect(),
            ),
        ),
    ]);

    // Every metric by name, with its unit.
    println!(
        "== {} (seed {}, scale {scale}, {} passes) ==",
        spec.name,
        o.seed,
        t.wall.len()
    );
    for r in rows.iter().chain(&layer_rows) {
        let n = if r.samples.is_empty() {
            String::new()
        } else {
            format!("  (n={})", r.samples.len())
        };
        println!(
            "{:<40} {:>16.6} {}{n}",
            r.name,
            r.value,
            metrics::unit_of(r.name).expect("in a table")
        );
    }
    println!(
        "{:<40} {:>16.6} ratio  ({failed} of {attempted} cells)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome { detail, line })
}

fn detail_path(name: &str, trace: bool) -> PathBuf {
    workloads::out_dir().join(format!("{name}{}.json", if trace { ".trace" } else { "" }))
}

fn write_json(path: &std::path::Path, v: &Value) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(v).expect("serialisable");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload in its own child process, then one results file.
fn suite(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut details = Vec::new();
    for spec in &SPECS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", spec.name))?;
        if !status.success() {
            return Err(format!("{}: child exited with {status}", spec.name));
        }
        let detail = read_json(&detail_path(spec.name, o.trace))?;
        all_correct &= detail["correct"].as_bool() == Some(true);
        details.push((spec.name.to_string(), detail));
    }
    if o.trace {
        let events: Vec<String> = SPECS
            .iter()
            .map(|s| {
                let path = workloads::out_dir().join(format!("trace-{}.json", s.name));
                std::fs::read_to_string(&path)
                    .map(|doc| spans::trace_events(&doc).to_string())
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        let path = workloads::out_dir().join("trace.json");
        std::fs::write(
            &path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let results = obj(vec![
        ("provenance", host::provenance(o.seed)),
        ("seconds", Value::F64(o.seconds)),
        ("traced", Value::Bool(o.trace)),
        ("smoke", Value::Bool(o.smoke)),
        ("workloads", Value::Object(details)),
    ]);
    let path = workloads::out_dir().join(if o.trace {
        "results.trace.json"
    } else {
        "results.json"
    });
    write_json(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                let v = value(&mut i)?;
                o.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut i)?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            "--smoke" => {
                o.smoke = true;
                o.trace = true;
            }
            "--compare" => {
                let a = value(&mut i)?.clone();
                let b = value(&mut i)?.clone();
                return compare::run(&a, &b).map(|ok| {
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                });
            }
            "--record-expected" => return record_expected().map(|()| ExitCode::SUCCESS),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 1;
    }
    match &o.workload {
        Some(name) => {
            let spec = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            })?;
            let outcome = run_workload(spec, &o)?;
            write_json(&detail_path(spec.name, o.trace), &outcome.detail)?;
            // The result line goes last; a failed check is reported in
            // it (`correct: false`), not through the exit code.
            println!(
                "{}",
                serde_json::to_string(&outcome.line).expect("serialisable")
            );
            Ok(ExitCode::SUCCESS)
        }
        None => Ok(if suite(&o)? {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: an output check failed (see failed_frac above)");
            ExitCode::FAILURE
        }),
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
