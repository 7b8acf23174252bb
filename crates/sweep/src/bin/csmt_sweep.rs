//! `csmt-sweep` — run a design-space grid through the sweep engine.
//!
//! The grid is the cross product of `--scales × --seeds × --chips ×
//! --apps × --archs` (cells enumerate in exactly that nesting order,
//! innermost last), every cell under the paper's static placement.
//! Output is a JSONL line per cell (`--out`), an aggregate summary
//! (`--summary`), or both — and both are **deterministic**: byte-for-byte
//! identical across worker counts, cache states, and resumed runs. The
//! run-specific hit/miss/throughput report goes to stdout only.
//!
//! With a cache attached (`--cache` or `CSMT_SWEEP_CACHE`), the cache is
//! also the checkpoint: kill the sweep at any point, rerun the same
//! command, and only the missing cells simulate — the outputs are
//! rewritten in full, byte-identical to an uninterrupted run.

use csmt_core::ArchKind;
use csmt_sweep::{
    arch_by_name, check_size, fail, jsonl_line, key, Cli, ResultCache, SweepEngine, CACHE_SCHEMA,
};
use csmt_workloads::{all_apps, by_name, AppSpec, RunSpec};
use serde::{Serialize, Value};
use std::io::Write as _;

/// Default seed: the figure seed used by every `fig*` binary.
const DEFAULT_SEED: u64 = 0xC5_317;
/// Default work scale: smoke-grid quality, not figure quality.
const DEFAULT_SCALE: f64 = 0.05;

fn usage() -> String {
    let arch_names: Vec<&str> = ArchKind::ALL.iter().map(|a| a.name()).collect();
    let app_names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
    format!(
        "usage: csmt-sweep [options]\n\
         \n\
         grid options (comma-separated lists; cells enumerate as\n\
         scales x seeds x chips x apps x archs, innermost last):\n\
         \x20 --archs <list>    architectures (default: all; {arch})\n\
         \x20 --apps <list>     applications (default: all; {app})\n\
         \x20 --chips <list>    machine sizes in chips (default: 1)\n\
         \x20 --seeds <list>    RNG seeds (default: {seed} — the figure seed)\n\
         \x20 --scales <list>   work scales (default: {scale})\n\
         \n\
         engine options:\n\
         \x20 --threads <n>     worker count (default: CSMT_SWEEP_THREADS\n\
         \x20                   or host parallelism)\n\
         \x20 --cache <dir>     result-cache directory (default:\n\
         \x20                   CSMT_SWEEP_CACHE, or no cache)\n\
         \n\
         output options (all deterministic; run-specific hit/miss and\n\
         throughput stats go to stdout only):\n\
         \x20 --out <path>      write one JSONL line per cell\n\
         \x20 --summary <path>  write the aggregate summary JSON\n\
         \x20 --print-keys      print each cell's cache key, skip simulation\n\
         \x20 --help            this text\n",
        arch = arch_names.join(", "),
        app = app_names.join(", "),
        seed = DEFAULT_SEED,
        scale = DEFAULT_SCALE,
    )
}

fn parse_list<T, F: Fn(&str) -> Option<T>>(raw: &str, what: &str, parse: F) -> Vec<T> {
    let items: Vec<T> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).unwrap_or_else(|| fail(&format!("bad {what} {s:?}"))))
        .collect();
    if items.is_empty() {
        fail(&format!("empty {what} list"));
    }
    items
}

struct Options {
    archs: Vec<ArchKind>,
    apps: Vec<AppSpec>,
    chips: Vec<usize>,
    seeds: Vec<u64>,
    scales: Vec<f64>,
    threads: Option<usize>,
    cache: Option<String>,
    out: Option<String>,
    summary: Option<String>,
    print_keys: bool,
}

fn parse_args() -> Options {
    let cli = Cli::parse(
        &[
            ("--archs", true),
            ("--apps", true),
            ("--chips", true),
            ("--seeds", true),
            ("--scales", true),
            ("--threads", true),
            ("--cache", true),
            ("--out", true),
            ("--summary", true),
            ("--print-keys", false),
        ],
        0,
        &usage(),
    );
    Options {
        archs: cli.value("--archs").map_or_else(
            || ArchKind::ALL.to_vec(),
            |v| parse_list(v, "arch", arch_by_name),
        ),
        apps: cli
            .value("--apps")
            .map_or_else(all_apps, |v| parse_list(v, "app", by_name)),
        chips: cli.value("--chips").map_or_else(
            || vec![1],
            |v| parse_list(v, "chip count", |s| s.parse().ok()),
        ),
        seeds: cli.value("--seeds").map_or_else(
            || vec![DEFAULT_SEED],
            |v| parse_list(v, "seed", |s| s.parse().ok()),
        ),
        scales: cli.value("--scales").map_or_else(
            || vec![DEFAULT_SCALE],
            |v| parse_list(v, "scale", |s| s.parse().ok()),
        ),
        threads: cli
            .value("--threads")
            .map(|v| v.parse().unwrap_or_else(|_| fail("bad --threads"))),
        cache: cli.value("--cache").map(String::from),
        out: cli.value("--out").map(String::from),
        summary: cli.value("--summary").map(String::from),
        print_keys: cli.has("--print-keys"),
    }
}

fn build_cells(opt: &Options) -> Vec<RunSpec<'_>> {
    let mut cells = Vec::new();
    for &scale in &opt.scales {
        for &seed in &opt.seeds {
            for &n_chips in &opt.chips {
                check_size(scale, n_chips).unwrap_or_else(|e| fail(&e));
                for app in &opt.apps {
                    for &arch in &opt.archs {
                        cells.push(RunSpec::new(app, arch, n_chips, scale, seed));
                    }
                }
            }
        }
    }
    cells
}

/// The deterministic aggregate summary (no hit/miss/timing — those are
/// run-specific and go to stdout only).
fn summary(opt: &Options, cells: &[RunSpec], results: &[csmt_core::RunResult]) -> Value {
    let arch_names: Vec<&str> = opt.archs.iter().map(|a| a.name()).collect();
    let app_names: Vec<&str> = opt.apps.iter().map(|a| a.name).collect();
    let total_cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let total_committed: u64 = results.iter().map(|r| r.slots.committed).sum();
    Value::Object(vec![
        ("schema".into(), CACHE_SCHEMA.to_value()),
        ("cells".into(), cells.len().to_value()),
        ("archs".into(), arch_names.to_value()),
        ("apps".into(), app_names.to_value()),
        ("chips".into(), opt.chips.to_value()),
        ("seeds".into(), opt.seeds.to_value()),
        ("scales".into(), opt.scales.to_value()),
        ("total_cycles".into(), total_cycles.to_value()),
        ("total_committed".into(), total_committed.to_value()),
    ])
}

fn main() {
    let opt = parse_args();
    let cells = build_cells(&opt);
    if opt.print_keys {
        for cell in &cells {
            println!(
                "{:016x} {} {} chips={} seed={} scale={:?} sched={}",
                key(cell),
                cell.workload,
                cell.chip.kind().name(),
                cell.n_chips,
                cell.seed,
                cell.scale,
                cell.sched.name(),
            );
        }
        return;
    }

    let cache = match &opt.cache {
        Some(dir) => {
            Some(ResultCache::new(dir).unwrap_or_else(|e| fail(&format!("cache dir {dir:?}: {e}"))))
        }
        None => ResultCache::from_env(),
    };
    let threads = opt
        .threads
        .unwrap_or_else(|| SweepEngine::from_env().threads());
    let engine = SweepEngine::new(threads, cache);

    let mut out: Option<std::io::BufWriter<std::fs::File>> = opt.out.as_ref().map(|path| {
        std::io::BufWriter::new(
            std::fs::File::create(path)
                .unwrap_or_else(|e| fail(&format!("cannot create {path:?}: {e}"))),
        )
    });

    #[expect(
        clippy::disallowed_methods,
        reason = "cells/s status line on stdout only; the JSONL stream and summary carry no timing"
    )]
    let start = std::time::Instant::now();
    let outcome = engine.run_streaming(&cells, |i, result| {
        if let Some(w) = &mut out {
            writeln!(w, "{}", jsonl_line(&cells[i], result)).expect("JSONL write");
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    if let Some(mut w) = out {
        w.flush().expect("JSONL flush");
    }

    if let Some(path) = &opt.summary {
        let body = serde_json::to_string_pretty(&summary(&opt, &cells, &outcome.results))
            .expect("a Value always renders");
        std::fs::write(path, body + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write {path:?}: {e}")));
    }

    println!(
        "swept {} cells in {elapsed:.2}s ({:.1} cells/sec) on {} worker(s): {} hits, {} misses",
        cells.len(),
        cells.len() as f64 / elapsed.max(1e-9),
        engine.threads(),
        outcome.hits,
        outcome.misses,
    );
}
