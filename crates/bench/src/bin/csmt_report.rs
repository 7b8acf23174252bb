//! `csmt-report` — the probed-cell command: run one application on one
//! or more Table-2 architectures with the `csmt-metrics` collector
//! attached and print, per architecture, the cycle and memory-system
//! summary plus the top-down bottleneck breakdown.
//!
//! ```text
//! csmt-report [arch[,arch…]] [app] [scale] [chips]   (defaults: SMT2 mgrid 0.2 1)
//!             [--verify] [--profile] [--out <dir>]
//! ```
//!
//! `--verify` attaches csmt-verify's `InvariantProbe` (exit 2 on any
//! violation); `--profile` times the simulator's own phases over the whole
//! run; `--out <dir>` writes every artifact into `<dir>`: per
//! architecture `metrics_<arch>_<app>.json` (the attribution tree),
//! `heartbeat_<arch>.jsonl` + `pipeview_<arch>.trace` (Konata), and
//! `report.json` (every architecture's full `RunResult` and summary row).
//! Input from outside the program — a bad or surplus argument, an
//! unwritable `--out` — exits 2 with a diagnosis.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use csmt_bench::FIGURE_SEED;
use csmt_core::{ArchKind, RunResult};
use csmt_cpu::Hazard;
use csmt_metrics::{HostProfiler, MetricsProbe};
use csmt_sweep::{arch_by_name, check_size, fail, Cli};
use csmt_trace::{IntervalSampler, PipeviewProbe};
use csmt_verify::InvariantProbe;
use csmt_workloads::{all_apps, by_name, RunSpec};
use serde::{Serialize, Value};

/// Heartbeat interval in cycles.
const TRACE_INTERVAL: u64 = 1000;
/// Keeps O3PipeView output bounded (~200 bytes/record).
const PIPEVIEW_MAX_RECORDS: u64 = 200_000;

fn usage() -> String {
    format!(
        "csmt-report: top-down bottleneck analysis of one app on one or more archs\n\
         \n\
         usage:\n\
         \x20 csmt-report [arch[,arch…]] [app] [scale] [chips]   (defaults: SMT2 mgrid 0.2 1)\n\
         \x20             [--verify] [--profile] [--out <dir>]\n\
         \n\
         \x20 --verify          attach the invariant checker; exit 2 on any violation\n\
         \x20 --profile         print where the simulator's own host time went\n\
         \x20 --out <dir>       write metrics JSON, heartbeat + pipeview traces per\n\
         \x20                   arch, and report.json, into <dir>\n\
         \n\
         archs: {}\n",
        ArchKind::ALL.map(ArchKind::name).join(" "),
    )
}

/// `<path>: <error>` and exit 2.
fn fail_at(path: &Path, e: impl std::fmt::Display) -> ! {
    fail(&format!("{}: {e}", path.display()))
}

/// The summary row of one architecture: cycles, IPC, hazard fractions,
/// and the full result.
fn summary_row(r: &RunResult) -> Value {
    let b = r.breakdown();
    let mut hazards = vec![("useful".to_string(), Value::F64(b[0]))];
    for h in Hazard::ALL {
        hazards.push((h.label().to_string(), Value::F64(b[1 + h.index()])));
    }
    Value::Object(vec![
        ("arch".into(), Value::Str(r.arch.clone())),
        ("cycles".into(), Value::U64(r.cycles)),
        ("ipc".into(), Value::F64(r.ipc())),
        ("fractions".into(), Value::Object(hazards)),
        ("result".into(), r.to_value()),
    ])
}

/// The heartbeat sampler and pipeview writer of one architecture's run
/// under `--out <dir>`.
fn traces(dir: &Path, arch: ArchKind) -> (IntervalSampler, PipeviewProbe<BufWriter<File>>) {
    let heartbeat = dir.join(format!("heartbeat_{}.jsonl", arch.name()));
    let pipeview = dir.join(format!("pipeview_{}.trace", arch.name()));
    let sampler = IntervalSampler::create(&heartbeat, TRACE_INTERVAL)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let file = File::create(&pipeview).unwrap_or_else(|e| fail_at(&pipeview, e));
    let pipeview = PipeviewProbe::with_limit(BufWriter::new(file), PIPEVIEW_MAX_RECORDS);
    (sampler, pipeview)
}

fn main() {
    let cli = Cli::parse(
        &[("--verify", false), ("--profile", false), ("--out", true)],
        4,
        &usage(),
    );
    let arch_list: String = cli.arg(0, "SMT2".into());
    let archs: Vec<ArchKind> = arch_list
        .split(',')
        .map(|name| {
            arch_by_name(name).unwrap_or_else(|| {
                let names = ArchKind::ALL.map(ArchKind::name).join(", ");
                fail(&format!(
                    "unknown architecture {name:?} (valid architectures: {names})"
                ))
            })
        })
        .collect();
    let app_name: String = cli.arg(1, "mgrid".into());
    let scale: f64 = cli.arg(2, 0.2);
    let chips: usize = cli.arg(3, 1);
    check_size(scale, chips).unwrap_or_else(|e| fail(&e));
    let Some(app) = by_name(&app_name) else {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        fail(&format!(
            "unknown application {app_name:?} (valid applications: {})",
            names.join(", ")
        ));
    };
    let verify = cli.has("--verify");
    let out: Option<PathBuf> = cli.value("--out").map(|dir| {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail_at(&dir, e));
        dir
    });
    // One profiler over every architecture's run.
    let mut profiler = cli.has("--profile").then(HostProfiler::new);

    let mut summaries = Vec::new();
    let mut written = Vec::new();
    for (i, &arch) in archs.iter().enumerate() {
        let spec = RunSpec::new(&app, arch, chips, scale, FIGURE_SEED);
        let mut probe = (
            MetricsProbe::default(),
            (
                profiler.as_mut(),
                (
                    verify.then(|| InvariantProbe::new(&spec.chip, chips)),
                    out.as_deref().map(|dir| traces(dir, arch)),
                ),
            ),
        );
        let r = spec.run_probed(&mut probe);
        let (metrics, (_, (invariants, traces))) = probe;
        let report = metrics.finish();

        if i > 0 {
            println!();
        }
        println!(
            "== csmt-report: {} on {} ({chips} chip(s), scale {scale}, seed {FIGURE_SEED:#x}) ==",
            app.name,
            arch.name(),
        );
        println!(
            "cycles {}  committed {}  ipc {:.2}  threads {}",
            r.cycles,
            r.slots.committed,
            r.ipc(),
            r.threads
        );
        let m = &r.mem;
        println!(
            "memory: acc={} l1={} l2={} locmem={} merges={} tlb={} wb={} contention={} (per-acc {:.1})",
            m.accesses, m.l1_hits, m.l2_hits, m.local_mem, m.mshr_merges, m.tlb_misses, m.writebacks,
            m.contention_wait, m.contention_wait as f64 / m.accesses.max(1) as f64
        );
        // A run that breaks the machine's own invariants has nothing
        // trustworthy to report: the first ten violations, then exit 2.
        match invariants.map(InvariantProbe::finish) {
            None => {}
            Some(Ok(s)) => println!("verify: clean ({} events)", s.events),
            Some(Err(violations)) => {
                eprintln!(
                    "{}: {} invariant violation(s):",
                    arch.name(),
                    violations.len()
                );
                for v in violations.iter().take(10) {
                    eprintln!("  {v}");
                }
                std::process::exit(2);
            }
        }
        print!("{}", report.render_text());

        if let Some(dir) = &out {
            let (mut heartbeat, mut pipeview) = traces.expect("--out attaches the traces");
            heartbeat.finish().unwrap_or_else(|e| fail_at(dir, e));
            pipeview.finish().unwrap_or_else(|e| fail_at(dir, e));
            let json = dir.join(format!("metrics_{}_{}.json", arch.name(), app.name));
            report
                .write_json(&json)
                .unwrap_or_else(|e| fail_at(&json, e));
            written.push(json);
            summaries.push(summary_row(&r));
        }
    }
    if let Some(p) = &profiler {
        print!("{}", p.render_text());
    }
    if let Some(dir) = &out {
        let mut report = vec![
            ("app".to_string(), app.name.to_value()),
            ("scale".to_string(), scale.to_value()),
            ("chips".to_string(), chips.to_value()),
            ("seed".to_string(), FIGURE_SEED.to_value()),
            ("archs".to_string(), Value::Array(summaries)),
        ];
        if let Some(p) = &profiler {
            report.push(("host_profile".to_string(), p.to_value()));
        }
        let path = dir.join("report.json");
        let body =
            serde_json::to_string_pretty(&Value::Object(report)).expect("a Value always renders");
        std::fs::write(&path, body + "\n").unwrap_or_else(|e| fail_at(&path, e));
        written.push(path);
        for path in written {
            println!("wrote {}", path.display());
        }
        println!(
            "traces in {} (heartbeat_*.jsonl, pipeview_*.trace)",
            dir.display()
        );
    }
}
