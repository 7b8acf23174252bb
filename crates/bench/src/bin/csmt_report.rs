//! `csmt-report` — run one Table-2 arch × app cell with the
//! `csmt-metrics` collector attached and print the top-down bottleneck
//! breakdown, or replay a saved heartbeat JSONL stream.
//!
//! Usage:
//!
//! ```text
//! csmt-report [arch] [app] [scale] [chips]   (defaults: SMT2 mgrid 0.2 1)
//! csmt-report --from <heartbeat.jsonl>       (attribution from a stream)
//! csmt-report --help
//! ```
//!
//! Live runs print the stall-attribution tree, the latency/occupancy
//! histograms, and the IPC-timeline envelope. With `CSMT_METRICS_OUT`
//! set, the full JSON report and the Perfetto trace land in that
//! directory (drag the `perfetto_*.json` file into ui.perfetto.dev).
//! `--from` mode reconstructs the attribution tree and IPC timeline from
//! a heartbeat stream recorded earlier via `CSMT_TRACE_OUT` (histograms
//! need the live event stream, so the replay omits them). `--help`
//! doubles as the one-stop table of every `CSMT_*` environment knob.

use std::path::PathBuf;

use csmt_core::ArchKind;
use csmt_metrics::{AttributionTree, HostProfiler, MetricsProbe, MetricsReport};
use csmt_trace::HAZARD_LABELS;
use csmt_verify::InvariantProbe;
use csmt_workloads::{by_name, RunSpec};
use serde::Value;

fn usage() -> String {
    format!(
        "csmt-report: top-down bottleneck analysis for one arch x app cell\n\
         \n\
         usage:\n\
         \x20 csmt-report [arch] [app] [scale] [chips]   run one cell (defaults: SMT2 mgrid 0.2 1)\n\
         \x20 csmt-report --from <heartbeat.jsonl>       attribution from a saved heartbeat stream\n\
         \x20 csmt-report --help                         this text\n\
         \n\
         archs: {}\n\
         \n\
         {}",
        ArchKind::ALL.map(ArchKind::name).join(" "),
        csmt_bench::render_env_knobs()
    )
}

fn arch_by_name(name: &str) -> Option<ArchKind> {
    ArchKind::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Rebuild the attribution tree by telescoping a heartbeat JSONL stream:
/// raw slot counts across records sum to the run's final `SlotStats`
/// (the sampler guarantees this), so the replayed tree equals the live
/// one. Also returns the per-record `(cycle, ipc)` timeline.
fn replay_heartbeat(path: &str) -> (AttributionTree, Vec<(u64, f64)>) {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading heartbeat stream {path}: {e}"));
    let (mut useful, mut wasted) = (0.0f64, [0.0f64; 7]);
    let (mut slots, mut cycles, mut committed) = (0u64, 0u64, 0u64);
    let mut timeline = Vec::new();
    for (n, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("{path}:{}: bad heartbeat JSON: {e}", n + 1));
        let f = |key: &str| rec.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let u = |key: &str| rec.get(key).and_then(Value::as_u64).unwrap_or(0);
        useful += f("useful_slots");
        slots += u("slots");
        cycles += u("cycles");
        committed += u("committed");
        if let Some(w) = rec.get("wasted_slots") {
            for (i, label) in HAZARD_LABELS.iter().enumerate() {
                wasted[i] += w.get(label).and_then(Value::as_f64).unwrap_or(0.0);
            }
        }
        timeline.push((u("cycle"), f("ipc")));
    }
    (
        AttributionTree::from_slots(useful, &wasted, slots, cycles, committed),
        timeline,
    )
}

/// Write the JSON report and Perfetto trace into `$CSMT_METRICS_OUT`
/// (if set), returning the paths for the closing summary line.
fn export(report: &MetricsReport, arch: ArchKind, app: &str) -> Option<(PathBuf, PathBuf)> {
    let dir = PathBuf::from(std::env::var_os("CSMT_METRICS_OUT")?);
    std::fs::create_dir_all(&dir).expect("CSMT_METRICS_OUT must be creatable");
    let json = dir.join(format!("metrics_{}_{app}.json", arch.name()));
    let trace = dir.join(format!("perfetto_{}_{app}.json", arch.name()));
    report
        .write_json(&json)
        .expect("metrics JSON must be writable");
    report
        .write_perfetto(&trace)
        .expect("perfetto trace must be writable");
    Some((json, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if args.get(1).is_some_and(|a| a == "--from") {
        let path = args.get(2).unwrap_or_else(|| {
            eprintln!("{}", usage());
            std::process::exit(2);
        });
        let (tree, timeline) = replay_heartbeat(path);
        println!("== csmt-report: replay of {path} ==");
        print!("{}", tree.render_text());
        println!(
            "ipc timeline: {} heartbeat records (histograms need a live run)",
            timeline.len()
        );
        return;
    }

    let sched = csmt_bench::sched_from_env();
    let arch_name: String = csmt_bench::arg_or(1, "SMT2".into());
    let app_name: String = csmt_bench::arg_or(2, "mgrid".into());
    let scale: f64 = csmt_bench::arg_or(3, 0.2);
    let chips: usize = csmt_bench::arg_or(4, 1);
    let Some(arch) = arch_by_name(&arch_name) else {
        eprintln!("unknown arch {arch_name:?}\n\n{}", usage());
        std::process::exit(2);
    };
    let Some(app) = by_name(&app_name) else {
        eprintln!("unknown application {app_name:?}\n\n{}", usage());
        std::process::exit(2);
    };

    let self_profile = csmt_bench::env_flag("CSMT_SELF_PROFILE");
    let verify = csmt_bench::env_flag("CSMT_VERIFY");
    let mut probe = (
        MetricsProbe::new(csmt_bench::trace_interval_from_env()),
        (
            self_profile.then(HostProfiler::new),
            verify.then(|| InvariantProbe::new(&arch.chip(), chips)),
        ),
    );
    let r = RunSpec {
        sched,
        ..RunSpec::new(&app, arch, chips, scale, csmt_bench::FIGURE_SEED)
    }
    .run_probed(&mut probe);
    let (metrics, (profiler, invariants)) = probe;
    if let Some(inv) = invariants {
        let s = csmt_bench::exit_on_violations(arch, inv.finish());
        println!("verify: clean ({} events)", s.events);
    }
    let report = metrics.finish();

    println!(
        "== csmt-report: {} on {} ({} chip(s), scale {scale}, seed {:#x}) ==",
        app.name,
        arch.name(),
        chips,
        csmt_bench::FIGURE_SEED
    );
    println!(
        "cycles {}  committed {}  ipc {:.2}  threads {}",
        r.cycles,
        r.slots.committed,
        r.ipc(),
        r.threads
    );
    print!("{}", report.render_text());
    if let Some(p) = &profiler {
        print!("{}", p.render_text());
    }
    if let Some((json, trace)) = export(&report, arch, app.name) {
        println!("wrote {}", json.display());
        println!("wrote {} (drag into ui.perfetto.dev)", trace.display());
    }
}
