//! Diagnostic sweep (not a paper figure): one application across the five
//! Figure-4 architectures with full memory-system detail — the tool used to
//! calibrate the workload models against the paper's hazard profiles.
//!
//! Usage: `diagnose [app] [scale] [chips]` (defaults: vpenta, 0.3, 1);
//! `diagnose --help` prints usage plus the consolidated table of every
//! `CSMT_*` environment knob (`csmt_bench::ENV_KNOBS` — the same table
//! README.md documents). The knobs this binary honors: `CSMT_TRACE_OUT`
//! (heartbeat + Konata pipeview traces per architecture),
//! `CSMT_TRACE_INTERVAL`, `CSMT_VERIFY`, `CSMT_SELF_PROFILE` (host-phase
//! wall-clock profile, aggregated over the sweep), `CSMT_SCHED` (passed to
//! every run as `RunSpec::sched`, so a policy composes with the probes)
//! and `CSMT_JSON_DIR`.
//! See the Observability section of DESIGN.md.
//!
//! Always writes a machine-readable summary, `diagnose.json`, into
//! `CSMT_JSON_DIR` (or the current directory): per architecture the full
//! serialized `RunResult` plus the derived cycles/IPC/hazard-fraction
//! summary row.
use std::path::PathBuf;

use csmt_core::{ArchKind, RunResult};
use csmt_cpu::Hazard;
use csmt_trace::{IntervalSampler, PipeviewProbe};
use csmt_verify::InvariantProbe;
use csmt_workloads::{all_apps, by_name, RunSpec};
use serde::{Serialize, Value};

/// Keeps O3PipeView output bounded (~200 bytes/record).
const PIPEVIEW_MAX_RECORDS: u64 = 200_000;

/// The env-selected observers of one sweep (`CSMT_TRACE_*`, `CSMT_VERIFY`).
struct Observe {
    trace_dir: Option<PathBuf>,
    interval: u64,
    verify: bool,
}

fn observe_config() -> Observe {
    Observe {
        trace_dir: std::env::var_os("CSMT_TRACE_OUT").map(PathBuf::from),
        interval: csmt_bench::trace_interval_from_env(),
        verify: csmt_bench::env_flag("CSMT_VERIFY"),
    }
}

/// Drain an [`InvariantProbe`] after a run and print the clean summary
/// (violations exit 2).
fn check_invariants(probe: InvariantProbe, arch: ArchKind) {
    let s = csmt_bench::exit_on_violations(arch, probe.finish());
    println!(
        "      verify: clean ({} cycles, {} committed, {} events)",
        s.cycles, s.committed, s.events
    );
}

/// Run `spec` (one architecture), composing the requested observers.
/// `extra` is an additional probe threaded into every path (the host
/// self-profiler, or `NullProbe` — callers pick the monomorphization, so
/// the plain no-observer path still compiles to the uninstrumented
/// pipeline).
fn run_one<P: csmt_trace::Probe>(
    spec: RunSpec,
    arch: ArchKind,
    obs: &Observe,
    extra: &mut P,
) -> RunResult {
    let invariants = || InvariantProbe::new(&spec.chip, spec.n_chips);
    match (obs.trace_dir.as_ref(), obs.verify) {
        (None, false) => spec.run_probed(extra),
        (None, true) => {
            let mut probe = (invariants(), extra);
            let r = spec.run_probed(&mut probe);
            check_invariants(probe.0, arch);
            r
        }
        (Some(dir), verify) => {
            let mut probe = (
                (
                    (
                        IntervalSampler::create(
                            dir.join(format!("heartbeat_{}.jsonl", arch.name())),
                            obs.interval,
                        )
                        .expect("CSMT_TRACE_OUT must be writable"),
                        PipeviewProbe::with_limit(
                            std::io::BufWriter::new(
                                std::fs::File::create(
                                    dir.join(format!("pipeview_{}.trace", arch.name())),
                                )
                                .expect("CSMT_TRACE_OUT must be writable"),
                            ),
                            PIPEVIEW_MAX_RECORDS,
                        ),
                    ),
                    verify.then(invariants),
                ),
                extra,
            );
            let r = spec.run_probed(&mut probe);
            probe.0 .0 .0.finish().expect("heartbeat flush");
            probe.0 .0 .1.finish().expect("pipeview flush");
            if let Some(inv) = probe.0 .1 {
                check_invariants(inv, arch);
            }
            r
        }
    }
}

/// The summary row of one architecture: cycles, IPC, hazard fractions.
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
    ])
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!(
            "diagnose: one application across the five Figure-4 architectures\n\
             \n\
             usage: diagnose [app] [scale] [chips]   (defaults: vpenta 0.3 1)\n\
             \n\
             {}",
            csmt_bench::render_env_knobs()
        );
        return;
    }
    let sched = csmt_bench::sched_from_env();
    let app_name: String = csmt_bench::arg_or(1, "vpenta".into());
    let scale: f64 = csmt_bench::arg_or(2, 0.3);
    let chips: usize = csmt_bench::arg_or(3, 1);
    let Some(app) = by_name(&app_name) else {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        eprintln!(
            "error: unknown application {app_name:?} (valid applications: {})",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let obs = observe_config();
    let mut profiler =
        csmt_bench::env_flag("CSMT_SELF_PROFILE").then(csmt_metrics::HostProfiler::new);
    if let Some(dir) = &obs.trace_dir {
        std::fs::create_dir_all(dir).expect("CSMT_TRACE_OUT must be creatable");
    }

    let mut report = vec![
        ("app".to_string(), Value::Str(app.name.into())),
        ("scale".to_string(), Value::F64(scale)),
        ("chips".to_string(), Value::U64(chips as u64)),
    ];
    let mut summaries = Vec::new();
    for arch in [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt2,
    ] {
        // The profiler accumulates across the whole sweep; without it the
        // `NullProbe` monomorphization keeps the timers compiled out.
        let spec = RunSpec {
            sched,
            ..RunSpec::new(&app, arch, chips, scale, 1)
        };
        let r = if let Some(p) = profiler.as_mut() {
            run_one(spec, arch, &obs, p)
        } else {
            run_one(spec, arch, &obs, &mut csmt_trace::NullProbe)
        };
        let b = r.breakdown();
        println!(
            "{:<5} cycles={:>8} ipc={:.2} useful={:.1}% mem={:.1}% data={:.1}% sync={:.1}% fetch={:.1}% struct={:.1}%",
            arch.name(), r.cycles, r.ipc(), b[0]*100.0, b[3]*100.0, b[4]*100.0, b[6]*100.0, b[7]*100.0, b[2]*100.0
        );
        let m = &r.mem;
        println!(
            "      acc={} l1={} l2={} locmem={} merges={} tlb={} wb={} contention={} (per-acc {:.1})",
            m.accesses, m.l1_hits, m.l2_hits, m.local_mem, m.mshr_merges, m.tlb_misses, m.writebacks,
            m.contention_wait, m.contention_wait as f64 / m.accesses.max(1) as f64
        );
        summaries.push(summary_row(&r));
        report.push((format!("result_{}", arch.name()), r.to_value()));
    }
    report.push(("summary".to_string(), Value::Array(summaries)));
    if let Some(p) = &profiler {
        print!("{}", p.render_text());
        report.push(("host_profile".to_string(), p.to_value()));
    }

    let out_dir = std::env::var_os("CSMT_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_default();
    let path = out_dir.join("diagnose.json");
    let body =
        serde_json::to_string_pretty(&Value::Object(report)).expect("a Value always renders");
    std::fs::write(&path, body + "\n").expect("summary JSON must be writable");
    println!("wrote {}", path.display());
    if let Some(dir) = &obs.trace_dir {
        println!(
            "traces in {} (heartbeat_*.jsonl, pipeview_*.trace)",
            dir.display()
        );
    }
}
