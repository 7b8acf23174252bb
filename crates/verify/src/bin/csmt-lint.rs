//! csmt-lint — static analysis gate for configurations and workloads.
//!
//! Validates all seven Table 2 chip configurations (plus the SMT8 alias)
//! with `ChipConfig::validate`, checks the scheduler-policy × architecture
//! matrix (dynamic policies must be rejected on fixed-assignment archs, a
//! zero rebalance quantum must be rejected everywhere), and materializes
//! and lints every application's instruction streams (register ranges,
//! dataflow live-ins, branch-target spans, sync balance).
//!
//! ```text
//! cargo run --release --bin csmt-lint [scale] [n_threads]
//! ```
//!
//! `scale` (default 0.02) sets the workload footprint, `n_threads`
//! (default 8) the thread count streams are built for. Exits non-zero if
//! any error-severity issue is found; warnings are informational.

use csmt_core::sched::{by_name, HazardPairing, POLICY_NAMES};
use csmt_core::{ArchKind, Machine};
use csmt_mem::MemConfig;
use csmt_verify::lint_app;
use csmt_workloads::all_apps;

/// Seed used by the figure binaries and golden tests.
const SEED: u64 = 0xC5_317;
/// Per-thread materialization bound, far above any `scale ≤ 1` stream.
const CAP: usize = 5_000_000;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map_or(0.02, |a| a.parse().expect("scale must be a float"));
    let n_threads: usize = args
        .next()
        .map_or(8, |a| a.parse().expect("n_threads must be an integer"));

    let mut errors = 0usize;
    let mut warnings = 0usize;

    println!("== chip configurations (Table 2) ==");
    for kind in ArchKind::ALL {
        match kind.chip().validate() {
            Ok(()) => println!("  {:<5} ok", kind.name()),
            Err(errs) => {
                for e in &errs {
                    println!("  {:<5} error: {e}", kind.name());
                }
                errors += errs.len();
            }
        }
    }

    println!("== scheduler policies ==");
    for kind in ArchKind::ALL {
        let fixed = kind.chip().cluster.hw_threads == 1;
        for name in POLICY_NAMES {
            let sched = by_name(name).expect("POLICY_NAMES entries resolve");
            let dynamic = sched.is_dynamic();
            let mut m = Machine::new(kind.chip(), 1, MemConfig::table3(), SEED);
            let accepted = m.set_scheduler(sched).is_ok();
            // Dynamic policies need migratable contexts: fixed-assignment
            // archs must reject them; everything else must accept.
            let want = !(fixed && dynamic);
            if accepted == want {
                println!(
                    "  {:<5} {name:<14} {}",
                    kind.name(),
                    if accepted { "ok" } else { "rejected (ok)" }
                );
            } else {
                println!(
                    "  {:<5} {name:<14} error: {} a {} policy",
                    kind.name(),
                    if accepted { "accepted" } else { "rejected" },
                    if dynamic { "dynamic" } else { "static" },
                );
                errors += 1;
            }
        }
        // A rebalance quantum of zero would re-run the policy every cycle
        // forever; the config layer must reject it on every architecture.
        let mut m = Machine::new(kind.chip(), 1, MemConfig::table3(), SEED);
        if m.set_scheduler(Box::new(HazardPairing::with_quantum(0)))
            .is_ok()
        {
            println!(
                "  {:<5} error: zero rebalance quantum accepted",
                kind.name()
            );
            errors += 1;
        }
    }

    println!("== workload streams (scale {scale}, {n_threads} threads, seed {SEED:#x}) ==");
    for app in all_apps() {
        let issues = lint_app(&app, n_threads, scale, SEED, CAP);
        let (errs, warns): (Vec<_>, Vec<_>) = issues.iter().partition(|i| i.is_error());
        println!(
            "  {:<8} {} error(s), {} warning(s)",
            app.name,
            errs.len(),
            warns.len()
        );
        for i in issues.iter().take(20) {
            println!("    {i}");
        }
        if issues.len() > 20 {
            println!("    … {} more", issues.len() - 20);
        }
        errors += errs.len();
        warnings += warns.len();
    }

    println!("csmt-lint: {errors} error(s), {warnings} warning(s)");
    if errors > 0 {
        std::process::exit(1);
    }
}
