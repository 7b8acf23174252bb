//! csmt-lint — static analysis gate for the workload streams.
//!
//! Materializes and lints every application's instruction streams
//! (register ranges, dataflow live-ins, branch-target spans, sync
//! balance).
//!
//! ```text
//! cargo run --release --bin csmt-lint [scale] [n_threads]
//! ```
//!
//! `scale` (default 0.02) sets the workload footprint, `n_threads`
//! (default 8) the thread count streams are built for. Exits non-zero if
//! any error-severity issue is found; warnings are informational. An
//! argument that does not parse, a scale that is not finite and above 0,
//! 0 threads, or a third argument, exits 2 with a diagnosis.

use csmt_verify::lint_app;
use csmt_workloads::all_apps;

/// Seed used by the figure binaries and golden tests.
const SEED: u64 = 0xC5_317;
/// Per-thread materialization bound, far above any `scale ≤ 1` stream.
const CAP: usize = 5_000_000;

/// Print `error: <msg>` and exit 2: bad input is a diagnosis, never a
/// panic or a silent default.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Argument `n` (1-based) as a `T`; absent means `default`.
fn arg<T: std::str::FromStr>(args: &[String], n: usize, default: T) -> T {
    let Some(text) = args.get(n - 1) else {
        return default;
    };
    text.parse().unwrap_or_else(|_| {
        fail(&format!(
            "argument {n} {text:?} is not a valid {}",
            std::any::type_name::<T>()
        ))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(2) {
        fail(&format!(
            "unexpected argument 3 {extra:?} (usage: csmt-lint [scale] [n_threads])"
        ));
    }
    let scale: f64 = arg(&args, 1, 0.02);
    let n_threads: usize = arg(&args, 2, 8);
    if !(scale.is_finite() && scale > 0.0) {
        fail(&format!("scale {scale} is not a finite number above 0"));
    }
    if n_threads == 0 {
        fail("streams need at least 1 thread");
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;

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
