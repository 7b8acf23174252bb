//! `bench_gate` — fail CI when simulator throughput regresses.
//!
//! Compares a fresh `CSMT_BENCH_JSON` dump (from the `machine_step` or
//! `cluster_step` bench) against the committed `BENCH_*.json` baseline:
//!
//! ```text
//! bench_gate <fresh.json> <BENCH_baseline.json> [tolerance]
//! ```
//!
//! For every scenario in the baseline's `gate.results` (the smoke-mode
//! floor recorded for this purpose), `sched_overhead.results` and
//! `probe_overhead.results`, the fresh throughput must be at least
//! `(1 - tolerance)` of the recorded figure (tolerance in `[0, 1)`,
//! default 0.25 — generous because smoke mode is noisy and CI machines
//! are slower than the recording machine — so only real structural
//! regressions trip it, not scheduler jitter), and `cycles_per_run` must match *exactly*: a drifted cycle
//! count means simulated behavior changed, which no tolerance excuses.
//!
//! Exit status: 0 all gates pass, 1 regression or cycle drift, 2 bad
//! input. Driven by `scripts/bench_gate.sh`.

use serde::Value;

/// The throughput field of one result, fresh or recorded (0 if absent,
/// which fails the gate).
fn throughput(rec: &Value) -> f64 {
    rec.get("steps_per_sec")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn scenario(rec: &Value) -> &str {
    rec.get("scenario").and_then(Value::as_str).unwrap_or("?")
}

fn load(path: &str) -> Value {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: reading {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&body).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (Some(fresh_path), Some(base_path)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_gate <fresh.json> <BENCH_baseline.json> [tolerance]");
        std::process::exit(2);
    };
    let tolerance = match args.get(3).map(|text| (text, text.parse::<f64>())) {
        None => 0.25,
        Some((_, Ok(t))) if (0.0..1.0).contains(&t) => t,
        Some((text, _)) => {
            eprintln!("bench_gate: tolerance {text:?} is not a number in [0, 1)");
            std::process::exit(2);
        }
    };

    let fresh = load(fresh_path);
    let base = load(base_path);
    let Some(fresh_results) = fresh.as_array() else {
        eprintln!("bench_gate: {fresh_path} must be a JSON array of scenario results");
        std::process::exit(2);
    };
    // Every gating section present in the baseline contributes scenarios:
    // `gate` (the original smoke-mode floors), `sched_overhead` (the
    // scheduler-seam scenarios) and `probe_overhead` (a compute-bound app
    // under each per-instruction probe).
    let mut base_results: Vec<&Value> = Vec::new();
    for key in ["gate", "sched_overhead", "probe_overhead"] {
        if let Some(arr) = base
            .get(key)
            .and_then(|p| p.get("results"))
            .and_then(Value::as_array)
        {
            base_results.extend(arr);
        }
    }
    if base_results.is_empty() {
        eprintln!("bench_gate: {base_path} has no gate.results");
        std::process::exit(2);
    }

    let mut failures = 0u32;
    for b in base_results {
        let name = scenario(b);
        let Some(f) = fresh_results.iter().find(|f| scenario(f) == name) else {
            eprintln!("FAIL {name}: scenario missing from fresh results");
            failures += 1;
            continue;
        };
        let base_tp = throughput(b);
        let fresh_tp = throughput(f);
        let floor = base_tp * (1.0 - tolerance);
        let ratio = if base_tp > 0.0 {
            fresh_tp / base_tp
        } else {
            0.0
        };
        let base_cycles = b.get("cycles_per_run").and_then(Value::as_u64);
        let fresh_cycles = f.get("cycles_per_run").and_then(Value::as_u64);
        let cycles_ok = base_cycles == fresh_cycles;
        let tp_ok = fresh_tp >= floor;
        println!(
            "{} {name}: {fresh_tp:.0}/s vs baseline {base_tp:.0}/s ({:.0}%), cycles {} vs {}",
            if tp_ok && cycles_ok { "ok  " } else { "FAIL" },
            ratio * 100.0,
            fresh_cycles.map_or("?".into(), |c| c.to_string()),
            base_cycles.map_or("?".into(), |c| c.to_string()),
        );
        if !tp_ok {
            eprintln!(
                "  throughput regressed more than {:.0}% (floor {floor:.0}/s)",
                tolerance * 100.0
            );
            failures += 1;
        }
        if !cycles_ok {
            eprintln!("  cycles_per_run drifted: simulated behavior changed");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("bench_gate: {failures} gate failure(s)");
        std::process::exit(1);
    }
    println!("bench_gate: all scenarios within {:.0}%", tolerance * 100.0);
}
