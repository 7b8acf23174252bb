//! `csmt-study` — the one front door for every EXPERIMENTS.md number:
//! runs one row of the study table (`csmt_bench::studies::STUDIES`).
//!
//! ```text
//! csmt-study <study> [scale] [--out <path>]
//! ```
//!
//! The grid runs through the sweep engine (`CSMT_SWEEP_THREADS` workers,
//! optional `CSMT_SWEEP_CACHE`): stdout is byte-identical at any worker
//! count, cached or not. `--out` also writes `csmt-sweep`'s deterministic
//! JSONL line per cell, in grid order.

use std::fmt::Write as _;
use std::io::Write as _;

use csmt_bench::render_env_knobs;
use csmt_bench::studies::{Setting, STUDIES};
use csmt_sweep::{check_size, fail, jsonl_line, Cli, SweepEngine};

fn usage() -> String {
    let mut out = String::from(
        "usage: csmt-study <study> [scale] [--out <path>]\n\
         \n\
         studies (default scale, then the seed of every cell):\n",
    );
    for s in STUDIES {
        let _ = writeln!(
            out,
            "  {:<20} {} {}",
            s.name, s.default_scale, s.default_seed
        );
    }
    let _ = write!(
        out,
        "\n\
         \x20 --out <path>      also write one JSONL line per cell (csmt-sweep's format)\n\
         \n\
         {}",
        render_env_knobs()
    );
    out
}

fn main() {
    let cli = Cli::parse(&[("--out", true)], 2, &usage());
    let name: String = cli.arg(0, String::new());
    let Some(study) = STUDIES.iter().find(|s| s.name == name) else {
        let names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
        fail(&format!(
            "unknown study {name:?} (valid studies: {})",
            names.join(", ")
        ));
    };
    let setting = Setting {
        scale: cli.arg(1, study.default_scale),
        seed: study.default_seed,
    };
    // A study picks its own machine sizes: only the scale comes from argv.
    check_size(setting.scale, 1).unwrap_or_else(|e| fail(&e));
    let mut out = cli.value("--out").map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        (path, std::io::BufWriter::new(file))
    });

    let engine = SweepEngine::from_env();
    let text = (study.run)(
        &mut |specs| {
            let outcome = engine.run_streaming(specs, |i, result| {
                if let Some((path, w)) = &mut out {
                    writeln!(w, "{}", jsonl_line(&specs[i], result))
                        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                }
            });
            outcome.results
        },
        setting,
    );
    if let Some((path, mut w)) = out {
        w.flush().unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    }
    print!("{text}");
}
