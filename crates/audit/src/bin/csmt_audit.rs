//! `csmt-audit` — run the determinism & hot-path static analysis over
//! the workspace.
//!
//! ```text
//! usage: csmt-audit [--root <path>] [--deny-warnings] [--list-rules]
//!
//!   --root <path>     workspace root (default: auto-detected)
//!   --deny-warnings   treat heuristic warnings as failures (tier-1/CI)
//!   --list-rules      print the rule catalog and exit
//! ```
//!
//! Exit codes follow the `CSMT_VERIFY` convention: 0 clean, 2 on any
//! violation or stale suppression (and on warnings under
//! `--deny-warnings`), 1 on usage or I/O errors.

use csmt_audit::{audit_root, default_root, Severity, RULE_IDS};
use std::path::PathBuf;

fn usage() -> &'static str {
    "usage: csmt-audit [--root <path>] [--deny-warnings] [--list-rules]\n\
     \n\
     Scans all first-party crates for determinism violations: hash-map\n\
     iteration in the sim core, wall-clock/entropy reads, environment\n\
     reads below the binaries, unregistered concurrency, ungated probe\n\
     emissions, order-sensitive float accumulation. Suppressions live\n\
     in csmt-audit.toml and each needs a written justification; unused\n\
     entries fail the run.\n\
     \n\
     Exit: 0 clean; 2 violations/stale (or warnings with --deny-warnings);\n\
     1 usage/IO error.\n"
}

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut deny_warnings = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("--root needs a path\n\n{}", usage());
                    std::process::exit(1);
                };
                root = Some(PathBuf::from(p));
            }
            "--deny-warnings" => deny_warnings = true,
            "--list-rules" => {
                for id in RULE_IDS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n\n{}", usage());
                std::process::exit(1);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);

    let report = match audit_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("csmt-audit: {e}");
            std::process::exit(1);
        }
    };

    for f in &report.findings {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        println!("{sev}: {f}");
    }
    for s in &report.stale {
        println!("stale: {s}");
    }
    println!("csmt-audit: {}", report.summary());

    if report.is_clean(deny_warnings) {
        println!("csmt-audit: clean");
    } else {
        std::process::exit(2);
    }
}
