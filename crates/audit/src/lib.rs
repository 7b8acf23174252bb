//! # csmt-audit — workspace-wide determinism & hot-path static analysis
//!
//! Every number this reproduction publishes rests on bit-for-bit
//! determinism: the golden Table-2 digests, the migration
//! reproducibility proptest, and the Fig 9 comparisons are all
//! FNV digests over exact event order. This crate makes the project's
//! determinism contracts *machine-checked* instead of conventions in doc
//! comments, so a future PR cannot iterate a hash map, read the wall
//! clock or the environment, or spawn a thread in a sim crate without the
//! tier-1 gate noticing at lint time — not as a flaky digest weeks later.
//!
//! The analyzer is deliberately `syn`-free (the vendor tree carries no
//! parser): a [`lexer`] strips comments, strings, attributes and
//! `#[cfg(test)]` items while preserving byte offsets, and [`rules`]
//! pattern-match project-specific properties clippy cannot express on
//! the stripped text. See the module docs of [`rules`] for the rule
//! catalog and [`config`] for the `csmt-audit.toml` allowlist and seam
//! registries. DESIGN.md §14 documents the workflow.
//!
//! Run it as `cargo run -p csmt-audit --bin csmt-audit -- --deny-warnings`
//! (what `scripts/tier1.sh` and the CI `audit` job do), or call
//! [`audit_workspace`] programmatically (what `csmt-lint` does for its
//! summary line).

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{Allow, AuditConfig, ConfigError, Seam};
pub use rules::{Finding, Severity, RULE_IDS};

use std::path::{Path, PathBuf};

/// Name of the configuration file at the workspace root.
pub const CONFIG_FILE: &str = "csmt-audit.toml";

/// Outcome of a full workspace audit.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Findings suppressed by `[[allow]]` entries.
    pub suppressed: Vec<Finding>,
    /// Stale registry entries: `[[allow]]`s that suppressed nothing and
    /// `[[seam]]`s covering no concurrency use. Each is a description.
    pub stale: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings of error severity.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Findings of warning severity.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Whether the audit passes: no errors, no stale entries, and — when
    /// `deny_warnings` — no warnings either.
    #[must_use]
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && self.stale.is_empty() && (!deny_warnings || self.warnings() == 0)
    }

    /// One-line summary suitable for embedding in other tools' output.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "audit: {} file(s), {} error(s), {} warning(s), {} suppression(s), {} stale",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressed.len(),
            self.stale.len()
        )
    }
}

/// Audit one file's source text (rule scoping by `rel_path`, no
/// allowlist applied). This is the entry point the fixture tests drive.
#[must_use]
pub fn audit_source(rel_path: &str, source: &str, cfg: &AuditConfig) -> Vec<Finding> {
    rules::audit_stripped(rel_path, &lexer::strip(source), cfg)
}

/// Enumerate the first-party Rust sources under `root`: `src/` of the
/// root package and of every crate under `crates/` — not `vendor/`
/// (third-party stand-ins), not `tests/`/`benches/`/`examples/`
/// (host-side code that never feeds published digests), and not the
/// audit's own `fixtures/` (each fixture intentionally violates a rule).
/// Sorted for deterministic reports.
///
/// # Errors
/// Propagates I/O errors from directory traversal.
pub fn first_party_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the full audit over the workspace at `root` with configuration
/// `cfg`: scan every first-party source, apply the allowlist (tracking
/// which entries fire), and detect stale suppressions.
///
/// # Errors
/// Propagates I/O errors from reading source files.
pub fn audit_workspace(root: &Path, cfg: &AuditConfig) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut allow_hits = vec![0usize; cfg.allows.len()];
    let mut seam_hits = vec![0usize; cfg.seams.len()];

    for path in first_party_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        let stripped = lexer::strip(&source);

        // Seam-hit tracking: a registered seam is stale unless the file
        // it covers actually uses a concurrency primitive.
        for (i, seam) in cfg.seams.iter().enumerate() {
            if rel.starts_with(&seam.path) {
                seam_hits[i] += rules::concurrency_findings(&rel, &stripped).len();
            }
        }

        for f in rules::audit_stripped(&rel, &stripped, cfg) {
            let allowed = cfg
                .allows
                .iter()
                .position(|a| a.rule == f.rule && a.path == f.file);
            if let Some(i) = allowed {
                allow_hits[i] += 1;
                report.suppressed.push(f);
            } else {
                report.findings.push(f);
            }
        }
        report.files_scanned += 1;
    }

    for (i, a) in cfg.allows.iter().enumerate() {
        if allow_hits[i] == 0 {
            report.stale.push(format!(
                "[[allow]] {}:{} suppresses nothing — remove it (justification was: {})",
                a.rule, a.path, a.justification
            ));
        }
    }
    for (i, s) in cfg.seams.iter().enumerate() {
        if seam_hits[i] == 0 {
            report.stale.push(format!(
                "[[seam]] {} covers no concurrency use — remove it (justification was: {})",
                s.path, s.justification
            ));
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Load `csmt-audit.toml` from `root` and run [`audit_workspace`].
///
/// # Errors
/// Fails when the config file is missing/malformed or a source read
/// fails; the message is ready for user display.
pub fn audit_root(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = AuditConfig::parse(&text).map_err(|e| e.to_string())?;
    audit_workspace(root, &cfg).map_err(|e| format!("scan failed: {e}"))
}

/// The workspace root, assuming this crate sits at `<root>/crates/audit`
/// (how the repo lays out; the binary's `--root` flag overrides it).
#[must_use]
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}
