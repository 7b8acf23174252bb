//! `csmt-audit.toml` — the audit's one configuration file.
//!
//! Two kinds of entries, both arrays of tables:
//!
//! * `[[allow]]` — suppress one rule in one file. `rule` and `path` are
//!   required, and so is a non-empty `justification`: a suppression
//!   without a written reason is itself a configuration error. Every
//!   entry must suppress at least one live finding — stale entries fail
//!   the run, so the allowlist can only shrink as code gets fixed.
//! * `[[seam]]` — a module registered as a *parallel seam*: the one
//!   place the concurrency rule permits `rayon`/`thread::spawn`/atomics
//!   inside sim crates. One is registered: the sweep engine's job pool
//!   (`crates/sweep/src/pool.rs`). A seam that covers no concurrency
//!   use is stale.
//!
//! The parser is a deliberately small TOML subset (comments, `[[table]]`
//! headers and `key = "string"`), hand-rolled
//! because the vendor tree carries no TOML crate.

/// One `[[allow]]` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule identifier the entry suppresses (e.g. `wall-clock`).
    pub rule: String,
    /// Workspace-relative file the suppression applies to.
    pub path: String,
    /// Written reason — required, non-empty.
    pub justification: String,
}

/// One `[[seam]]` parallel-seam registration.
#[derive(Debug, Clone)]
pub struct Seam {
    /// Workspace-relative file (or directory prefix) of the seam module.
    pub path: String,
    /// Written reason — required, non-empty.
    pub justification: String,
}

/// Parsed contents of `csmt-audit.toml`.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// All `[[allow]]` suppressions, in file order.
    pub allows: Vec<Allow>,
    /// All `[[seam]]` registrations, in file order.
    pub seams: Vec<Seam>,
}

/// A malformed configuration file (message includes the line number).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csmt-audit.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Key/value pairs of one table under construction.
#[derive(Default)]
struct RawTable {
    kind: String,
    line: usize,
    strings: Vec<(String, String)>,
}

impl RawTable {
    fn string(&self, key: &str) -> Option<&str> {
        self.strings
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<String, ConfigError> {
        match self.string(key) {
            Some(v) if !v.trim().is_empty() => Ok(v.to_owned()),
            Some(_) => Err(ConfigError(format!(
                "line {}: [[{}]] key `{key}` must not be empty",
                self.line, self.kind
            ))),
            None => Err(ConfigError(format!(
                "line {}: [[{}]] is missing required key `{key}`",
                self.line, self.kind
            ))),
        }
    }
}

impl AuditConfig {
    /// Parse the configuration text.
    ///
    /// # Errors
    /// Returns [`ConfigError`] on syntax the subset does not accept, on
    /// unknown table names, and on entries missing required keys (every
    /// `allow`/`seam` must carry a non-empty `justification`).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut tables: Vec<RawTable> = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_toml_comment(raw_line).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
                tables.push(RawTable {
                    kind: name.trim().to_owned(),
                    line: lineno,
                    ..RawTable::default()
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {lineno}: expected `[[table]]` or `key = value`, got `{line}`"
                )));
            };
            let Some(table) = tables.last_mut() else {
                return Err(ConfigError(format!(
                    "line {lineno}: `key = value` before any [[table]] header"
                )));
            };
            let key = key.trim().to_owned();
            let value = value.trim();
            let Some(s) = parse_string(value) else {
                return Err(ConfigError(format!(
                    "line {lineno}: value for `{key}` must be a \"string\""
                )));
            };
            table.strings.push((key, s));
        }

        let mut cfg = AuditConfig::default();
        for t in &tables {
            match t.kind.as_str() {
                "allow" => cfg.allows.push(Allow {
                    rule: t.required("rule")?,
                    path: t.required("path")?,
                    justification: t.required("justification")?,
                }),
                "seam" => cfg.seams.push(Seam {
                    path: t.required("path")?,
                    justification: t.required("justification")?,
                }),
                other => {
                    return Err(ConfigError(format!(
                        "line {}: unknown table [[{other}]] (expected allow or seam)",
                        t.line
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

/// Drop a trailing `# comment`, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `"text"` (no escapes needed in this config).
fn parse_string(value: &str) -> Option<String> {
    value
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_table_kinds() {
        let cfg = AuditConfig::parse(
            r#"
# comment
[[allow]]
rule = "wall-clock"          # inline comment
path = "crates/cpu/src/cluster.rs"
justification = "gated behind Wants::HOST_PHASES"

[[seam]]
path = "crates/core/src/par.rs"
justification = "future rayon phase"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "wall-clock");
        assert_eq!(cfg.seams.len(), 1);
    }

    #[test]
    fn missing_justification_is_an_error() {
        let err =
            AuditConfig::parse("[[allow]]\nrule = \"x\"\npath = \"y\"\n").expect_err("must fail");
        assert!(err.0.contains("justification"), "{err:?}");
    }

    #[test]
    fn empty_justification_is_an_error() {
        let err =
            AuditConfig::parse("[[allow]]\nrule = \"x\"\npath = \"y\"\njustification = \"  \"\n")
                .expect_err("must fail");
        assert!(err.0.contains("must not be empty"), "{err:?}");
    }

    #[test]
    fn unknown_table_is_an_error() {
        let err = AuditConfig::parse("[[nope]]\nrule = \"x\"\n").expect_err("must fail");
        assert!(err.0.contains("unknown table"), "{err:?}");
    }
}
