//! The six audit rules.
//!
//! Everything here operates on [`lexer::strip`](crate::lexer::strip)ped
//! text, so comments, strings and test-only code can never trigger (or
//! hide) a finding. Each rule is scoped to the crates where its property
//! matters; see [`in_scope`] for the exact path prefixes.
//!
//! | id            | severity | property enforced                                  |
//! |---------------|----------|----------------------------------------------------|
//! | `map-iter`    | error    | no iteration over unordered hash containers in the |
//! |               |          | determinism core (`core`/`cpu`/`mem`/`isa`)        |
//! | `wall-clock`  | error    | no wall-clock/entropy reads outside allowlisted    |
//! |               |          | host-profiling sites                               |
//! | `env-read`    | error    | no environment reads in library crates: knobs are  |
//! |               |          | resolved at the binary edge and passed down        |
//! | `concurrency` | error    | no threads/locks/atomics in sim crates outside     |
//! |               |          | registered parallel seams                          |
//! | `probe-gate`  | error    | the simulator never calls `Probe::on` directly:    |
//! |               |          | every event goes through the gating `emit`         |
//! | `float-accum` | warning  | no order-sensitive float reduction over unordered  |
//! |               |          | containers (heuristic)                             |

use crate::config::AuditConfig;
use crate::lexer::line_of;

/// How severe a finding is: errors always fail the run, warnings only
/// under `--deny-warnings` (the heuristic rule reports warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Always fails the audit.
    Error,
    /// Fails only under `--deny-warnings` (tier-1 and CI pass it).
    Warning,
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`map-iter`, `wall-clock`, …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// Severity class of the rule that fired.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} — {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Every rule id, in reporting order.
pub const RULE_IDS: [&str; 6] = [
    "map-iter",
    "wall-clock",
    "env-read",
    "concurrency",
    "probe-gate",
    "float-accum",
];

/// Whether `rule` applies to the workspace-relative `path`. Scopes are
/// deliberate, not incidental:
///
/// * `map-iter` / `float-accum` — the crates whose execution order feeds
///   the golden digests (`core`, `cpu`, `mem`, `isa`; `float-accum` also
///   covers `workloads`, whose generators seed those runs).
/// * `wall-clock` — every first-party crate except `csmt-bench`, whose
///   entire job is measuring host wall-clock.
/// * `env-read` — every library crate below the binaries (the sim
///   crates, the observers and the sweep engine), excluding their
///   `src/bin/` mains: `csmt-bench` and the bins are the binary edge
///   where `CSMT_*` knobs are resolved.
/// * `concurrency` — the six sim crates plus the sweep engine (whose
///   work-stealing pool is a registered seam); observer crates
///   (`trace`, `metrics`, `verify`) and the bench harness run
///   host-side.
/// * `probe-gate` — the three crates that emit probe events.
#[must_use]
pub fn in_scope(rule: &str, path: &str) -> bool {
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| path.starts_with(p));
    match rule {
        "map-iter" => under(&[
            "crates/core/src/",
            "crates/cpu/src/",
            "crates/mem/src/",
            "crates/isa/src/",
        ]),
        "wall-clock" => {
            (path.starts_with("crates/") || path.starts_with("src/"))
                && !path.starts_with("crates/bench/")
        }
        "env-read" => {
            !path.contains("/src/bin/")
                && under(&[
                    "crates/core/src/",
                    "crates/cpu/src/",
                    "crates/mem/src/",
                    "crates/isa/src/",
                    "crates/workloads/src/",
                    "crates/model/src/",
                    "crates/trace/src/",
                    "crates/metrics/src/",
                    "crates/verify/src/",
                    "crates/sweep/src/",
                ])
        }
        "concurrency" => under(&[
            "crates/core/src/",
            "crates/cpu/src/",
            "crates/mem/src/",
            "crates/isa/src/",
            "crates/workloads/src/",
            "crates/model/src/",
            "crates/sweep/src/",
        ]),
        "probe-gate" => under(&["crates/core/src/", "crates/cpu/src/", "crates/mem/src/"]),
        "float-accum" => under(&[
            "crates/core/src/",
            "crates/cpu/src/",
            "crates/mem/src/",
            "crates/isa/src/",
            "crates/workloads/src/",
        ]),
        _ => false,
    }
}

/// Run every in-scope rule over one stripped file. `cfg` supplies the
/// seam registry (for `concurrency`); the allowlist is applied by the
/// caller, not here.
#[must_use]
pub fn audit_stripped(path: &str, stripped: &str, cfg: &AuditConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if in_scope("map-iter", path) {
        map_iter(path, stripped, &mut findings);
    }
    if in_scope("wall-clock", path) {
        wall_clock(path, stripped, &mut findings);
    }
    if in_scope("env-read", path) {
        env_read(path, stripped, &mut findings);
    }
    if in_scope("concurrency", path) && !cfg.seams.iter().any(|s| path.starts_with(&s.path)) {
        concurrency(path, stripped, &mut findings);
    }
    if in_scope("probe-gate", path) {
        probe_gate(path, stripped, &mut findings);
    }
    if in_scope("float-accum", path) {
        float_accum(path, stripped, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------
// Token utilities
// ---------------------------------------------------------------------

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All `(offset, ident)` tokens in `text`.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) && !bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            out.push((start, &text[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// Word-boundary occurrences of `needle` (which must start and end with
/// identifier characters) in `text`.
fn find_word(text: &str, needle: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(rel) = text[search..].find(needle) {
        let at = search + rel;
        search = at + 1;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
    }
    out
}

/// The identifier ending immediately before offset `at` (skipping
/// whitespace), e.g. the receiver's final path segment before a `.`.
fn ident_before(text: &str, at: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut j = at;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident(bytes[j - 1]) {
        j -= 1;
    }
    (j < end).then(|| &text[j..end])
}

/// Start offset of the statement containing `at`: one past the previous
/// `;`, `{` or `}`.
fn stmt_start(text: &str, at: usize) -> usize {
    text.as_bytes()[..at]
        .iter()
        .rposition(|&b| b == b';' || b == b'{' || b == b'}')
        .map_or(0, |p| p + 1)
}

// ---------------------------------------------------------------------
// Rule: map-iter
// ---------------------------------------------------------------------

/// Unordered container type names whose iteration order is not defined
/// by the key space. (`BTreeMap`/`BTreeSet` iterate in key order and are
/// always allowed.)
const MAP_TYPES: [&str; 4] = ["FxHashMap", "HashMap", "FxHashSet", "HashSet"];

/// Iteration-shaped methods on those containers.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers declared with an unordered-container type in this file:
/// `name: [&][mut] [path::]FxHashMap<…>` field/binding/parameter
/// ascriptions, plus `let [mut] name = FxHashMap::default()`-style
/// initializer bindings.
fn map_idents(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let register = |name: &str, out: &mut Vec<String>| {
        if !name.is_empty() && !out.iter().any(|n| n == name) {
            out.push(name.to_owned());
        }
    };
    for ty in MAP_TYPES {
        for at in find_word(text, ty) {
            // Walk back over `&`, `mut`, and `path::` prefixes to find a
            // potential `name :` ascription.
            let mut j = at;
            loop {
                while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if j >= 2 && &text[j - 2..j] == "::" {
                    j -= 2;
                    while j > 0 && is_ident(bytes[j - 1]) {
                        j -= 1;
                    }
                } else if j >= 1 && bytes[j - 1] == b'&' {
                    j -= 1;
                } else if j >= 3 && &text[j - 3..j] == "mut" && (j == 3 || !is_ident(bytes[j - 4]))
                {
                    j -= 3;
                } else {
                    break;
                }
            }
            if j >= 1 && bytes[j - 1] == b':' && (j < 2 || bytes[j - 2] != b':') {
                if let Some(name) = ident_before(text, j - 1) {
                    register(name, &mut out);
                    continue;
                }
            }
            // `let [mut] name = …FxHashMap::new()` — find the `let` of
            // this statement.
            let stmt = &text[stmt_start(text, at)..at];
            if let Some(let_at) = stmt.rfind("let ") {
                let after = stmt[let_at + 4..].trim_start();
                let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
                let end = after
                    .as_bytes()
                    .iter()
                    .position(|&b| !is_ident(b))
                    .unwrap_or(after.len());
                register(&after[..end], &mut out);
            }
        }
    }
    out
}

/// Rule `map-iter`: flag `m.iter()`-family calls and `for … in &m` loops
/// where `m` was declared as an unordered hash container in this file.
fn map_iter(path: &str, text: &str, findings: &mut Vec<Finding>) {
    let maps = map_idents(text);
    if maps.is_empty() {
        return;
    }
    let hit = |name: &str| maps.iter().any(|m| m == name);
    let bytes = text.as_bytes();
    for method in ITER_METHODS {
        for at in find_word(text, method) {
            if at == 0 || bytes[at - 1] != b'.' {
                continue;
            }
            if bytes.get(at + method.len()) != Some(&b'(') {
                continue;
            }
            let Some(recv) = ident_before(text, at - 1) else {
                continue;
            };
            if hit(recv) {
                findings.push(Finding {
                    rule: "map-iter",
                    file: path.to_owned(),
                    line: line_of(text, at),
                    severity: Severity::Error,
                    message: format!(
                        "`{recv}.{method}(…)` iterates an unordered hash container; the \
                         `csmt_isa::fxhash` contract is lookups/inserts/removals only — \
                         use a BTreeMap/Vec or sort before iterating"
                    ),
                });
            }
        }
    }
    for at in find_word(text, "for") {
        let Some(rest) = text.get(at + 3..) else {
            continue;
        };
        let Some(in_rel) = find_loop_in(rest) else {
            continue;
        };
        let expr_start = at + 3 + in_rel + 4;
        let Some(brace_rel) = text[expr_start..].find('{') else {
            continue;
        };
        let expr = text[expr_start..expr_start + brace_rel].trim();
        let expr = expr
            .strip_prefix("&mut ")
            .or_else(|| expr.strip_prefix('&'))
            .unwrap_or(expr)
            .trim();
        // Only a bare path (`self.barriers`, `m`): any method call or
        // indexing already chose an explicit iterator.
        if !expr.is_empty() && expr.bytes().all(|b| is_ident(b) || b == b'.' || b == b':') {
            let last = expr.rsplit(['.', ':']).next().unwrap_or(expr);
            if hit(last) {
                findings.push(Finding {
                    rule: "map-iter",
                    file: path.to_owned(),
                    line: line_of(text, at),
                    severity: Severity::Error,
                    message: format!(
                        "`for … in {expr}` iterates an unordered hash container; \
                         iteration order is not part of the simulation's defined behavior"
                    ),
                });
            }
        }
    }
}

/// Offset of the ` in ` keyword of a `for` loop within `rest` (the text
/// after `for`), or `None` when the body brace comes first.
fn find_loop_in(rest: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => return None,
            b' ' if depth == 0 && rest[i..].starts_with(" in ") => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------

/// Rule `wall-clock`: wall-clock and entropy reads make runs
/// irreproducible; only the host-profiling sites allowlisted in
/// `csmt-audit.toml` may use them (their readings flow into `host_phase`
/// events only, never into simulated state).
fn wall_clock(path: &str, text: &str, findings: &mut Vec<Finding>) {
    for (token, what) in [
        ("Instant", "host wall-clock read"),
        ("SystemTime", "host wall-clock read"),
        ("thread_rng", "OS-entropy RNG"),
        ("from_entropy", "OS-entropy seeding"),
    ] {
        for at in find_word(text, token) {
            if token == "Instant" && !text[at..].starts_with("Instant::now") {
                // Only the read is banned; naming the type (e.g. to pass
                // a caller's timestamp through) is fine.
                continue;
            }
            findings.push(Finding {
                rule: "wall-clock",
                file: path.to_owned(),
                line: line_of(text, at),
                severity: Severity::Error,
                message: format!(
                    "`{token}` is a {what}: simulation results must be a pure function \
                     of (config, workload, seed) — derive timing from the cycle counter \
                     and randomness from the seeded SplitMix64"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: env-read
// ---------------------------------------------------------------------

/// Rule `env-read`: an environment read below the binaries is a hidden
/// input — a variable left in a shell silently changes what every test,
/// bench and figure measures. Binaries resolve `CSMT_*` knobs once and
/// pass them down as arguments (`RunSpec::sched`, `SweepEngine::new`).
fn env_read(path: &str, text: &str, findings: &mut Vec<Finding>) {
    for token in ["env::var", "env::var_os", "env::vars", "env::vars_os"] {
        for at in find_word(text, token) {
            findings.push(Finding {
                rule: "env-read",
                file: path.to_owned(),
                line: line_of(text, at),
                severity: Severity::Error,
                message: format!(
                    "`{token}` reads the process environment inside a library crate: \
                     simulation results must be a pure function of (config, workload, \
                     seed) — read the knob in the binary's `main` and pass it down as \
                     an argument"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: concurrency
// ---------------------------------------------------------------------

/// Rule `concurrency`: sim crates stay single-threaded outside a
/// registered seam — shared-state primitives anywhere else make event
/// order schedule-dependent.
fn concurrency(path: &str, text: &str, findings: &mut Vec<Finding>) {
    let flag = |at: usize, token: &str, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            rule: "concurrency",
            file: path.to_owned(),
            line: line_of(text, at),
            severity: Severity::Error,
            message: format!(
                "`{token}` is a concurrency primitive inside a sim crate; parallel \
                 execution must go through a module registered as a [[seam]] in \
                 csmt-audit.toml"
            ),
        });
    };
    for token in ["rayon", "Mutex", "RwLock", "Condvar", "mpsc", "crossbeam"] {
        for at in find_word(text, token) {
            flag(at, token, findings);
        }
    }
    // `thread::spawn` / `thread::scope` path calls (a method or local
    // named `spawn` alone is not a primitive).
    for token in ["thread::spawn", "thread::scope"] {
        for at in find_word(text, token) {
            flag(at, token, findings);
        }
    }
    for (at, ident) in idents(text) {
        if ident.starts_with("Atomic") && ident.len() > "Atomic".len() {
            flag(at, ident, findings);
        }
    }
    findings.sort_by_key(|f| f.line);
}

/// Concurrency findings for one in-scope file *ignoring* the seam
/// registry — the workspace driver uses this to prove a registered seam
/// actually covers concurrency use (an unused seam is stale).
#[must_use]
pub fn concurrency_findings(path: &str, stripped: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_scope("concurrency", path) {
        concurrency(path, stripped, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// Rule: probe-gate
// ---------------------------------------------------------------------

/// Rule `probe-gate`: `csmt_trace::emit` is the one place that tests
/// `P::WANTS` before delivering an event, so a direct `.on(…)` call from
/// an emitting crate is an ungated emission — it would hand a probe a
/// channel it never asked for and change the golden digests' stream.
fn probe_gate(path: &str, text: &str, findings: &mut Vec<Finding>) {
    for (at, _) in text.match_indices(".on(") {
        findings.push(Finding {
            rule: "probe-gate",
            file: path.to_owned(),
            line: line_of(text, at),
            severity: Severity::Error,
            message: "direct `.on(…)` call bypasses the `P::WANTS` gate — emit through \
                      `csmt_trace::emit(probe, channel, || Event::…)`"
                .to_owned(),
        });
    }
}

// ---------------------------------------------------------------------
// Rule: float-accum
// ---------------------------------------------------------------------

/// Float-reduction triggers whose result depends on operand order.
const FLOAT_REDUCERS: [&str; 6] = [
    ".sum::<f64>()",
    ".sum::<f32>()",
    ".fold(0.0",
    ".fold(0f64",
    ".fold(0.0f64",
    ".fold(0f32",
];

/// Rule `float-accum` (heuristic, warning): a float `sum`/`fold` in the
/// same statement as an unordered-container iteration accumulates in an
/// unspecified order — `f64` addition is not associative, so the result
/// is not a function of the container's contents.
fn float_accum(path: &str, text: &str, findings: &mut Vec<Finding>) {
    let maps = map_idents(text);
    for trigger in FLOAT_REDUCERS {
        let mut search = 0;
        while let Some(rel) = text[search..].find(trigger) {
            let at = search + rel;
            search = at + trigger.len();
            let stmt = &text[stmt_start(text, at)..at];
            let map_iter_in_stmt = ITER_METHODS.iter().any(|m| {
                let needle = format!(".{m}(");
                stmt.match_indices(&needle).any(|(p, _)| {
                    ident_before(stmt, p).is_some_and(|r| maps.iter().any(|n| n == r))
                })
            });
            let unordered_collect = MAP_TYPES.iter().any(|ty| stmt.contains(ty));
            if map_iter_in_stmt || unordered_collect {
                findings.push(Finding {
                    rule: "float-accum",
                    file: path.to_owned(),
                    line: line_of(text, at),
                    severity: Severity::Warning,
                    message: format!(
                        "float reduction `{}` over an unordered container: f64 addition \
                         is order-sensitive, so collect into a Vec and sort (or keep an \
                         ordered container) before accumulating",
                        trigger.trim_start_matches('.')
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    #[test]
    fn map_iter_fires_on_field_iteration() {
        let src = "struct S { barriers: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for k in &self.barriers { g(k); } } }";
        let f = audit_stripped("crates/core/src/x.rs", &strip(src), &AuditConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "map-iter");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn map_iter_fires_on_method_iteration() {
        let src = "fn f(m: &mut FxHashMap<u64, u32>) { m.retain(|_, v| *v > 0); }";
        let f = audit_stripped("crates/mem/src/x.rs", &strip(src), &AuditConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "map-iter");
    }

    #[test]
    fn map_iter_ignores_vec_receivers_and_btreemap() {
        let src = "struct S { wheel: BTreeMap<u64, u32>, v: Vec<u32> }\n\
                   impl S { fn f(&self) { for k in &self.wheel {} let _ = self.v.iter(); } }";
        let f = audit_stripped("crates/core/src/x.rs", &strip(src), &AuditConfig::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn map_iter_ignores_test_modules() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   #[cfg(test)]\nmod tests { fn t(s: &super::S) { for k in &s.m {} } }";
        let f = audit_stripped("crates/core/src/x.rs", &strip(src), &AuditConfig::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_fires_on_instant_now_but_not_type_mention() {
        let src = "fn f() -> u64 { let t = std::time::Instant::now(); 0 }\n\
                   fn g(at: std::time::Instant) {}";
        let f = audit_stripped("crates/cpu/src/x.rs", &strip(src), &AuditConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn env_read_fires_in_libraries_but_not_in_their_bins() {
        let src = "fn f() -> bool { std::env::var_os(\"CSMT_SCHED\").is_some() }\n\
                   fn g() -> Vec<String> { std::env::args().collect() }";
        let cfg = AuditConfig::default();
        let f = audit_stripped("crates/core/src/sched.rs", &strip(src), &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "env-read");
        assert_eq!(f[0].line, 1);
        for edge in [
            "crates/sweep/src/bin/csmt_sweep.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert!(audit_stripped(edge, &strip(src), &cfg).is_empty(), "{edge}");
        }
    }

    #[test]
    fn concurrency_respects_seam_registry() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); }";
        let cfg = AuditConfig::parse(
            "[[seam]]\npath = \"crates/core/src/par\"\njustification = \"parallel phase\"\n",
        )
        .expect("valid");
        let hit = audit_stripped("crates/core/src/other.rs", &strip(src), &cfg);
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert_eq!(hit[0].rule, "concurrency");
        let exempt = audit_stripped("crates/core/src/par/worker.rs", &strip(src), &cfg);
        assert!(exempt.is_empty(), "{exempt:?}");
    }

    #[test]
    fn probe_gate_bans_direct_on_calls_but_not_emit() {
        let bad = "fn f<P: Probe>(probe: &mut P) { probe.on(&Event::Migration(e)); }";
        let good = "fn f<P: Probe>(probe: &mut P) {\n    \
                    emit(probe, Wants::SCHED, || Event::Migration(e));\n}";
        let cfg = AuditConfig::default();
        let f = audit_stripped("crates/core/src/x.rs", &strip(bad), &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "probe-gate");
        assert!(audit_stripped("crates/core/src/x.rs", &strip(good), &cfg).is_empty());
    }

    #[test]
    fn float_accum_warns_on_map_values_sum() {
        let src = "fn f(m: &FxHashMap<u64, f64>) -> f64 { m.values().sum::<f64>() }";
        let f = audit_stripped(
            "crates/workloads/src/x.rs",
            &strip(src),
            &AuditConfig::default(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-accum");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn float_accum_allows_slice_sum() {
        let src = "fn f(w: &[f64]) -> f64 { w.iter().sum::<f64>() }";
        let f = audit_stripped(
            "crates/workloads/src/x.rs",
            &strip(src),
            &AuditConfig::default(),
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
