//! Fixture-driven self-test of the audit rules, plus the clean-tree
//! check over the real workspace.
//!
//! Each file under `crates/audit/fixtures/` seeds exactly one violation
//! of one rule; the tests assert the audit reports that rule — with the
//! exact rule id, file, and line — and nothing else. The fixtures are
//! scanned under *virtual* workspace paths chosen so only the rule under
//! test is in scope. All tests run against the real `csmt-audit.toml`.

use csmt_audit::{audit_root, audit_source, AuditConfig, Severity};

/// The production configuration at the workspace root.
fn real_cfg() -> AuditConfig {
    AuditConfig::parse(include_str!("../../../csmt-audit.toml")).expect("workspace config parses")
}

/// Audit `source` under the virtual path `rel`, asserting exactly one
/// finding and returning it.
fn single_finding(rel: &str, source: &str) -> csmt_audit::Finding {
    let mut findings = audit_source(rel, source, &real_cfg());
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one finding in {rel}, got {findings:?}"
    );
    findings.pop().expect("just checked")
}

#[test]
fn fixture_map_iter_fires_with_exact_span() {
    let f = single_finding(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/map_iter.rs"),
    );
    assert_eq!(f.rule, "map-iter");
    assert_eq!(f.file, "crates/core/src/fixture.rs");
    assert_eq!(f.line, 10);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(
        f.to_string().split(" — ").next().expect("has location"),
        "map-iter:crates/core/src/fixture.rs:10"
    );
}

#[test]
fn fixture_wall_clock_fires_with_exact_span() {
    let f = single_finding(
        "crates/cpu/src/fixture.rs",
        include_str!("../fixtures/wall_clock.rs"),
    );
    assert_eq!(f.rule, "wall-clock");
    assert_eq!(f.file, "crates/cpu/src/fixture.rs");
    assert_eq!(f.line, 8);
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn fixture_env_read_fires_with_exact_span() {
    let f = single_finding(
        "crates/workloads/src/fixture.rs",
        include_str!("../fixtures/env_read.rs"),
    );
    assert_eq!(f.rule, "env-read");
    assert_eq!(f.file, "crates/workloads/src/fixture.rs");
    assert_eq!(f.line, 8);
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn fixture_concurrency_fires_with_exact_span() {
    let f = single_finding(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/concurrency.rs"),
    );
    assert_eq!(f.rule, "concurrency");
    assert_eq!(f.file, "crates/core/src/fixture.rs");
    assert_eq!(f.line, 9);
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn fixture_probe_gate_fires_with_exact_span() {
    let f = single_finding(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/probe_gate.rs"),
    );
    assert_eq!(f.rule, "probe-gate");
    assert_eq!(f.file, "crates/core/src/fixture.rs");
    assert_eq!(f.line, 9);
    assert_eq!(f.severity, Severity::Error);
    assert!(
        f.message.contains("csmt_trace::emit"),
        "message names the fix: {}",
        f.message
    );
}

#[test]
fn fixture_float_accum_warns_with_exact_span() {
    let f = single_finding(
        "crates/workloads/src/fixture.rs",
        include_str!("../fixtures/float_accum.rs"),
    );
    assert_eq!(f.rule, "float-accum");
    assert_eq!(f.file, "crates/workloads/src/fixture.rs");
    assert_eq!(f.line, 10);
    assert_eq!(f.severity, Severity::Warning);
}

#[test]
fn fixtures_stay_quiet_out_of_scope() {
    // The same seeded sources under a path no rule covers must produce
    // nothing — rule scoping, not luck, keeps host-side code out.
    for src in [
        include_str!("../fixtures/map_iter.rs"),
        include_str!("../fixtures/wall_clock.rs"),
        include_str!("../fixtures/env_read.rs"),
        include_str!("../fixtures/concurrency.rs"),
        include_str!("../fixtures/probe_gate.rs"),
        include_str!("../fixtures/float_accum.rs"),
    ] {
        let f = audit_source("crates/bench/src/fixture.rs", src, &real_cfg());
        assert!(f.is_empty(), "bench-scoped scan should be clean: {f:?}");
    }
}

#[test]
fn real_workspace_is_clean_with_no_stale_entries() {
    let root = csmt_audit::default_root();
    let report = audit_root(&root).expect("workspace audit runs");
    assert!(
        report.findings.is_empty(),
        "workspace must audit clean (fix the code or add a justified \
         [[allow]]): {:?}",
        report.findings
    );
    assert!(
        report.stale.is_empty(),
        "registry entries that match nothing must be removed: {:?}",
        report.stale
    );
    assert!(report.files_scanned > 50, "scan actually covered the tree");
    assert!(report.is_clean(true));
}
