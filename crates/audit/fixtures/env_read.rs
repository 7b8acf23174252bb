//! Seeded `env-read` violation for the csmt-audit self-test.
//!
//! Scanned as `crates/workloads/src/fixture.rs`; the audit must flag the
//! `env::var` read on line 8 and nothing else.

/// Reads a knob from the shell — results stop being a function of the arguments.
pub fn ambient_policy() -> String {
    std::env::var("CSMT_SCHED").unwrap_or_else(|_| "static".to_string())
}
