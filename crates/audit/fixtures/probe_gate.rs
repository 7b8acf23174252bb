//! Seeded `probe-gate` violation for the csmt-audit self-test.
//!
//! Scanned as `crates/core/src/fixture.rs`; the simulator must deliver
//! events through `csmt_trace::emit`, which tests `P::WANTS` — the direct
//! `on` call below skips the gate, so the audit must flag line 9 and
//! nothing else.

pub fn emit_ungated<P: Probe>(probe: &mut P, e: MigrationEvent) {
    probe.on(&Event::Migration(e));
}
