//! # csmt-verify — invariant checking and static analysis for the simulator
//!
//! The paper's claims rest on resource partitioning being enforced exactly
//! (Table 2 budgets, no cross-cluster bypass) and on the §4.1 wasted-slot
//! accounting being conservative. This crate gives both teeth:
//!
//! * [`InvariantProbe`] — a [`csmt_trace::Probe`] that validates
//!   microarchitectural invariants cycle by cycle on the live event
//!   stream: per-thread in-order commit, window/rename occupancy against
//!   the Table 2 budgets, rename-register conservation, per-cycle issue ≤
//!   cluster width, `fetched == committed + squashed` at drain, §4.1
//!   hazard-slot conservation, and cluster confinement (no wakeup crosses
//!   a cluster boundary). Every violation is collected as a structured
//!   [`Violation`] report.
//! * [`lint`] — stream-level static analysis of the synthetic workloads
//!   (dangling sources, out-of-span branch targets, unbalanced sync),
//!   driven by the `csmt-lint` binary.
//! * [`digest`] — the canonical FNV-1a event-stream digest behind every
//!   bit-for-bit claim: [`EventDigest`], what the golden digests pin;
//! * [`golden`] — the pinned values of those digests.
//!
//! The checker rides the zero-cost probe layer: a `NullProbe` build
//! contains none of it, and the golden-determinism digests are unchanged
//! by its existence. Attaching it costs an event-stream replay
//! (hash-map updates per instruction), fine for tests and spot checks:
//!
//! ```
//! use csmt_core::ArchKind;
//! use csmt_mem::MemConfig;
//! use csmt_verify::InvariantProbe;
//! use csmt_workloads::{by_name, simulate_probed};
//!
//! let app = by_name("mgrid").expect("paper app");
//! let mut probe = InvariantProbe::new(&ArchKind::Smt2.chip(), 1);
//! simulate_probed(&app, ArchKind::Smt2.chip(), 1, 0.02, 42, MemConfig::table3(), &mut probe);
//! let summary = probe.finish().expect("no invariant violations");
//! assert!(summary.committed > 0);
//! ```

pub mod digest;
pub mod golden;
pub mod invariants;
pub mod lint;

pub use digest::{EventDigest, Fnv64};
pub use invariants::{InvariantProbe, VerifySummary, Violation, ViolationKind};
pub use lint::{
    lint_app, lint_stream, lint_threads, materialize, LintIssue, LintKind, LintSeverity,
};
