//! Top-down cycle accounting for the CSMT simulator.
//!
//! This crate is the analysis layer over the zero-cost
//! [`csmt_trace::Probe`] event stream. Attach a [`MetricsProbe`] to any
//! run (it composes with other probes via the tuple impl without
//! perturbing their event streams) and [`finish`](MetricsProbe::finish)
//! it into a [`MetricsReport`]:
//!
//! * **[`AttributionTree`]** — the §4.1 issue-slot accounting arranged as
//!   a top-down tree (frontend / backend / sync / rename-squash), every
//!   leaf an exact copy of one hazard accumulator so the tree reconciles
//!   bit-for-bit with the run's `SlotStats`;
//! * the thread migrations a scheduling policy made, and their wait.
//!
//! **[`HostProfiler`]** is a separate probe for *simulator* wall-clock
//! per host phase (fetch/issue/commit/memory/…), behind the gated
//! `Wants::HOST_PHASES` channel.
//!
//! The `csmt-report` binary in `crates/bench` is the command-line front
//! end; `tests/metrics_reconcile.rs` pins the reconciliation and
//! golden-digest-neutrality guarantees. See DESIGN.md §12.

mod probe;
mod report;
mod selfprof;
mod topdown;

pub use probe::MetricsProbe;
pub use report::MetricsReport;
pub use selfprof::HostProfiler;
pub use topdown::{AttributionNode, AttributionTree};
