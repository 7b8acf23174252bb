//! Top-down cycle accounting and timeline export for the CSMT simulator.
//!
//! This crate is the analysis layer over the zero-cost
//! [`csmt_trace::Probe`] event stream. Attach a [`MetricsProbe`] to any
//! run (it composes with other probes via the tuple impl without
//! perturbing their event streams) and [`finish`](MetricsProbe::finish)
//! it into a [`MetricsReport`]:
//!
//! * **[`LogHistogram`]** — deterministic log-bucketed histograms
//!   (p50/p90/p99) of load-to-use latency, MSHR residency,
//!   window/ready-queue occupancy, and fetch→commit lifetime, per thread
//!   and per cluster.
//! * **[`AttributionTree`]** — the §4.1 issue-slot accounting arranged as
//!   a top-down tree (frontend / backend / sync / rename-squash), every
//!   leaf an exact copy of one hazard accumulator so the tree reconciles
//!   bit-for-bit with the run's `SlotStats`.
//! * **[`PerfettoTrace`]** — a Chrome-trace-event document with
//!   per-hardware-context pipeline-occupancy tracks and IPC / in-flight
//!   miss / window-occupancy counter tracks; drag the file into
//!   [ui.perfetto.dev](https://ui.perfetto.dev).
//! * **[`HostProfiler`]** — a separate probe for *simulator* wall-clock
//!   per host phase (fetch/issue/commit/memory/…), behind the gated
//!   `Wants::HOST_PHASES` channel.
//!
//! The `csmt-report` binary in `crates/bench` is the command-line front
//! end; `tests/metrics_reconcile.rs` pins the reconciliation and
//! golden-digest-neutrality guarantees. See DESIGN.md §12.

mod hist;
mod perfetto;
mod probe;
mod report;
mod selfprof;
mod topdown;

pub use hist::LogHistogram;
pub use perfetto::{validate_trace, PerfettoTrace};
pub use probe::MetricsProbe;
pub use report::MetricsReport;
pub use selfprof::HostProfiler;
pub use topdown::{AttributionNode, AttributionTree};
