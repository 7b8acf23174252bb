//! # clustered-smt
//!
//! A from-scratch, cycle-accurate reproduction of **Krishnan & Torrellas,
//! "A Clustered Approach to Multithreaded Processors" (IPPS 1998)**: the
//! clustered-SMT design point, the fixed-assignment (FA) and centralized
//! SMT architectures it is compared against, the banked non-blocking cache
//! hierarchy and DASH-like 4-node CC-NUMA substrate underneath them, a
//! fork-join parallel runtime, synthetic models of the paper's six
//! applications, and the analytic model of parallelism from the paper's §2.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`isa`] | instruction set, Table 1 latencies, instruction streams |
//! | [`mem`] | caches, TLB, MSHRs, directory, interconnect (Table 3, Fig 3) |
//! | [`cpu`] | the out-of-order SMT cluster pipeline (§3.1–3.3, Table 2) |
//! | [`core`] | chips, machines, runtime, experiment results |
//! | [`workloads`] | swim, tomcatv, mgrid, vpenta, fmm, ocean |
//! | [`model`] | the §2 analytic model of thread/instruction parallelism |
//! | [`trace`] | observability: pipeline probes, heartbeats, O3PipeView |
//! | [`metrics`] | top-down cycle accounting, host self-profiling |
//! | [`verify`] | invariant checker, digests and goldens, stream linter |
//! | [`sweep`] | design-space sweep engine: job pool + result cache |
//!
//! ## Quickstart
//!
//! ```
//! use clustered_smt::prelude::*;
//!
//! // Simulate ocean on the paper's headline SMT2 chip (low-end machine).
//! let app = clustered_smt::workloads::by_name("ocean").unwrap();
//! let result = clustered_smt::workloads::simulate(&app, ArchKind::Smt2, 1, 0.05, 42);
//! assert!(result.cycles > 0);
//! println!("{} cycles, IPC {:.2}", result.cycles, result.ipc());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries that regenerate every figure and table of the paper.

pub use csmt_core as core;
pub use csmt_cpu as cpu;
pub use csmt_isa as isa;
pub use csmt_mem as mem;
pub use csmt_metrics as metrics;
pub use csmt_model as model;
pub use csmt_sweep as sweep;
pub use csmt_trace as trace;
pub use csmt_verify as verify;
pub use csmt_workloads as workloads;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use csmt_core::{ArchKind, ChipConfig, Machine, Policy, RunResult};
    pub use csmt_cpu::{ClusterConfig, Hazard, SlotStats};
    pub use csmt_isa::{DynInst, InstStream, OpClass, SyncOp};
    pub use csmt_mem::{MemConfig, MemorySystem};
    pub use csmt_metrics::{AttributionTree, HostProfiler, MetricsProbe, MetricsReport};
    pub use csmt_model::{AppPoint, ArchModel, Region};
    pub use csmt_sweep::{ResultCache, SweepEngine};
    pub use csmt_trace::{IntervalSampler, NullProbe, PipeviewProbe, Probe};
    pub use csmt_verify::{InvariantProbe, Violation, ViolationKind};
    pub use csmt_workloads::{
        all_apps, by_name, simulate, simulate_probed, AppParams, AppSpec, BatchResult, RunSpec,
        Workload,
    };
}
