//! # csmt-workloads — the paper's six applications, synthesized
//!
//! The paper drives its simulator with MIPS2 binaries of swim, tomcatv,
//! mgrid (SPEC95), vpenta (NASA7), and fmm, ocean (SPLASH-2) through the
//! MINT execution-driven front-end. Running those binaries is not possible
//! here, so this crate builds the closest synthetic equivalent (see
//! DESIGN.md §2): deterministic generators that reproduce each
//! application's *architecturally relevant* signature — thread parallelism,
//! per-thread ILP, memory behaviour, synchronization pattern — which is
//! precisely what the paper's architectural comparison consumes.
//!
//! * [`addr`] — NUMA-aware data placement and address patterns;
//! * [`kernel`] — parameterized loop bodies with stable PCs;
//! * [`program`] — per-thread phase interpreters ([`program::ProgramStream`]);
//! * [`apps`] — the six application specs and [`apps::build_streams`];
//! * [`runner`] — one-call simulation of (application × architecture ×
//!   machine), the entry point used by examples and the bench harness;
//! * [`multiprogram`] — multiprogrammed mixes of independent sequential
//!   jobs (the evaluation mode of the SMT papers the paper builds on).

//! ```
//! use csmt_core::ArchKind;
//! use csmt_workloads::{by_name, simulate};
//!
//! let app = by_name("mgrid").expect("one of the paper's six");
//! let r = simulate(&app, ArchKind::Smt2, 1, 0.02, 42);
//! assert!(r.cycles > 0 && r.ipc() > 0.0);
//! ```

pub mod addr;
pub mod apps;
pub mod kernel;
pub mod multiprogram;
pub mod program;
pub mod runner;

pub use apps::{all_apps, build_streams, by_name, AppParams, AppSpec};
pub use multiprogram::BatchResult;
pub use runner::{simulate, simulate_probed, RunSpec, Workload};
