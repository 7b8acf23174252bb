//! # csmt-core — chips, machines, runtime: the paper's contribution
//!
//! This crate assembles the clustered-SMT architectures of Krishnan &
//! Torrellas (IPPS 1998) out of the `csmt-cpu` cluster pipeline and the
//! `csmt-mem` hierarchy, and drives whole-application simulations:
//!
//! * [`configs`] — the seven Table 2 chip configurations
//!   (FA8/FA4/FA2/FA1 and SMT8/SMT4/SMT2/SMT1);
//! * [`runtime`] — barriers, locks and thread lifecycle (the ANL-macro /
//!   Polaris fork-join semantics the paper's applications use);
//! * [`machine`] — the low-end (1 chip) and high-end (4-chip DASH-like)
//!   machines and the cycle loop;
//! * [`sched`] — thread-to-cluster scheduling: the [`Policy`] enum
//!   (static round-robin, barrier rebalance, hazard pairing) and the
//!   dynamic policies' drain-based thread migration;
//! * [`result`] — per-run statistics: cycles, §4.1 issue-slot breakdown,
//!   memory counters, Figure 6 coordinates.
//!
//! ```
//! use csmt_core::{ArchKind, Machine};
//! use csmt_isa::stream::VecStream;
//! use csmt_isa::{ArchReg, DynInst, OpClass};
//! use csmt_mem::MemConfig;
//!
//! // An SMT2 chip (two 4-issue SMT clusters) running two tiny threads.
//! let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 42);
//! let thread = |base: u64| -> Box<dyn csmt_isa::InstStream + Send> {
//!     Box::new(VecStream::new(
//!         (0..100)
//!             .map(|i| {
//!                 DynInst::alu(
//!                     base + i * 4,
//!                     OpClass::IntAlu,
//!                     Some(ArchReg::Int(1)),
//!                     [Some(ArchReg::Int(1)), None],
//!                 )
//!             })
//!             .collect(),
//!     ))
//! };
//! m.attach_threads(vec![thread(0), thread(0x1000)]);
//! let result = m.run(1_000_000);
//! assert_eq!(result.slots.committed, 200);
//! ```

pub mod configs;
pub mod machine;
pub mod result;
pub mod runtime;
pub mod sched;

pub use configs::{ArchKind, ChipConfig, CHIP_ISSUE_WIDTH};
pub use machine::{Machine, Placement};
pub use result::RunResult;
pub use runtime::{Action, Runtime, ThreadId};
pub use sched::{Policy, SchedConfigError};
