//! # csmt-isa — instruction set and dynamic-instruction streams
//!
//! Bottom layer of the clustered-SMT simulator reproducing Krishnan &
//! Torrellas, *"A Clustered Approach to Multithreaded Processors"* (IPPS
//! 1998).
//!
//! The paper's evaluation drives a cycle-accurate back-end with the dynamic
//! instruction stream of each software thread (produced there by the MINT
//! execution-driven front-end instrumenting MIPS2 binaries). This crate
//! defines the equivalent abstractions for our from-scratch build:
//!
//! * [`op`] — operation classes, functional-unit kinds and the latency table
//!   (paper Table 1);
//! * [`reg`] — architectural register names (integer and floating point);
//! * [`inst`] — [`inst::DynInst`], one dynamic instruction as seen by the
//!   timing pipeline, carrying *architecturally correct* branch outcomes and
//!   memory addresses (like MINT's front-end events);
//! * [`stream`] — the [`stream::InstStream`] trait a workload implements,
//!   plus wrong-path generators used after branch mispredictions;
//! * [`rng`] — a tiny deterministic SplitMix64 PRNG so every simulation is
//!   bit-for-bit reproducible;
//! * [`fxhash`] — a fixed-seed FxHash map for address-keyed hot-path
//!   tables (TLB, directory), replacing SipHash + per-process entropy;
//! * [`vocab`] — the probe vocabulary the machine and its observers
//!   share: the §4.1 [`Hazard`] classes and the memory level an access
//!   was [`ServicedBy`].

//! ```
//! use csmt_isa::stream::VecStream;
//! use csmt_isa::{ArchReg, DynInst, InstStream, OpClass};
//!
//! // One loop iteration: a load feeding an FP add, then the back branch.
//! let body = vec![
//!     DynInst::load(0x1000, ArchReg::Fp(0), 0x8000, [Some(ArchReg::Int(7)), None]),
//!     DynInst::alu(0x1004, OpClass::FpAdd, Some(ArchReg::Fp(2)), [Some(ArchReg::Fp(0)), None]),
//!     DynInst::branch(0x1008, true, 0x1000, [Some(ArchReg::Int(7)), None]),
//! ];
//!
//! // Replay it as a thread's instruction stream.
//! let mut s = VecStream::new(body);
//! let mut n = 0;
//! while s.next_inst().is_some() { n += 1; }
//! assert_eq!(n, 3);
//! ```

pub mod fxhash;
pub mod inst;
pub mod op;
pub mod reg;
pub mod rng;
pub mod stream;
pub mod vocab;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher64};
pub use inst::{BranchInfo, DynInst, MemRef, SyncOp};
pub use op::{FuKind, OpClass};
pub use reg::ArchReg;
pub use rng::SplitMix64;
pub use stream::InstStream;
pub use vocab::{Hazard, ServicedBy};
