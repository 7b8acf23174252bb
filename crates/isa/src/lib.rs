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
//! * [`block`] — reusable basic-block templates with explicit register
//!   dataflow, the building blocks of the synthetic applications;
//! * [`rng`] — a tiny deterministic SplitMix64 PRNG so every simulation is
//!   bit-for-bit reproducible;
//! * [`fxhash`] — a fixed-seed FxHash map for address-keyed hot-path
//!   tables (TLB, directory), replacing SipHash + per-process entropy;
//! * [`vocab`] — the probe vocabulary the machine and its observers
//!   share: the §4.1 [`Hazard`] classes and the memory level an access
//!   was [`ServicedBy`].

//! ```
//! use csmt_isa::block::{BlockBuilder, ChainSpec, OpMix, RegAlloc};
//! use csmt_isa::{ArchReg, InstStream, OpClass};
//!
//! // Build one loop iteration: a load feeding two dependence chains.
//! let mut b = BlockBuilder::new(0x1000);
//! let mut ra = RegAlloc::new();
//! b.load(ArchReg::Fp(0), 0x8000, Some(ArchReg::Int(7)));
//! b.emit_compute(ChainSpec { chains: 2, depth: 3, mix: OpMix::Float }, &[ArchReg::Fp(0)], &mut ra);
//! b.branch(true, [Some(ArchReg::Int(7)), None]);
//! let body = b.finish();
//! assert_eq!(body.len(), 8);
//!
//! // Replay it as a bounded instruction stream.
//! let mut s = csmt_isa::stream::CycleStream::new(body, 24);
//! let mut n = 0;
//! while s.next_inst().is_some() { n += 1; }
//! assert_eq!(n, 24);
//! ```

pub mod block;
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
