//! # csmt-cpu — the SMT cluster pipeline
//!
//! A cycle-accurate model of one *cluster* of the paper's architectures: a
//! dynamic superscalar core (paper §3.1, Figure 2) extended with
//! simultaneous multithreading (§3.2). Every architecture in Table 2 — the
//! fixed-assignment FA8/FA4/FA2/FA1, the clustered SMT4/SMT2 and the
//! centralized SMT1 — is a set of these clusters with different widths,
//! thread counts and resource budgets; no resource is shared across
//! clusters (§3.3: "no resource sharing is done across clusters").
//!
//! Pipeline per cycle (see [`cluster::Cluster::step`]):
//!
//! 1. **complete** — functional units finishing this cycle wake dependents;
//!    mispredicted branches squash their thread's younger instructions and
//!    redirect fetch;
//! 2. **commit** — per-thread in-order retirement, up to the retire width;
//!    stores perform their cache access here;
//! 3. **issue** — oldest-first select over ready instructions in the shared
//!    associative window, constrained by FU availability and the
//!    32-outstanding-loads limit;
//! 4. **fetch/dispatch** — one thread per cycle (round-robin, §3.2) fetches
//!    up to the issue width, renaming through the int/fp rename pools into
//!    the window;
//! 5. **account** — wasted issue slots are attributed to hazard classes per
//!    the paper's §4.1 methodology: what its every-cycle window scan would
//!    record, read from per-thread class counts kept as instructions move.
//!
//! A cycle after one in which nothing moved, and before the next
//! completion is due, would move nothing either: it skips the phases and
//! repeats the previous cycle's §4.1 charge bit for bit (a *stall span*,
//! see [`cluster::Cluster::step_probed`]).

//! ```
//! use csmt_cpu::{Cluster, ClusterConfig};
//! use csmt_isa::stream::VecStream;
//! use csmt_isa::{ArchReg, DynInst, OpClass};
//! use csmt_mem::{MemConfig, MemorySystem};
//!
//! // A 4-issue SMT cluster running one small thread.
//! let mut cluster = Cluster::new(ClusterConfig::for_width(4, 4), 1);
//! let mut mem = MemorySystem::new(MemConfig::table3(), 1, 7);
//! let insts: Vec<DynInst> = (0..40)
//!     .map(|i| DynInst::alu(i * 4, OpClass::IntAlu, Some(ArchReg::Int(1)), [None, None]))
//!     .collect();
//! cluster.attach_thread(0, Box::new(VecStream::new(insts)));
//! let mut events = Vec::new();
//! let mut now = 0;
//! while cluster.busy() {
//!     cluster.step(now, &mut mem, 0, &mut events);
//!     now += 1;
//! }
//! assert_eq!(cluster.thread_committed(0), 40);
//! ```

pub mod bpred;
pub mod cluster;
pub mod config;
pub mod fu;
pub mod pipeline;
pub mod stats;

pub use bpred::{BranchPredictor, PredictorKind};
pub use cluster::{Cluster, ClusterEvent, DetachedThread, ThreadState};
pub use config::{ClusterConfig, FetchPolicy};
pub use stats::{CycleActivity, Hazard, SlotStats};
