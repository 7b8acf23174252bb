//! # csmt-mem — memory hierarchy and multiprocessor substrate
//!
//! Implements everything under the processor pipeline in Krishnan &
//! Torrellas (IPPS 1998): the banked non-blocking cache hierarchy of §3.4 /
//! Table 3, the shared TLB, and the DASH-like CC-NUMA substrate of Figure 3
//! (per-node memory + full-map directory, remote-L2 cache-to-cache
//! transfers, interconnect contention).
//!
//! ## Timing model
//!
//! The paper "models contention in great detail" inside an execution-driven
//! simulator. We reproduce the same queueing behaviour with *reservation
//! timelines*: every shared resource (cache bank, MSHR slot, directory,
//! network link, memory channel) is a [`resource::Resource`] that accesses
//! reserve in arrival order. An access's completion time is the Table 3
//! no-contention round-trip latency of the level that services it, plus any
//! time spent waiting for resources — exactly the quantity a message-level
//! simulator would produce for FIFO resources, without the message plumbing.
//! The substitution is documented in `DESIGN.md` §2.
//!
//! The public entry point is [`hierarchy::MemorySystem`].

//! ```
//! use csmt_mem::{AccessKind, MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::table3(), 1, 42);
//! // Cold access: TLB walk + local memory round trip.
//! let cold = mem.access(0, 0x4000, AccessKind::Read, 0);
//! assert!(cold.complete_at >= 40);
//! // Warm re-access long after the fill: a 1-cycle L1 hit.
//! let warm = mem.access(0, 0x4000, AccessKind::Read, 10_000);
//! assert_eq!(warm.complete_at, 10_001);
//! ```

pub mod cache;
pub mod config;
pub mod directory;
pub mod hierarchy;
pub mod mshr;
pub mod resource;
pub mod stats;
pub mod tlb;

pub use config::MemConfig;
pub use hierarchy::{AccessKind, AccessOutcome, MemorySystem, ServicedBy};
pub use stats::MemStats;
