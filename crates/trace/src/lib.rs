//! # csmt-trace — zero-cost simulation observability
//!
//! Pipeline event probes for the clustered-SMT simulator. The pipeline,
//! machine, and memory hierarchy are generic over a [`Probe`]; every
//! [`Event`] goes through [`emit`], which tests the probe's `const WANTS`
//! mask, so when the simulator is instantiated with [`NullProbe`] (the
//! default, used by every figure binary and test) the instrumented code
//! monomorphizes to exactly the uninstrumented pipeline — zero branches,
//! zero stores, zero allocation.
//!
//! Two concrete probes ship with the crate:
//!
//! * [`IntervalSampler`] — JSONL heartbeats every N cycles: interval IPC,
//!   the §4.1 wasted-slot breakdown as fractions (legend order), cache
//!   miss rates, and running-thread count. One JSON object per line.
//! * [`PipeviewProbe`] — per-instruction pipeline traces in gem5's
//!   O3PipeView format, viewable in [Konata](https://github.com/shioyadan/Konata).
//!
//! Both probes that follow instructions from fetch to retirement — the
//! pipeview writer here and `csmt-verify`'s invariant checker — keep them
//! in one [`InstMirror`], whose transition function, [`InstMirror::on`],
//! also says which events break the lifecycle. It stores each cluster's
//! instructions in an [`InflightRing`], indexed by the cluster's dense
//! instruction uids.
//!
//! Probes compose structurally: `(A, B)` is a probe that forwards to both,
//! `Option<P>` forwards when `Some`, and `&mut P` forwards through the
//! reference. [`Wants`] masks union, and each member of a pair sees only
//! the channels it asked for.

mod mirror;
mod pipeview;
mod probe;
mod ring;
mod sampler;

pub use mirror::{Inst, InstMirror, InstRecord, Misstep, Stage, Step};
pub use pipeview::PipeviewProbe;
pub use probe::{
    emit, CacheEvent, CycleStats, Event, FetchEvent, HostPhase, HostStopwatch, MigrationEvent,
    MigrationEventKind, NullProbe, Probe, RenamePoolEvent, ServiceLevel, StageEvent, SyncEvent,
    SyncEventKind, Wants, HAZARD_LABELS,
};
pub use ring::InflightRing;
pub use sampler::IntervalSampler;
