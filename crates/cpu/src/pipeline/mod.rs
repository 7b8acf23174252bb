//! The cluster pipeline, one module per stage.
//!
//! [`crate::cluster::Cluster`] is a thin façade that owns the stage state
//! and drives the per-cycle phase order
//! (complete → commit → issue → fetch → account); the logic lives here:
//!
//! - `fetch` — fetch policies (§3.2) and rename/dispatch into the window
//! - `rename` — the int/fp renaming-register free pools (Table 2)
//! - `window` — the shared instruction window / reorder buffer with its
//!   flat scheduling structures (ring completion wheel, waiter lists,
//!   sorted ready queue, §4.1 class counts) driving complete, wakeup,
//!   squash and oldest-first select
//! - `lsq` — the committed-store buffer and store-to-load forwarding
//!   over each thread's in-flight store list
//! - `commit` — per-thread in-order retirement and sync-drain detection
//! - `regs` — cross-stage state (window entries, thread contexts, the
//!   dispatch sequence counter) and the §4.1 issue-slot accounting
//!
//! Every stage is behavior-identical to the pre-split monolith: cycle
//! counts, statistics and probe event sequences are bit-for-bit the same
//! (locked by `tests/golden_determinism.rs` at the workspace root).

pub(crate) mod commit;
pub(crate) mod fetch;
pub(crate) mod lsq;
pub(crate) mod regs;
pub(crate) mod rename;
pub(crate) mod window;
