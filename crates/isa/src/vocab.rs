//! The probe vocabulary shared by the machine and its observers: the
//! §4.1 hazard classes an issue slot is wasted on, and the level of the
//! memory hierarchy that serviced an access. The pipeline (`csmt-cpu`),
//! the hierarchy (`csmt-mem`) and every probe name these one enums, so
//! an event, a heartbeat key and a result column cannot disagree on them.

/// Hazard categories of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hazard {
    /// Lack of functional units (or of issue bandwidth itself).
    Structural,
    /// Waiting on a memory access.
    Memory,
    /// Waiting on a register data dependence.
    Data,
    /// Branch mispredictions: redirect bubbles and stalled wrong-path work.
    Control,
    /// Spinning on barriers or locks.
    Sync,
    /// No instructions for a thread in the instruction window.
    Fetch,
    /// Squashed instructions and rename-register stalls.
    Other,
}

impl Hazard {
    /// All hazards, in the paper's legend order (top to bottom of the bars:
    /// other, structural, memory, data, control, sync, fetch).
    pub const ALL: [Hazard; 7] = [
        Hazard::Other,
        Hazard::Structural,
        Hazard::Memory,
        Hazard::Data,
        Hazard::Control,
        Hazard::Sync,
        Hazard::Fetch,
    ];

    /// Dense index for array-backed accumulators.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Hazard::Other => 0,
            Hazard::Structural => 1,
            Hazard::Memory => 2,
            Hazard::Data => 3,
            Hazard::Control => 4,
            Hazard::Sync => 5,
            Hazard::Fetch => 6,
        }
    }

    /// Lower-case label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Hazard::Other => "other",
            Hazard::Structural => "structural",
            Hazard::Memory => "memory",
            Hazard::Data => "data",
            Hazard::Control => "control",
            Hazard::Sync => "sync",
            Hazard::Fetch => "fetch",
        }
    }
}

/// Which level ultimately serviced a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// L1 hit.
    L1,
    /// L2 hit (or merged into an outstanding miss).
    L2,
    /// Home memory on this node.
    LocalMem,
    /// Home memory on a remote node.
    RemoteMem,
    /// Dirty line transferred from a remote L2.
    RemoteL2,
}
