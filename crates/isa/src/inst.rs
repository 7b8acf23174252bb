//! Dynamic instructions as consumed by the timing pipeline.
//!
//! A [`DynInst`] is one *executed* instruction of a software thread, in
//! program order, annotated with everything the timing model needs and the
//! front-end already knows (the MINT analogue): the true branch outcome, the
//! effective memory address, and the architectural register dataflow.

use crate::op::OpClass;
use crate::reg::ArchReg;

/// A memory reference carried by a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Virtual byte address.
    pub addr: u64,
    /// Access size in bytes (4 or 8 in our workloads).
    pub size: u8,
}

/// The architecturally-correct outcome of a branch, known to the front-end
/// and revealed to the pipeline only when the branch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is actually taken.
    pub taken: bool,
    /// Target PC if taken (used to index the BTB).
    pub target: u64,
}

/// Synchronization operations interpreted by the parallel runtime
/// (`csmt-core::runtime`). They reach the runtime when the thread's pipeline
/// has drained up to the marker, modelling the fence semantics of the ANL
/// macros the SPLASH-2 applications use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Arrive at barrier `id`; the thread spins until all participants arrive.
    Barrier(u32),
    /// Acquire lock `id`; spins while held by another thread.
    LockAcquire(u32),
    /// Release lock `id`.
    LockRelease(u32),
    /// Thread has no further work (end of program for this thread).
    Exit,
}

/// One dynamic instruction.
///
/// Kept small (fits in two cache lines comfortably) because millions flow
/// through the pipeline per simulation. Register source slots use
/// `Option<ArchReg>`; `None` or the zero register mean "no dependence".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Pseudo program counter. Workload generators assign stable PCs to
    /// static instructions so the branch predictor sees realistic aliasing.
    pub pc: u64,
    /// Operation class (selects FU and latency, Table 1).
    pub op: OpClass,
    /// Destination register, if any.
    pub dest: Option<ArchReg>,
    /// Up to two source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// True outcome for branches.
    pub branch: Option<BranchInfo>,
    /// Runtime interpretation for `OpClass::Sync`.
    pub sync: Option<SyncOp>,
}

impl DynInst {
    /// A plain ALU-style instruction.
    #[inline]
    pub fn alu(pc: u64, op: OpClass, dest: Option<ArchReg>, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert!(!op.is_mem() && !op.is_branch() && op != OpClass::Sync);
        DynInst {
            pc,
            op,
            dest,
            srcs,
            mem: None,
            branch: None,
            sync: None,
        }
    }

    /// A load producing `dest` from `addr`, with address-generation sources.
    #[inline]
    pub fn load(pc: u64, dest: ArchReg, addr: u64, srcs: [Option<ArchReg>; 2]) -> Self {
        DynInst {
            pc,
            op: OpClass::Load,
            dest: Some(dest),
            srcs,
            mem: Some(MemRef { addr, size: 8 }),
            branch: None,
            sync: None,
        }
    }

    /// A store of `src` to `addr`.
    #[inline]
    pub fn store(pc: u64, addr: u64, srcs: [Option<ArchReg>; 2]) -> Self {
        DynInst {
            pc,
            op: OpClass::Store,
            dest: None,
            srcs,
            mem: Some(MemRef { addr, size: 8 }),
            branch: None,
            sync: None,
        }
    }

    /// A conditional branch with its true outcome.
    #[inline]
    pub fn branch(pc: u64, taken: bool, target: u64, srcs: [Option<ArchReg>; 2]) -> Self {
        DynInst {
            pc,
            op: OpClass::Branch,
            dest: None,
            srcs,
            mem: None,
            branch: Some(BranchInfo { taken, target }),
            sync: None,
        }
    }

    /// A synchronization marker.
    #[inline]
    pub fn sync(pc: u64, op: SyncOp) -> Self {
        DynInst {
            pc,
            op: OpClass::Sync,
            dest: None,
            srcs: [None, None],
            mem: None,
            branch: None,
            sync: Some(op),
        }
    }

    /// Destination register if it is a real renamed register.
    #[inline]
    pub fn real_dest(&self) -> Option<ArchReg> {
        self.dest.filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let l = DynInst::load(0x100, ArchReg::Fp(1), 0xBEEF, [Some(ArchReg::Int(2)), None]);
        assert_eq!(l.op, OpClass::Load);
        assert_eq!(l.mem.unwrap().addr, 0xBEEF);
        assert_eq!(l.dest, Some(ArchReg::Fp(1)));

        let b = DynInst::branch(0x104, true, 0x40, [Some(ArchReg::Int(3)), None]);
        assert!(b.branch.unwrap().taken);
        assert_eq!(b.branch.unwrap().target, 0x40);
        assert!(b.dest.is_none());

        let s = DynInst::sync(0x108, SyncOp::Barrier(7));
        assert_eq!(s.sync, Some(SyncOp::Barrier(7)));
        assert_eq!(s.op, OpClass::Sync);
    }

    #[test]
    fn zero_register_is_not_a_dependence() {
        let i = DynInst::alu(
            0,
            OpClass::IntAlu,
            Some(ArchReg::Int(0)),
            [Some(ArchReg::Int(0)), Some(ArchReg::Int(5))],
        );
        assert_eq!(i.real_dest(), None);
    }

    #[test]
    fn dyninst_is_reasonably_small() {
        // Millions are in flight across a figure sweep; keep the hot type lean.
        assert!(
            std::mem::size_of::<DynInst>() <= 64,
            "{}",
            std::mem::size_of::<DynInst>()
        );
    }
}
