//! Thread programs: phases of kernel loops and synchronization.
//!
//! A [`ProgramStream`] lazily interprets a list of [`Phase`]s as the
//! thread's dynamic instruction stream — the shape Polaris gives a
//! parallelized Fortran application (fork-join loops separated by barriers,
//! with the serial sections on thread 0) and the ANL macros give the
//! SPLASH-2 codes (plus lock-protected critical sections).

use crate::kernel::KernelInstance;
use csmt_isa::{ArchReg, DynInst, InstStream, OpClass, SyncOp};

/// One phase of a thread's program.
pub enum Phase {
    /// Run a kernel to completion.
    Kernel(KernelInstance),
    /// A synchronization operation.
    Sync(SyncOp),
}

/// PC region used for lock-excursion instructions.
const LOCK_BODY_PC: u64 = 0xF000;

/// Lazily generated instruction stream for one software thread.
pub struct ProgramStream {
    phases: Vec<Phase>,
    idx: usize,
    buf: Vec<DynInst>,
    pos: usize,
}

impl ProgramStream {
    /// Wrap a phase list.
    pub fn new(phases: Vec<Phase>) -> Self {
        ProgramStream {
            phases,
            idx: 0,
            buf: Vec::with_capacity(64),
            pos: 0,
        }
    }
}

impl InstStream for ProgramStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        loop {
            if self.pos < self.buf.len() {
                let i = self.buf[self.pos];
                self.pos += 1;
                return Some(i);
            }
            self.buf.clear();
            self.pos = 0;
            match self.phases.get_mut(self.idx) {
                None => return None,
                Some(Phase::Sync(op)) => {
                    let op = *op;
                    self.idx += 1;
                    return Some(DynInst::sync(0xE000 + self.idx as u64 * 4, op));
                }
                Some(Phase::Kernel(k)) => {
                    // Optional critical section around this iteration (fmm).
                    if let Some(lock_id) = k.roll_lock() {
                        let body = k.lock.expect("roll_lock implies lock").body_ops;
                        self.buf
                            .push(DynInst::sync(LOCK_BODY_PC, SyncOp::LockAcquire(lock_id)));
                        for b in 0..body {
                            self.buf.push(DynInst::alu(
                                LOCK_BODY_PC + 4 + b as u64 * 4,
                                OpClass::IntAlu,
                                Some(ArchReg::Int(6)),
                                [Some(ArchReg::Int(6)), None],
                            ));
                        }
                        self.buf.push(DynInst::sync(
                            LOCK_BODY_PC + 4 + body as u64 * 4,
                            SyncOp::LockRelease(lock_id),
                        ));
                    }
                    if !k.emit_iter(&mut self.buf) {
                        self.buf.clear();
                        self.idx += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddrCursor, AddrMode, Layout};
    use crate::kernel::{KernelSpec, LockUse, OpMix};

    fn kernel(iters: u64, lock: Option<LockUse>) -> KernelInstance {
        let spec = KernelSpec {
            chains: 2,
            depth: 2,
            mix: OpMix::Float,
            loads: 1,
            stores: 0,
            carried: false,
            noise_branch: 0.0,
        };
        let cursors = vec![AddrCursor::new(
            AddrMode::Stride {
                layout: Layout::shared(0),
                stride: 8,
                footprint: 4096,
            },
            1,
        )];
        KernelInstance::new(spec, 0x100, iters, cursors, vec![], 5, lock)
    }

    #[test]
    fn stream_yields_kernel_then_sync_then_ends() {
        let phases = vec![
            Phase::Kernel(kernel(3, None)),
            Phase::Sync(SyncOp::Barrier(0)),
        ];
        let mut s = ProgramStream::new(phases);
        let mut insts = Vec::new();
        while let Some(i) = s.next_inst() {
            insts.push(i);
        }
        // 3 iterations × 7 insts + 1 sync.
        assert_eq!(insts.len(), 3 * 7 + 1);
        assert_eq!(insts.last().unwrap().sync, Some(SyncOp::Barrier(0)));
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn lock_excursions_wrap_iterations_in_acquire_release_pairs() {
        let lock = LockUse {
            n_locks: 2,
            frac: 1.0,
            body_ops: 2,
        };
        let mut s = ProgramStream::new(vec![Phase::Kernel(kernel(4, Some(lock)))]);
        let mut acquires = 0;
        let mut releases = 0;
        let mut depth = 0i32;
        while let Some(i) = s.next_inst() {
            match i.sync {
                Some(SyncOp::LockAcquire(_)) => {
                    acquires += 1;
                    depth += 1;
                    assert_eq!(depth, 1, "no nesting");
                }
                Some(SyncOp::LockRelease(_)) => {
                    releases += 1;
                    depth -= 1;
                    assert_eq!(depth, 0);
                }
                _ => {}
            }
        }
        assert_eq!(acquires, 4);
        assert_eq!(releases, 4);
    }

    #[test]
    fn empty_program_ends_immediately() {
        let mut s = ProgramStream::new(vec![]);
        assert!(s.next_inst().is_none());
    }
}
