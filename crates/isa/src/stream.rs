//! Instruction-stream abstractions.
//!
//! A software thread presents itself to the pipeline as an [`InstStream`]:
//! an on-demand generator of the thread's dynamic instruction sequence.
//! This is the role MINT's execution-driven front-end plays in the paper —
//! the stream always follows the *correct* control-flow path; the timing
//! model layers branch prediction, wrong-path fetch and squashing on top.

use crate::inst::DynInst;
use crate::op::OpClass;
use crate::reg::ArchReg;
use crate::rng::SplitMix64;

/// A generator of one thread's dynamic instruction stream.
pub trait InstStream {
    /// Produce the next instruction on the correct path, or `None` when the
    /// thread has finished (equivalent to yielding [`crate::SyncOp::Exit`]).
    fn next_inst(&mut self) -> Option<DynInst>;
}

/// Blanket impl so `Box<dyn InstStream>` is itself a stream.
impl InstStream for Box<dyn InstStream + Send> {
    fn next_inst(&mut self) -> Option<DynInst> {
        (**self).next_inst()
    }
}

/// A stream backed by a pre-built vector. Used by unit tests and
/// micro-workloads where the whole trace is small.
#[derive(Debug, Clone)]
pub struct VecStream {
    insts: Vec<DynInst>,
    pos: usize,
}

impl VecStream {
    /// Wrap a trace.
    pub fn new(insts: Vec<DynInst>) -> Self {
        Self { insts, pos: 0 }
    }
}

impl InstStream for VecStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        let i = self.insts.get(self.pos).copied();
        if i.is_some() {
            self.pos += 1;
        }
        i
    }
}

/// Generator of wrong-path instructions fetched between a mispredicted
/// branch and its resolution.
///
/// The paper charges issue slots consumed by squashed instructions to the
/// `other` category (§4.1); for that to be visible, wrong-path instructions
/// must actually occupy rename registers, window slots and functional units.
/// We synthesize a deterministic mix of short-latency integer/FP ops with
/// shallow dependence chains — a plausible down-the-wrong-arm basic block.
/// Wrong-path instructions never touch memory (a conservative but common
/// simulator simplification that avoids polluting the data cache with
/// speculative misses the paper does not discuss).
#[derive(Debug, Clone)]
pub struct WrongPathGen {
    rng: SplitMix64,
}

impl WrongPathGen {
    /// One generator per hardware thread context, seeded for determinism.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Produce the next wrong-path instruction starting at pseudo-PC `pc`.
    pub fn next_inst(&mut self, pc: u64) -> DynInst {
        let roll = self.rng.below(8);
        let op = match roll {
            0..=4 => OpClass::IntAlu,
            5 => OpClass::Shift,
            6 => OpClass::FpAdd,
            _ => OpClass::IntMul,
        };
        let dest = ArchReg::Int(1 + (self.rng.below(8) as u8));
        let src = ArchReg::Int(1 + (self.rng.below(8) as u8));
        DynInst::alu(pc, op, Some(dest), [Some(src), None])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::DynInst;

    fn nopish(pc: u64) -> DynInst {
        DynInst::alu(pc, OpClass::IntAlu, Some(ArchReg::Int(1)), [None, None])
    }

    #[test]
    fn vec_stream_yields_in_order_then_none() {
        let mut s = VecStream::new(vec![nopish(0), nopish(4), nopish(8)]);
        assert_eq!(s.next_inst().unwrap().pc, 0);
        assert_eq!(s.next_inst().unwrap().pc, 4);
        assert_eq!(s.next_inst().unwrap().pc, 8);
        assert!(s.next_inst().is_none());
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn wrong_path_gen_is_deterministic_and_memoryless() {
        let mut a = WrongPathGen::new(99);
        let mut b = WrongPathGen::new(99);
        for k in 0..100 {
            let ia = a.next_inst(k * 4);
            let ib = b.next_inst(k * 4);
            assert_eq!(ia, ib);
            assert!(ia.mem.is_none(), "wrong path must not touch memory");
            assert!(ia.branch.is_none());
            assert!(ia.sync.is_none());
        }
    }

    #[test]
    fn boxed_stream_is_a_stream() {
        let mut s: Box<dyn InstStream + Send> = Box::new(VecStream::new(vec![nopish(0)]));
        assert!(s.next_inst().is_some());
        assert!(s.next_inst().is_none());
    }
}
