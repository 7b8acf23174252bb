//! Basic-block construction utilities.
//!
//! The synthetic applications (`csmt-workloads`) emit their dynamic
//! instruction streams out of parameterized loop bodies. This module gives
//! them a small builder vocabulary:
//!
//! * [`BlockBuilder`] — append instructions with automatically assigned,
//!   stable pseudo-PCs (so the branch predictor sees consistent static
//!   branches across iterations);
//! * [`RegAlloc`] — a round-robin temporary-register allocator for the
//!   integer and FP files;
//! * [`ChainSpec`] / [`BlockBuilder::emit_compute`] — the canonical
//!   "k independent dependence chains of depth d" compute pattern whose
//!   width/depth ratio sets the per-thread ILP, the key workload knob that
//!   positions each application on the paper's Figure 6 chart.

use crate::inst::{DynInst, SyncOp};
use crate::op::OpClass;
use crate::reg::ArchReg;

/// Round-robin allocator of temporary registers.
///
/// Hands out integer temporaries from `$8..$24` and FP temporaries from
/// `$f2..$f30`, wrapping around. Wrap-around creates realistic architectural
/// register reuse (anti/output dependences removed by renaming, as in real
/// compiled code).
#[derive(Debug, Clone)]
pub struct RegAlloc {
    next_int: u8,
    next_fp: u8,
}

const INT_TMP_LO: u8 = 8;
const INT_TMP_HI: u8 = 24;
const FP_TMP_LO: u8 = 2;
const FP_TMP_HI: u8 = 26;

impl Default for RegAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl RegAlloc {
    /// Fresh allocator starting at the bottom of each temp range.
    pub fn new() -> Self {
        Self {
            next_int: INT_TMP_LO,
            next_fp: FP_TMP_LO,
        }
    }

    /// Next integer temporary.
    pub fn int(&mut self) -> ArchReg {
        let r = ArchReg::Int(self.next_int);
        self.next_int += 1;
        if self.next_int >= INT_TMP_HI {
            self.next_int = INT_TMP_LO;
        }
        r
    }

    /// Next FP temporary.
    pub fn fp(&mut self) -> ArchReg {
        let r = ArchReg::Fp(self.next_fp);
        self.next_fp += 1;
        if self.next_fp >= FP_TMP_HI {
            self.next_fp = FP_TMP_LO;
        }
        r
    }
}

/// Specification of the compute portion of a loop iteration.
///
/// Emits `chains` independent dependence chains, each `depth` operations
/// long, drawing operation classes from `mix`. With enough issue width the
/// achievable ILP of the block is about `chains` (each chain advances one op
/// per `latency` cycles); with a single chain the block is latency-bound.
#[derive(Debug, Clone, Copy)]
pub struct ChainSpec {
    /// Number of independent chains (≈ target ILP of the block).
    pub chains: u8,
    /// Dependent operations per chain.
    pub depth: u8,
    /// Operation mix for chain links.
    pub mix: OpMix,
}

/// A coarse operation mix for compute chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMix {
    /// Mostly FP adds/multiplies — dense numeric kernels (swim, tomcatv...).
    Float,
    /// Integer ALU heavy — index arithmetic, particle bookkeeping (fmm).
    Integer,
    /// Alternating FP and integer.
    Mixed,
}

impl OpMix {
    /// Operation class for the `k`-th link of a chain.
    fn op_for(self, k: u8) -> OpClass {
        match self {
            OpMix::Float => {
                if k % 3 == 2 {
                    OpClass::FpMul
                } else {
                    OpClass::FpAdd
                }
            }
            OpMix::Integer => {
                if k % 4 == 3 {
                    OpClass::IntMul
                } else {
                    OpClass::IntAlu
                }
            }
            OpMix::Mixed => {
                if k.is_multiple_of(2) {
                    OpClass::FpAdd
                } else {
                    OpClass::IntAlu
                }
            }
        }
    }

    fn is_fp(self, k: u8) -> bool {
        matches!(self.op_for(k).fu_kind(), Some(crate::op::FuKind::Fp))
    }
}

/// Appends instructions to a growing trace with stable pseudo-PCs.
///
/// PCs are assigned as `base + 4 * (static index)`; re-emitting the same
/// static block (next loop iteration) re-uses the same PCs, which is what
/// the 2K-entry direct-mapped predictor needs to learn loop branches.
#[derive(Debug)]
pub struct BlockBuilder {
    base_pc: u64,
    static_idx: u64,
    out: Vec<DynInst>,
}

impl BlockBuilder {
    /// Start a builder whose static code begins at `base_pc`.
    pub fn new(base_pc: u64) -> Self {
        Self {
            base_pc,
            static_idx: 0,
            out: Vec::new(),
        }
    }

    /// PC that the next emitted instruction will get.
    pub fn next_pc(&self) -> u64 {
        self.base_pc + 4 * self.static_idx
    }

    fn bump(&mut self) -> u64 {
        let pc = self.next_pc();
        self.static_idx += 1;
        pc
    }

    /// Emit an ALU-class op.
    pub fn op(
        &mut self,
        op: OpClass,
        dest: Option<ArchReg>,
        srcs: [Option<ArchReg>; 2],
    ) -> &mut Self {
        let pc = self.bump();
        self.out.push(DynInst::alu(pc, op, dest, srcs));
        self
    }

    /// Emit a load of `addr` into `dest`, depending on `addr_src` for
    /// address generation (usually the loop induction register).
    pub fn load(&mut self, dest: ArchReg, addr: u64, addr_src: Option<ArchReg>) -> &mut Self {
        let pc = self.bump();
        self.out
            .push(DynInst::load(pc, dest, addr, [addr_src, None]));
        self
    }

    /// Emit a store of `val_src` to `addr`.
    pub fn store(
        &mut self,
        addr: u64,
        val_src: Option<ArchReg>,
        addr_src: Option<ArchReg>,
    ) -> &mut Self {
        let pc = self.bump();
        self.out.push(DynInst::store(pc, addr, [val_src, addr_src]));
        self
    }

    /// Emit a conditional branch with true outcome `taken`; `target` is the
    /// block base (backward branch) by default.
    pub fn branch(&mut self, taken: bool, srcs: [Option<ArchReg>; 2]) -> &mut Self {
        let pc = self.bump();
        self.out
            .push(DynInst::branch(pc, taken, self.base_pc, srcs));
        self
    }

    /// Emit a synchronization marker.
    pub fn sync(&mut self, s: SyncOp) -> &mut Self {
        let pc = self.bump();
        self.out.push(DynInst::sync(pc, s));
        self
    }

    /// Emit the canonical compute pattern of [`ChainSpec`]: `chains`
    /// independent dependence chains seeded from `seeds` (one register per
    /// chain, typically loaded values), each chain `depth` ops deep.
    /// Returns the final register of each chain.
    pub fn emit_compute(
        &mut self,
        spec: ChainSpec,
        seeds: &[ArchReg],
        ra: &mut RegAlloc,
    ) -> Vec<ArchReg> {
        let mut heads: Vec<ArchReg> = (0..spec.chains as usize)
            .map(|c| {
                seeds
                    .get(c % seeds.len().max(1))
                    .copied()
                    .unwrap_or(ArchReg::Int(1))
            })
            .collect();
        // Interleave chain links (chain-major per level) the way a compiler
        // schedules unrolled independent operations.
        for k in 0..spec.depth {
            for head in heads.iter_mut() {
                let op = spec.mix.op_for(k);
                let dest = if spec.mix.is_fp(k) { ra.fp() } else { ra.int() };
                let pc = self.bump();
                self.out
                    .push(DynInst::alu(pc, op, Some(dest), [Some(*head), None]));
                *head = dest;
            }
        }
        heads
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Finish and take the trace.
    pub fn finish(self) -> Vec<DynInst> {
        self.out
    }

    /// Borrow the trace built so far.
    pub fn insts(&self) -> &[DynInst] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcs_count_up_from_the_block_base() {
        let mut b = BlockBuilder::new(0x1000);
        b.op(OpClass::IntAlu, None, [None, None]);
        b.branch(true, [None, None]);
        let pcs: Vec<u64> = b.insts().iter().map(|i| i.pc).collect();
        assert_eq!(pcs, vec![0x1000, 0x1004]);
    }

    #[test]
    fn compute_chains_are_independent_of_each_other() {
        let mut b = BlockBuilder::new(0);
        let mut ra = RegAlloc::new();
        let seeds = [ArchReg::Fp(0), ArchReg::Fp(1)];
        let spec = ChainSpec {
            chains: 2,
            depth: 3,
            mix: OpMix::Float,
        };
        let tails = b.emit_compute(spec, &seeds, &mut ra);
        let insts = b.finish();
        assert_eq!(insts.len(), 6);
        assert_eq!(tails.len(), 2);
        // Each level's two ops read registers written at the previous level
        // (or seeds) and never each other.
        for lvl in 0..3 {
            let a = &insts[lvl * 2];
            let b2 = &insts[lvl * 2 + 1];
            assert_ne!(a.dest, b2.dest);
            assert_ne!(a.srcs[0], b2.srcs[0]);
        }
        // Chain property: op at level k reads dest of level k-1 in the same chain.
        assert_eq!(insts[2].srcs[0], insts[0].dest);
        assert_eq!(insts[3].srcs[0], insts[1].dest);
        assert_eq!(insts[4].srcs[0], insts[2].dest);
    }

    #[test]
    fn reg_alloc_wraps_within_temp_ranges() {
        let mut ra = RegAlloc::new();
        for _ in 0..100 {
            match ra.int() {
                ArchReg::Int(i) => assert!((INT_TMP_LO..INT_TMP_HI).contains(&i)),
                _ => panic!(),
            }
            match ra.fp() {
                ArchReg::Fp(i) => assert!((FP_TMP_LO..FP_TMP_HI).contains(&i)),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn mix_classes_route_to_expected_units() {
        use crate::op::FuKind;
        for k in 0..8 {
            assert_eq!(OpMix::Float.op_for(k).fu_kind(), Some(FuKind::Fp));
            assert_eq!(OpMix::Integer.op_for(k).fu_kind(), Some(FuKind::Int));
        }
    }
}
