//! Parameterized loop-body kernels.
//!
//! Every parallel loop (and serial section) of the six applications is a
//! [`KernelSpec`]: `loads` strided/irregular loads feeding `chains`
//! independent dependence chains of `depth` ops each, `stores` of the
//! results, induction update and a backward branch. The chain width/depth
//! ratio and the optional loop-carried dependence set the per-thread ILP;
//! the address modes set the memory behaviour; the optional noise branch
//! sets the misprediction rate. Together these four knobs position an
//! application on the paper's Figure 6 chart.
//!
//! A [`KernelInstance`] compiles a spec into a per-iteration instruction
//! template once (so PCs are stable and the branch predictor can learn the
//! static branches), then stamps out iterations, patching addresses and
//! branch outcomes.

use crate::addr::AddrCursor;
use csmt_isa::{ArchReg, DynInst, FuKind, OpClass, SplitMix64};

/// Registers reserved for kernel plumbing (outside `RegAlloc`'s temp pools).
const INDUCTION: ArchReg = ArchReg::Int(7);
/// Load destination registers.
const SEEDS: [ArchReg; 4] = [
    ArchReg::Fp(0),
    ArchReg::Fp(1),
    ArchReg::Fp(30),
    ArchReg::Fp(31),
];
/// Loop-carried chain registers — disjoint from load destinations and from
/// `RegAlloc`'s temporary pools, so the recurrence is a true cross-iteration
/// RAW dependence.
const CARRIES: [ArchReg; 4] = [
    ArchReg::Fp(26),
    ArchReg::Fp(27),
    ArchReg::Fp(28),
    ArchReg::Fp(29),
];

/// A coarse operation mix for compute chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMix {
    /// Mostly FP adds/multiplies — dense numeric kernels (swim, tomcatv...).
    Float,
    /// Alternating FP and integer.
    Mixed,
}

impl OpMix {
    /// Operation class for the `k`-th link of a chain.
    fn op_for(self, k: u8) -> OpClass {
        match self {
            OpMix::Float if k % 3 == 2 => OpClass::FpMul,
            OpMix::Float => OpClass::FpAdd,
            OpMix::Mixed if k.is_multiple_of(2) => OpClass::FpAdd,
            OpMix::Mixed => OpClass::IntAlu,
        }
    }
}

/// Round-robin allocator of temporary registers: integer temporaries
/// from `$8..$24`, FP temporaries from `$f2..$f26`, wrapping around.
/// Wrap-around creates realistic architectural register reuse
/// (anti/output dependences removed by renaming, as in compiled code).
struct RegAlloc {
    next_int: u8,
    next_fp: u8,
}

const INT_TMP: std::ops::Range<u8> = 8..24;
const FP_TMP: std::ops::Range<u8> = 2..26;

impl RegAlloc {
    fn new() -> Self {
        Self {
            next_int: INT_TMP.start,
            next_fp: FP_TMP.start,
        }
    }

    /// The next temporary of the register file that executes `op`.
    fn dest_for(&mut self, op: OpClass) -> ArchReg {
        fn bump(next: &mut u8, range: std::ops::Range<u8>) -> u8 {
            let r = *next;
            *next = if r + 1 == range.end {
                range.start
            } else {
                r + 1
            };
            r
        }
        if op.fu_kind() == Some(FuKind::Fp) {
            ArchReg::Fp(bump(&mut self.next_fp, FP_TMP))
        } else {
            ArchReg::Int(bump(&mut self.next_int, INT_TMP))
        }
    }
}

/// Static description of one loop body.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Independent dependence chains per iteration (≈ ILP ceiling).
    pub chains: u8,
    /// Dependent ops per chain (ILP divisor).
    pub depth: u8,
    /// Operation mix of chain links.
    pub mix: OpMix,
    /// Loads per iteration (≤ 4).
    pub loads: u8,
    /// Stores per iteration (≤ 2).
    pub stores: u8,
    /// If true, each chain's seed is the previous iteration's chain tail —
    /// a loop-carried recurrence that serializes iterations (vpenta, ocean's
    /// implicit solvers).
    pub carried: bool,
    /// Probability per iteration of an extra data-dependent branch with a
    /// random outcome (control hazards; fmm's tree-walk tests).
    pub noise_branch: f64,
}

impl KernelSpec {
    /// Instructions emitted per iteration (excluding noise branches and
    /// lock excursions).
    pub fn insts_per_iter(&self) -> u64 {
        let carry_copies = if self.carried { self.chains as u64 } else { 0 };
        self.loads as u64
            + self.chains as u64 * self.depth as u64
            + carry_copies
            + self.stores as u64
            + 2 // induction + backward branch
    }
}

/// Which template slots need per-iteration patching.
#[derive(Debug, Clone)]
struct Patch {
    load_slots: Vec<usize>,
    store_slots: Vec<usize>,
    back_branch: usize,
    noise_branch: Option<usize>,
}

/// A kernel bound to one thread's address cursors, ready to emit.
pub struct KernelInstance {
    template: Vec<DynInst>,
    patch: Patch,
    load_cursors: Vec<AddrCursor>,
    store_cursors: Vec<AddrCursor>,
    iters: u64,
    done: u64,
    rng: SplitMix64,
    noise_branch_p: f64,
    /// Optional critical section: (lock id, probability per iteration,
    /// ops inside the section).
    pub lock: Option<LockUse>,
}

/// Critical-section behaviour for lock-using kernels (fmm).
#[derive(Debug, Clone, Copy)]
pub struct LockUse {
    /// Number of distinct locks; iteration picks one at random.
    pub n_locks: u32,
    /// Probability an iteration enters a critical section.
    pub frac: f64,
    /// Plain ops inside the section.
    pub body_ops: u8,
}

impl KernelInstance {
    /// Compile `spec` at static base PC `base_pc` for `iters` iterations,
    /// with one address cursor per load/store operand.
    pub fn new(
        spec: KernelSpec,
        base_pc: u64,
        iters: u64,
        load_cursors: Vec<AddrCursor>,
        store_cursors: Vec<AddrCursor>,
        seed: u64,
        lock: Option<LockUse>,
    ) -> Self {
        assert!(spec.loads as usize <= SEEDS.len());
        assert!(spec.stores <= 2);
        assert!(spec.chains >= 1 && spec.depth >= 1);
        assert_eq!(load_cursors.len(), spec.loads as usize);
        assert_eq!(store_cursors.len(), spec.stores as usize);

        let mut pc = base_pc;
        let mut next_pc = || {
            let p = pc;
            pc += 4;
            p
        };
        let mut template = Vec::with_capacity(spec.insts_per_iter() as usize + 1);
        let mut load_slots = Vec::new();
        let mut store_slots = Vec::new();

        // Loads into seed registers (addresses patched per iteration).
        for &seed_reg in SEEDS.iter().take(spec.loads as usize) {
            load_slots.push(template.len());
            template.push(DynInst::load(
                next_pc(),
                seed_reg,
                0,
                [Some(INDUCTION), None],
            ));
        }
        // Chains: seeds are the loaded values, or the carry registers for
        // loop-carried recurrences.
        let mut ra = RegAlloc::new();
        let mut heads: Vec<ArchReg> = if spec.carried {
            (0..spec.chains as usize)
                .map(|c| CARRIES[c % CARRIES.len()])
                .collect()
        } else if spec.loads > 0 {
            (0..spec.chains as usize)
                .map(|c| SEEDS[c % spec.loads as usize])
                .collect()
        } else {
            (0..spec.chains as usize)
                .map(|c| SEEDS[c % SEEDS.len()])
                .collect()
        };
        // Chain links interleave level by level, the way a compiler
        // schedules unrolled independent operations.
        for k in 0..spec.depth {
            let op = spec.mix.op_for(k);
            for head in &mut heads {
                let dest = ra.dest_for(op);
                template.push(DynInst::alu(next_pc(), op, Some(dest), [Some(*head), None]));
                *head = dest;
            }
        }
        // Carry copies close the recurrence.
        if spec.carried {
            for (c, &tail) in heads.iter().enumerate() {
                template.push(DynInst::alu(
                    next_pc(),
                    OpClass::FpAdd,
                    Some(CARRIES[c % CARRIES.len()]),
                    [Some(tail), None],
                ));
            }
        }
        // Stores of chain tails.
        for s in 0..spec.stores as usize {
            store_slots.push(template.len());
            let val = heads[s % heads.len()];
            template.push(DynInst::store(next_pc(), 0, [Some(val), Some(INDUCTION)]));
        }
        // Induction update.
        template.push(DynInst::alu(
            next_pc(),
            OpClass::IntAlu,
            Some(INDUCTION),
            [Some(INDUCTION), None],
        ));
        // Optional noise branch (outcome patched; always present in the
        // template when the spec can use it, so PCs stay stable).
        let noise_branch = if spec.noise_branch > 0.0 {
            let slot = template.len();
            template.push(DynInst::branch(
                next_pc(),
                false,
                base_pc,
                [Some(INDUCTION), None],
            ));
            Some(slot)
        } else {
            None
        };
        // Backward loop branch.
        let back_branch = template.len();
        template.push(DynInst::branch(
            next_pc(),
            true,
            base_pc,
            [Some(INDUCTION), None],
        ));

        KernelInstance {
            template,
            patch: Patch {
                load_slots,
                store_slots,
                back_branch,
                noise_branch,
            },
            load_cursors,
            store_cursors,
            iters,
            done: 0,
            rng: SplitMix64::new(seed),
            noise_branch_p: spec.noise_branch,
            lock,
        }
    }

    /// Emit the next iteration into `out`. Returns `false` when exhausted.
    /// Lock excursions are emitted by the caller (`ProgramStream`) around
    /// the iteration body using [`Self::roll_lock`].
    pub fn emit_iter(&mut self, out: &mut Vec<DynInst>) -> bool {
        if self.done >= self.iters {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(&self.template);
        for (k, &slot) in self.patch.load_slots.iter().enumerate() {
            let a = self.load_cursors[k].next_addr();
            out[start + slot].mem.as_mut().expect("load has mem").addr = a;
        }
        for (k, &slot) in self.patch.store_slots.iter().enumerate() {
            let a = self.store_cursors[k].next_addr();
            out[start + slot].mem.as_mut().expect("store has mem").addr = a;
        }
        if let Some(slot) = self.patch.noise_branch {
            // Taken with probability p: the 2-bit counter settles on
            // not-taken and mispredicts roughly a fraction p of iterations.
            let taken = self.rng.chance(self.noise_branch_p);
            out[start + slot].branch.as_mut().expect("branch").taken = taken;
        }
        self.done += 1;
        let last = self.done >= self.iters;
        out[start + self.patch.back_branch]
            .branch
            .as_mut()
            .expect("branch")
            .taken = !last;
        true
    }

    /// Decide whether this iteration enters a critical section; if so,
    /// return the lock id to use.
    pub fn roll_lock(&mut self) -> Option<u32> {
        let lock = self.lock?;
        if self.rng.chance(lock.frac) {
            Some(self.rng.below(lock.n_locks as u64) as u32)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddrCursor, AddrMode, Layout};

    fn spec() -> KernelSpec {
        KernelSpec {
            chains: 2,
            depth: 3,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: false,
            noise_branch: 0.0,
        }
    }

    fn cursors(n: usize) -> Vec<AddrCursor> {
        (0..n)
            .map(|k| {
                AddrCursor::new(
                    AddrMode::Stride {
                        layout: Layout::shared((k as u64) << 20),
                        stride: 64,
                        footprint: 1 << 16,
                    },
                    k as u64,
                )
            })
            .collect()
    }

    fn instance(iters: u64) -> KernelInstance {
        KernelInstance::new(spec(), 0x4000, iters, cursors(2), cursors(1), 9, None)
    }

    #[test]
    fn template_length_matches_spec_arithmetic() {
        let k = instance(10);
        assert_eq!(k.template.len() as u64, spec().insts_per_iter());
    }

    #[test]
    fn pcs_are_stable_across_iterations() {
        let mut k = instance(3);
        let mut a = Vec::new();
        k.emit_iter(&mut a);
        let mut b = Vec::new();
        k.emit_iter(&mut b);
        let pcs = |v: &[DynInst]| v.iter().map(|i| i.pc).collect::<Vec<_>>();
        assert_eq!(pcs(&a), pcs(&b));
    }

    #[test]
    fn addresses_advance_per_iteration() {
        let mut k = instance(3);
        let mut a = Vec::new();
        k.emit_iter(&mut a);
        let mut b = Vec::new();
        k.emit_iter(&mut b);
        let first_load = |v: &[DynInst]| {
            v.iter()
                .find(|i| i.op == OpClass::Load)
                .unwrap()
                .mem
                .unwrap()
                .addr
        };
        assert_eq!(first_load(&b), first_load(&a) + 64);
    }

    #[test]
    fn last_iteration_falls_through_the_back_branch() {
        let mut k = instance(2);
        let mut v = Vec::new();
        k.emit_iter(&mut v);
        assert!(v.last().unwrap().branch.unwrap().taken);
        v.clear();
        k.emit_iter(&mut v);
        assert!(!v.last().unwrap().branch.unwrap().taken);
        assert!(!k.emit_iter(&mut v));
    }

    #[test]
    fn chains_read_loaded_seeds() {
        let mut k = instance(1);
        let mut v = Vec::new();
        k.emit_iter(&mut v);
        // First chain level: two ops reading SEEDS[0], SEEDS[1].
        let first_level: Vec<_> = v[2..4].iter().map(|i| i.srcs[0].unwrap()).collect();
        assert_eq!(first_level, vec![SEEDS[0], SEEDS[1]]);
    }

    #[test]
    fn carried_kernel_closes_the_recurrence() {
        let mut s = spec();
        s.carried = true;
        let mut k = KernelInstance::new(s, 0, 2, cursors(2), cursors(1), 9, None);
        let mut v = Vec::new();
        k.emit_iter(&mut v);
        // There must be copies back into the carry registers, and the first
        // chain level must read them (not this iteration's loads).
        let copies: Vec<_> = v
            .iter()
            .filter(|i| i.dest == Some(CARRIES[0]) || i.dest == Some(CARRIES[1]))
            .collect();
        assert_eq!(copies.len(), 2);
        let first_level: Vec<_> = v[2..4].iter().map(|i| i.srcs[0].unwrap()).collect();
        assert_eq!(first_level, vec![CARRIES[0], CARRIES[1]]);
    }

    #[test]
    fn noise_branch_present_and_sometimes_taken() {
        let mut s = spec();
        s.noise_branch = 0.8;
        let mut k = KernelInstance::new(s, 0, 200, cursors(2), cursors(1), 9, None);
        let mut taken = 0;
        for _ in 0..200 {
            let mut v = Vec::new();
            k.emit_iter(&mut v);
            // Noise branch is the second-to-last instruction.
            if v[v.len() - 2].branch.unwrap().taken {
                taken += 1;
            }
        }
        // Taken with probability 0.8 per iteration.
        assert!(taken > 120 && taken < 195, "taken={taken}");
    }

    #[test]
    fn lock_roll_respects_frequency() {
        let mut s = spec();
        s.noise_branch = 0.0;
        let lock = LockUse {
            n_locks: 4,
            frac: 0.25,
            body_ops: 3,
        };
        let mut k = KernelInstance::new(s, 0, 1, cursors(2), cursors(1), 9, Some(lock));
        let mut hits = 0;
        for _ in 0..1000 {
            if let Some(id) = k.roll_lock() {
                assert!(id < 4);
                hits += 1;
            }
        }
        assert!((150..400).contains(&hits), "hits={hits}");
    }

    #[test]
    fn deterministic_emission() {
        let run = || {
            let mut k = instance(50);
            let mut v = Vec::new();
            while k.emit_iter(&mut v) {}
            v
        };
        assert_eq!(run(), run());
    }
}
