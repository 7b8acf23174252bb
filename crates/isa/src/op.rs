//! Operation classes, functional-unit kinds, and the latency table.
//!
//! Reproduces **Table 1** of the paper exactly:
//!
//! | Unit       | Operation            | Latency |
//! |------------|----------------------|---------|
//! | Integer    | add, sub, logical    | 1       |
//! |            | shift                | 1       |
//! |            | mul                  | 2       |
//! |            | div                  | 8       |
//! |            | branch               | 1       |
//! | Load/Store | load                 | 2       |
//! |            | store                | 1       |
//! | FP         | fpadd                | 1       |
//! |            | fpmult               | 2       |
//! |            | fpdiv                | 4 / 7   |
//!
//! The paper lists FP divide as `4/7` (single/double precision); we model
//! both widths. All units are pipelined except the dividers, which occupy
//! their unit for the full latency (the conventional reading of long-latency
//! divide in 1990s cores such as the R10000 the paper builds on).
//!
//! The *load* latency of 2 cycles is the L1-hit pipeline latency; the actual
//! completion time of a load is determined by the memory system (`csmt-mem`)
//! and can be far longer on misses.

/// The three functional-unit kinds of the base superscalar core (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer ALU (also executes branches, per Table 1).
    Int,
    /// Load/store (address generation + cache port).
    LdSt,
    /// Floating point.
    Fp,
}

impl FuKind {
    /// All kinds, in the order used by per-kind count arrays
    /// (`[int, ldst, fp]`, matching the paper's "int/ld-st/fp" notation).
    pub const ALL: [FuKind; 3] = [FuKind::Int, FuKind::LdSt, FuKind::Fp];

    /// Index into `[int, ldst, fp]` arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuKind::Int => 0,
            FuKind::LdSt => 1,
            FuKind::Fp => 2,
        }
    }
}

/// Dynamic operation classes (the rows of Table 1, plus the `Sync` marker
/// used by the parallel runtime and a `Nop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add / sub / logical.
    IntAlu,
    /// Integer shift.
    Shift,
    /// Integer multiply.
    IntMul,
    /// Integer divide (unpipelined).
    IntDiv,
    /// Conditional or unconditional branch.
    Branch,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// FP add / sub.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide, single precision (unpipelined).
    FpDivSingle,
    /// FP divide, double precision (unpipelined).
    FpDivDouble,
    /// Synchronization marker (barrier / lock); consumes a fetch slot and a
    /// ROB entry but no functional unit. Interpreted by the runtime.
    Sync,
    /// No-op (pipeline filler; never produced by workloads).
    Nop,
}

impl OpClass {
    /// Execution latency in cycles (Table 1). For `Load` this is the L1-hit
    /// pipeline latency; real completion comes from the memory system.
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Shift | OpClass::Branch => 1,
            OpClass::IntMul => 2,
            OpClass::IntDiv => 8,
            OpClass::Load => 2,
            OpClass::Store => 1,
            OpClass::FpAdd => 1,
            OpClass::FpMul => 2,
            OpClass::FpDivSingle => 4,
            OpClass::FpDivDouble => 7,
            OpClass::Sync | OpClass::Nop => 1,
        }
    }

    /// Which functional unit executes this class; `None` for classes that
    /// need no unit (sync markers, nops).
    #[inline]
    pub fn fu_kind(self) -> Option<FuKind> {
        match self {
            OpClass::IntAlu
            | OpClass::Shift
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::Branch => Some(FuKind::Int),
            OpClass::Load | OpClass::Store => Some(FuKind::LdSt),
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDivSingle | OpClass::FpDivDouble => {
                Some(FuKind::Fp)
            }
            OpClass::Sync | OpClass::Nop => None,
        }
    }

    /// Cycles the functional unit stays busy. 1 for pipelined units,
    /// full latency for the (unpipelined) dividers.
    #[inline]
    pub fn fu_occupancy(self) -> u32 {
        match self {
            OpClass::IntDiv => 8,
            OpClass::FpDivSingle => 4,
            OpClass::FpDivDouble => 7,
            _ => 1,
        }
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True for branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper, verbatim.
    #[test]
    fn table1_integer_unit_latencies() {
        assert_eq!(OpClass::IntAlu.latency(), 1); // add, sub, log
        assert_eq!(OpClass::Shift.latency(), 1); // shift
        assert_eq!(OpClass::IntMul.latency(), 2); // mul
        assert_eq!(OpClass::IntDiv.latency(), 8); // div
        assert_eq!(OpClass::Branch.latency(), 1); // branch
    }

    #[test]
    fn table1_load_store_unit_latencies() {
        assert_eq!(OpClass::Load.latency(), 2); // load
        assert_eq!(OpClass::Store.latency(), 1); // store
    }

    #[test]
    fn table1_fp_unit_latencies() {
        assert_eq!(OpClass::FpAdd.latency(), 1); // fpadd
        assert_eq!(OpClass::FpMul.latency(), 2); // fpmult
        assert_eq!(OpClass::FpDivSingle.latency(), 4); // fpdiv 4/...
        assert_eq!(OpClass::FpDivDouble.latency(), 7); // fpdiv .../7
    }

    #[test]
    fn fu_kind_routing_matches_table1_grouping() {
        for op in [
            OpClass::IntAlu,
            OpClass::Shift,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::Branch,
        ] {
            assert_eq!(op.fu_kind(), Some(FuKind::Int), "{op:?}");
        }
        for op in [OpClass::Load, OpClass::Store] {
            assert_eq!(op.fu_kind(), Some(FuKind::LdSt), "{op:?}");
        }
        for op in [
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDivSingle,
            OpClass::FpDivDouble,
        ] {
            assert_eq!(op.fu_kind(), Some(FuKind::Fp), "{op:?}");
        }
        assert_eq!(OpClass::Sync.fu_kind(), None);
        assert_eq!(OpClass::Nop.fu_kind(), None);
    }

    #[test]
    fn dividers_are_unpipelined_everything_else_is() {
        assert_eq!(OpClass::IntDiv.fu_occupancy(), 8);
        assert_eq!(OpClass::FpDivSingle.fu_occupancy(), 4);
        assert_eq!(OpClass::FpDivDouble.fu_occupancy(), 7);
        for op in [
            OpClass::IntAlu,
            OpClass::Shift,
            OpClass::IntMul,
            OpClass::Branch,
            OpClass::Load,
            OpClass::Store,
            OpClass::FpAdd,
            OpClass::FpMul,
        ] {
            assert_eq!(op.fu_occupancy(), 1, "{op:?}");
        }
    }

    #[test]
    fn fu_kind_indices_are_distinct_and_dense() {
        let mut seen = [false; 3];
        for k in FuKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mem_and_branch_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Branch.is_branch());
        assert!(!OpClass::Load.is_branch());
    }
}
