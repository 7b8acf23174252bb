//! Functional-unit pools.
//!
//! Each cluster owns `fu_counts = [int, ldst, fp]` units (Table 2). Units
//! are pipelined — a new operation can start every cycle — except the
//! dividers, which occupy their unit for the full latency (Table 1 via
//! [`OpClass::fu_occupancy`]).

use csmt_isa::OpClass;

/// The functional units of one cluster.
#[derive(Debug, Clone)]
pub struct FuPool {
    /// busy-until cycle per unit instance, grouped per kind.
    busy: [Vec<u64>; 3],
}

impl FuPool {
    /// Pool with `counts[k]` units of each [`FuKind`](csmt_isa::FuKind).
    pub fn new(counts: [usize; 3]) -> Self {
        assert!(counts.iter().all(|&c| c >= 1), "every kind needs ≥1 unit");
        FuPool {
            busy: [vec![0; counts[0]], vec![0; counts[1]], vec![0; counts[2]]],
        }
    }

    /// Whether a unit for `op` is free at `now`. Ops needing no unit
    /// (sync markers) are always accepted.
    pub fn can_issue(&self, op: OpClass, now: u64) -> bool {
        match op.fu_kind() {
            None => true,
            Some(k) => self.busy[k.index()].iter().any(|&b| b <= now),
        }
    }

    /// Occupy a unit for `op` starting at `now`. Caller must have checked
    /// [`Self::can_issue`]. Returns the cycle execution completes for
    /// non-memory ops (`now + latency`).
    pub fn issue(&mut self, op: OpClass, now: u64) -> u64 {
        if let Some(k) = op.fu_kind() {
            let slot = self.busy[k.index()]
                .iter_mut()
                .find(|b| **b <= now)
                .expect("can_issue checked");
            *slot = now + op.fu_occupancy() as u64;
        }
        now + op.latency() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_unit_accepts_every_cycle() {
        let mut p = FuPool::new([1, 1, 1]);
        assert!(p.can_issue(OpClass::FpAdd, 0));
        p.issue(OpClass::FpAdd, 0);
        // Occupancy 1: free again next cycle, even though latency is 1.
        assert!(p.can_issue(OpClass::FpAdd, 1));
        // But not in the same cycle.
        assert!(!p.can_issue(OpClass::FpMul, 0));
    }

    #[test]
    fn divider_blocks_its_unit_for_full_latency() {
        let mut p = FuPool::new([1, 1, 1]);
        let done = p.issue(OpClass::IntDiv, 0);
        assert_eq!(done, 8);
        for t in 0..8 {
            assert!(!p.can_issue(OpClass::IntAlu, t), "cycle {t}");
        }
        assert!(p.can_issue(OpClass::IntAlu, 8));
    }

    #[test]
    fn kinds_do_not_interfere() {
        let mut p = FuPool::new([1, 1, 1]);
        p.issue(OpClass::IntDiv, 0);
        assert!(p.can_issue(OpClass::Load, 0));
        assert!(p.can_issue(OpClass::FpAdd, 0));
    }

    #[test]
    fn multiple_units_of_a_kind_issue_in_parallel() {
        let mut p = FuPool::new([2, 1, 1]);
        assert!(p.can_issue(OpClass::IntAlu, 0));
        p.issue(OpClass::IntAlu, 0);
        assert!(p.can_issue(OpClass::IntAlu, 0));
        p.issue(OpClass::IntAlu, 0);
        assert!(!p.can_issue(OpClass::IntAlu, 0));
    }

    #[test]
    fn sync_ops_need_no_unit() {
        let mut p = FuPool::new([1, 1, 1]);
        p.issue(OpClass::IntDiv, 0); // int unit fully busy
        assert!(p.can_issue(OpClass::Sync, 3));
        assert_eq!(p.issue(OpClass::Sync, 3), 4);
    }

    #[test]
    fn issue_returns_completion_per_table1() {
        let mut p = FuPool::new([2, 2, 2]);
        assert_eq!(p.issue(OpClass::IntAlu, 10), 11);
        assert_eq!(p.issue(OpClass::IntMul, 10), 12);
        assert_eq!(p.issue(OpClass::FpDivDouble, 10), 17);
    }
}
