//! Memory-hierarchy parameters (paper Table 3).
//!
//! All latencies are contention-free round trips, as in the paper. The
//! remote latencies apply only to multi-chip (high-end) machines and are
//! "low because we only model a 4-node machine".
//!
//! Table 3 is one fixed memory system: the parameters no experiment varies
//! are the constants below, and [`MemConfig`] holds only the ones the
//! memory ablations (`csmt-study ablation_study`) change.

/// L1 data cache size in bytes (Table 3: 64 KB).
pub const L1_SIZE: usize = 64 * 1024;
/// L2 cache size in bytes (Table 3: 1024 KB).
pub const L2_SIZE: usize = 1024 * 1024;
/// Cache line size in bytes for both levels (Table 3: 64 B).
pub const LINE_SIZE: usize = 64;
/// L1 associativity (Table 3: 2-way).
pub const L1_ASSOC: usize = 2;
/// L2 associativity (Table 3: 4-way).
pub const L2_ASSOC: usize = 4;
/// Number of L1 sets.
pub const L1_SETS: usize = L1_SIZE / LINE_SIZE / L1_ASSOC;
/// Number of L2 sets.
pub const L2_SETS: usize = L2_SIZE / LINE_SIZE / L2_ASSOC;
/// Bank read/write occupancy in cycles, both levels (Table 3: 1).
pub const BANK_OCCUPANCY: u64 = 1;
/// L1 hit round-trip latency (Table 3: 1 cycle).
pub const L1_LATENCY: u64 = 1;
/// L2 hit round-trip latency (Table 3: 10 cycles).
pub const L2_LATENCY: u64 = 10;
/// Local memory round-trip latency (Table 3: 40 cycles).
pub const LOCAL_MEM_LATENCY: u64 = 40;
/// TLB entries (§3.4: 512, fully associative, random replacement).
pub const TLB_ENTRIES: usize = 512;
/// TLB miss penalty in cycles. The paper does not report one; we use a
/// software-walk cost of 30 cycles, documented in DESIGN.md. TLB misses
/// are rare in these dense-array workloads, so results are insensitive.
pub const TLB_MISS_PENALTY: u64 = 30;
/// Extra latency charged to a write that must invalidate remote sharers
/// (one directory→sharer→ack hop). Not in Table 3; derived as half a
/// remote-memory round trip.
pub const INVALIDATION_PENALTY: u64 = 30;
/// Per-message occupancy of a network-interface link in cycles.
pub const LINK_OCCUPANCY: u64 = 1;
/// Per-access occupancy of a memory channel / directory controller.
pub const MEMORY_OCCUPANCY: u64 = 1;
/// Page size used for TLB and NUMA interleaving, and by the workloads'
/// data placement. 4 KB, a conventional value; the paper does not state
/// one.
pub const PAGE_SIZE: u64 = 4096;

/// The memory-system parameters an experiment varies; everything else is
/// a Table 3 constant of this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of banks per cache, both levels (Table 3: 7 / 7).
    pub banks: usize,
    /// Cache fill time in cycles, both levels (Table 3: 8).
    pub fill_time: u64,
    /// Maximum outstanding loads per chip — the non-blocking-cache limit
    /// (§3.1: "up to 32 outstanding loads").
    pub max_outstanding_loads: usize,
    /// Remote memory round-trip latency (Table 3: 60 cycles).
    pub remote_mem_latency: u64,
    /// Remote (dirty) L2 round-trip latency, i.e. a cache-to-cache transfer
    /// through home directory (Table 3: 75 cycles).
    pub remote_l2_latency: u64,
    /// Page size used for TLB and NUMA interleaving ([`PAGE_SIZE`] in
    /// [`MemConfig::table3`]).
    pub page_size: u64,
}

impl MemConfig {
    /// The exact Table 3 configuration.
    pub fn table3() -> Self {
        MemConfig {
            banks: 7,
            fill_time: 8,
            max_outstanding_loads: 32,
            remote_mem_latency: 60,
            remote_l2_latency: 75,
            page_size: PAGE_SIZE,
        }
    }

    /// Line-aligned address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / LINE_SIZE as u64
    }

    /// Page number of an address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper, verbatim.
    #[test]
    fn table3_values() {
        let c = MemConfig::table3();
        assert_eq!((L1_SIZE, L2_SIZE), (64 * 1024, 1024 * 1024)); // cache size 64 / 1024 KB
        assert_eq!(LINE_SIZE, 64); // line size 64 / 64 B
        assert_eq!((L1_ASSOC, L2_ASSOC), (2, 4)); // associativity 2-way / 4-way
        assert_eq!(c.fill_time, 8); // fill time 8 / 8
        assert_eq!(c.banks, 7); // banks 7 / 7
        assert_eq!(BANK_OCCUPANCY, 1); // occupancy 1 / 1
        assert_eq!(L1_LATENCY, 1); // L1 latency 1
        assert_eq!(L2_LATENCY, 10); // L2 latency 10
        assert_eq!(LOCAL_MEM_LATENCY, 40); // local memory 40
        assert_eq!(c.remote_mem_latency, 60); // remote memory 60
        assert_eq!(c.remote_l2_latency, 75); // remote L2 75
        assert_eq!(c.max_outstanding_loads, 32); // §3.1
        assert_eq!(TLB_ENTRIES, 512); // §3.4
    }

    #[test]
    fn derived_set_counts() {
        assert_eq!(L1_SETS, 512); // 64KB / 64B / 2-way
        assert_eq!(L2_SETS, 4096); // 1MB / 64B / 4-way
    }

    #[test]
    fn line_and_page_math() {
        let c = MemConfig::table3();
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.page_of(4095), 0);
        assert_eq!(c.page_of(4096), 1);
    }
}
