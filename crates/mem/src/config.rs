//! Memory-hierarchy parameters (paper Table 3).
//!
//! All latencies are contention-free round trips, as in the paper. The
//! remote latencies apply only to multi-chip (high-end) machines and are
//! "low because we only model a 4-node machine".

/// Configuration of the whole memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache size in bytes (Table 3: 64 KB).
    pub l1_size: usize,
    /// L2 cache size in bytes (Table 3: 1024 KB).
    pub l2_size: usize,
    /// Cache line size in bytes for both levels (Table 3: 64 B).
    pub line_size: usize,
    /// L1 associativity (Table 3: 2-way).
    pub l1_assoc: usize,
    /// L2 associativity (Table 3: 4-way).
    pub l2_assoc: usize,
    /// Cache fill time in cycles, both levels (Table 3: 8).
    pub fill_time: u64,
    /// Number of banks per cache, both levels (Table 3: 7).
    pub l1_banks: usize,
    /// Number of banks in the L2 (Table 3: 7).
    pub l2_banks: usize,
    /// Bank read/write occupancy in cycles (Table 3: 1).
    pub bank_occupancy: u64,
    /// L1 hit round-trip latency (Table 3: 1 cycle).
    pub l1_latency: u64,
    /// L2 hit round-trip latency (Table 3: 10 cycles).
    pub l2_latency: u64,
    /// Local memory round-trip latency (Table 3: 40 cycles).
    pub local_mem_latency: u64,
    /// Remote memory round-trip latency (Table 3: 60 cycles).
    pub remote_mem_latency: u64,
    /// Remote (dirty) L2 round-trip latency, i.e. a cache-to-cache transfer
    /// through home directory (Table 3: 75 cycles).
    pub remote_l2_latency: u64,
    /// Maximum outstanding loads per chip — the non-blocking-cache limit
    /// (§3.1: "up to 32 outstanding loads").
    pub max_outstanding_loads: usize,
    /// TLB entries (§3.4: 512, fully associative, random replacement).
    pub tlb_entries: usize,
    /// Page size used for TLB and NUMA interleaving. 4 KB, a conventional
    /// value; the paper does not state one.
    pub page_size: u64,
    /// TLB miss penalty in cycles. The paper does not report one; we use a
    /// software-walk cost of 30 cycles, documented in DESIGN.md. TLB misses
    /// are rare in these dense-array workloads, so results are insensitive.
    pub tlb_miss_penalty: u64,
    /// Extra latency charged to a write that must invalidate remote sharers
    /// (one directory→sharer→ack hop). Not in Table 3; derived as half a
    /// remote-memory round trip.
    pub invalidation_penalty: u64,
    /// Per-message occupancy of a network-interface link in cycles.
    pub link_occupancy: u64,
    /// Per-access occupancy of a memory channel / directory controller.
    pub memory_occupancy: u64,
}

impl MemConfig {
    /// The exact Table 3 configuration.
    pub fn table3() -> Self {
        MemConfig {
            l1_size: 64 * 1024,
            l2_size: 1024 * 1024,
            line_size: 64,
            l1_assoc: 2,
            l2_assoc: 4,
            fill_time: 8,
            l1_banks: 7,
            l2_banks: 7,
            bank_occupancy: 1,
            l1_latency: 1,
            l2_latency: 10,
            local_mem_latency: 40,
            remote_mem_latency: 60,
            remote_l2_latency: 75,
            max_outstanding_loads: 32,
            tlb_entries: 512,
            page_size: 4096,
            tlb_miss_penalty: 30,
            invalidation_penalty: 30,
            link_occupancy: 1,
            memory_occupancy: 1,
        }
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        self.l1_size / self.line_size / self.l1_assoc
    }

    /// Number of L2 sets.
    pub fn l2_sets(&self) -> usize {
        self.l2_size / self.line_size / self.l2_assoc
    }

    /// Line-aligned address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_size as u64
    }

    /// Page number of an address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_size
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper, verbatim.
    #[test]
    fn table3_values() {
        let c = MemConfig::table3();
        assert_eq!(c.l1_size, 64 * 1024); // [L1/L2] cache size 64 / 1024 KB
        assert_eq!(c.l2_size, 1024 * 1024);
        assert_eq!(c.line_size, 64); // line size 64 / 64 B
        assert_eq!(c.l1_assoc, 2); // associativity 2-way / 4-way
        assert_eq!(c.l2_assoc, 4);
        assert_eq!(c.fill_time, 8); // fill time 8 / 8
        assert_eq!(c.l1_banks, 7); // banks 7 / 7
        assert_eq!(c.l2_banks, 7);
        assert_eq!(c.bank_occupancy, 1); // occupancy 1 / 1
        assert_eq!(c.l1_latency, 1); // L1 latency 1
        assert_eq!(c.l2_latency, 10); // L2 latency 10
        assert_eq!(c.local_mem_latency, 40); // local memory 40
        assert_eq!(c.remote_mem_latency, 60); // remote memory 60
        assert_eq!(c.remote_l2_latency, 75); // remote L2 75
        assert_eq!(c.max_outstanding_loads, 32); // §3.1
        assert_eq!(c.tlb_entries, 512); // §3.4
    }

    #[test]
    fn derived_set_counts() {
        let c = MemConfig::table3();
        assert_eq!(c.l1_sets(), 512); // 64KB / 64B / 2-way
        assert_eq!(c.l2_sets(), 4096); // 1MB / 64B / 4-way
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
