//! Address-stream generation for the synthetic applications.
//!
//! Two concerns live here:
//!
//! * **NUMA layout** — on the high-end machine, memory pages interleave
//!   round-robin across nodes (`csmt-mem::Directory::home_of`). Real DASH
//!   codes place a thread's private arrays on its own node (first-touch);
//!   [`Layout`] reproduces that by mapping a thread's *logical* slice offset
//!   onto physical pages congruent to its node, so private data is local
//!   and only genuinely shared data travels.
//! * **Access patterns** — dense strided sweeps (the Fortran stencils),
//!   irregular pointer-chasing (fmm's tree walks), and neighbor-slice
//!   exchange (ocean's boundary rows), via [`AddrCursor`].

use csmt_isa::SplitMix64;
use csmt_mem::config::PAGE_SIZE;

/// Base of the shared global region (pages interleave across nodes).
pub const SHARED_BASE: u64 = 0x1_0000_0000;
/// Base of the per-thread slice region.
pub const SLICE_BASE: u64 = 0x2_0000_0000;
/// Logical bytes reserved per thread slice.
pub const SLICE_SPAN: u64 = 1 << 26;

/// Maps logical offsets of one thread's slice to physical addresses that
/// stay on its node's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Physical base of the region.
    pub base: u64,
    /// Owning node.
    pub node: u64,
    /// Total nodes in the machine.
    pub n_nodes: u64,
}

impl Layout {
    /// Layout for `thread`'s private slice on a machine of `n_nodes` nodes
    /// with `threads_per_node` software threads per node.
    pub fn private_slice(thread: usize, n_nodes: usize, threads_per_node: usize) -> Self {
        let node = thread
            .checked_div(threads_per_node)
            .unwrap_or(0)
            .min(n_nodes - 1);
        Layout {
            // Spreading a slice across its node's pages dilates logical
            // offsets by n_nodes; space the bases accordingly so slices
            // never collide physically.
            base: SLICE_BASE + thread as u64 * SLICE_SPAN * n_nodes as u64,
            node: node as u64,
            n_nodes: n_nodes as u64,
        }
    }

    /// Identity layout into the shared region (no node pinning: pages
    /// interleave, as genuinely shared data does).
    pub fn shared(offset: u64) -> Self {
        Layout {
            base: SHARED_BASE + offset,
            node: 0,
            n_nodes: 1,
        }
    }

    /// Physical address of logical offset `logical`.
    #[inline]
    pub fn addr(&self, logical: u64) -> u64 {
        if self.n_nodes <= 1 {
            return self.base + logical;
        }
        let page_idx = logical / PAGE_SIZE;
        let within = logical % PAGE_SIZE;
        self.base + page_idx * (PAGE_SIZE * self.n_nodes) + self.node * PAGE_SIZE + within
    }
}

/// How one memory operand of a kernel walks memory.
#[derive(Debug, Clone)]
pub enum AddrMode {
    /// Dense strided sweep over a layout, wrapping at `footprint`.
    Stride {
        /// The region walked.
        layout: Layout,
        /// Bytes between consecutive iterations' accesses.
        stride: u64,
        /// Logical bytes before wrapping.
        footprint: u64,
    },
    /// Uniformly random 8-byte-aligned accesses within `footprint`.
    Irregular {
        /// The region accessed.
        layout: Layout,
        /// Logical bytes addressable.
        footprint: u64,
    },
    /// Strided over own slice, but a fraction of accesses go to the
    /// neighbor's slice instead (boundary exchange).
    NeighborMix {
        /// Own slice.
        own: Layout,
        /// Neighbor thread's slice.
        neighbor: Layout,
        /// Stride in bytes.
        stride: u64,
        /// Logical bytes before wrapping.
        footprint: u64,
        /// Probability an access hits the neighbor slice.
        neighbor_frac: f64,
    },
}

/// A stateful generator of one operand's address per kernel iteration.
#[derive(Debug, Clone)]
pub struct AddrCursor {
    mode: AddrMode,
    offset: u64,
    rng: SplitMix64,
}

impl AddrCursor {
    /// New cursor with its own deterministic random stream.
    pub fn new(mode: AddrMode, seed: u64) -> Self {
        Self::resumed(mode, seed, 0)
    }

    /// Cursor resuming as if `iters_before` iterations had already been
    /// emitted — lets a kernel re-instantiated each timestep continue its
    /// sweep instead of re-touching the same few lines (real array sweeps
    /// stream; they only wrap at the array boundary).
    pub fn resumed(mode: AddrMode, seed: u64, iters_before: u64) -> Self {
        let offset = match &mode {
            AddrMode::Stride {
                stride, footprint, ..
            }
            | AddrMode::NeighborMix {
                stride, footprint, ..
            } => (iters_before * stride) % (*footprint).max(*stride),
            AddrMode::Irregular { .. } => 0,
        };
        AddrCursor {
            mode,
            offset,
            rng: SplitMix64::new(seed.wrapping_add(iters_before)),
        }
    }

    /// Address for the next iteration.
    pub fn next_addr(&mut self) -> u64 {
        match &self.mode {
            AddrMode::Stride {
                layout,
                stride,
                footprint,
            } => {
                let a = layout.addr(self.offset);
                self.offset = (self.offset + stride) % (*footprint).max(*stride);
                a
            }
            AddrMode::Irregular { layout, footprint } => {
                let slots = (footprint / 8).max(1);
                layout.addr(self.rng.below(slots) * 8)
            }
            AddrMode::NeighborMix {
                own,
                neighbor,
                stride,
                footprint,
                neighbor_frac,
            } => {
                let use_neighbor = self.rng.chance(*neighbor_frac);
                let l = if use_neighbor { neighbor } else { own };
                let a = l.addr(self.offset);
                self.offset = (self.offset + stride) % (*footprint).max(*stride);
                a
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_layout_is_identity_plus_base() {
        let l = Layout {
            base: 0x1000,
            node: 0,
            n_nodes: 1,
        };
        assert_eq!(l.addr(0), 0x1000);
        assert_eq!(l.addr(12345), 0x1000 + 12345);
    }

    #[test]
    fn node_local_layout_keeps_pages_on_one_node() {
        // 4 nodes: home(page) = page % 4 under the directory's round-robin.
        for node in 0..4u64 {
            let l = Layout {
                base: 0,
                node,
                n_nodes: 4,
            };
            for logical in [0u64, 8, 4095, 4096, 8192, 100_000] {
                let phys = l.addr(logical);
                assert_eq!(
                    (phys / PAGE_SIZE) % 4,
                    node,
                    "logical {logical} node {node}"
                );
            }
        }
    }

    #[test]
    fn node_local_layout_is_injective_within_slice() {
        let l = Layout {
            base: 0,
            node: 2,
            n_nodes: 4,
        };
        let a = l.addr(4000);
        let b = l.addr(4100); // next logical page
        assert_ne!(a, b);
        assert!(b > a, "monotone across pages");
    }

    #[test]
    fn private_slices_do_not_overlap() {
        let l0 = Layout::private_slice(0, 4, 2);
        let l1 = Layout::private_slice(1, 4, 2);
        // Node spreading dilates a slice to SLICE_SPAN × n_nodes physical
        // bytes; bases are spaced by exactly that.
        assert!(l0.addr(SLICE_SPAN - 1) < l1.addr(0));
    }

    #[test]
    fn private_slice_assigns_threads_to_nodes_in_blocks() {
        let l = |t| Layout::private_slice(t, 4, 8).node;
        assert_eq!(l(0), 0);
        assert_eq!(l(7), 0);
        assert_eq!(l(8), 1);
        assert_eq!(l(31), 3);
    }

    #[test]
    fn stride_cursor_wraps_at_footprint() {
        let layout = Layout::shared(0);
        let mut c = AddrCursor::new(
            AddrMode::Stride {
                layout,
                stride: 64,
                footprint: 256,
            },
            1,
        );
        let addrs: Vec<u64> = (0..6).map(|_| c.next_addr() - SHARED_BASE).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn irregular_cursor_stays_in_footprint_and_is_aligned() {
        let layout = Layout::shared(0);
        let mut c = AddrCursor::new(
            AddrMode::Irregular {
                layout,
                footprint: 4096,
            },
            3,
        );
        for _ in 0..500 {
            let a = c.next_addr() - SHARED_BASE;
            assert!(a < 4096);
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn neighbor_mix_touches_both_slices() {
        let own = Layout::private_slice(0, 1, 8);
        let neighbor = Layout::private_slice(1, 1, 8);
        let mut c = AddrCursor::new(
            AddrMode::NeighborMix {
                own,
                neighbor,
                stride: 8,
                footprint: 1 << 16,
                neighbor_frac: 0.3,
            },
            5,
        );
        let mut own_n = 0;
        let mut nb_n = 0;
        for _ in 0..1000 {
            let a = c.next_addr();
            if a >= neighbor.base {
                nb_n += 1;
            } else {
                own_n += 1;
            }
        }
        assert!(own_n > 500 && nb_n > 150, "own={own_n} nb={nb_n}");
    }

    #[test]
    fn cursors_are_deterministic() {
        let mk = || {
            AddrCursor::new(
                AddrMode::Irregular {
                    layout: Layout::shared(64),
                    footprint: 65536,
                },
                9,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..200 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }
}
