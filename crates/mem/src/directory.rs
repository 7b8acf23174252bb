//! DASH-like full-map directory cache coherence (paper Figure 3, ref \[8\]).
//!
//! The high-end machine is "a scalable shared-memory multiprocessor similar
//! to DASH": each node holds a slice of global memory plus the directory for
//! that slice. We implement a full-map **MESI** directory at cache-line
//! granularity (DASH itself granted exclusive-clean copies; without the E
//! state every private read-then-write would pay a spurious upgrade trip).
//! Pages are interleaved across nodes (home = `page mod nodes`), so the
//! directory entry for a line lives with its memory.
//!
//! The directory decides *who services a miss*:
//!
//! * line uncached / shared / exclusive-clean ⇒ memory at the home node
//!   (local 40 / remote 60 cycles, Table 3);
//! * line modified in another node's L2 ⇒ cache-to-cache transfer
//!   (remote L2, 75 cycles);
//! * a write touching a line shared by other nodes invalidates them
//!   (penalty charged to the writer, see `config::INVALIDATION_PENALTY`).

use csmt_isa::FxHashMap;

/// Sharer bitmask; the paper's machines have at most 4 nodes, we allow 32.
pub type NodeMask = u32;

/// Per-line directory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies.
    Uncached,
    /// Clean copies at the nodes in the mask.
    Shared(NodeMask),
    /// Clean copy at exactly one node (may be silently upgraded to Modified).
    Exclusive(u8),
    /// Dirty copy owned by one node.
    Modified(u8),
}

/// Who must service the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Home memory, home node == requester.
    LocalMem,
    /// Home memory at a remote node.
    RemoteMem,
    /// Dirty line in another node's L2: cache-to-cache transfer. The owner
    /// field tells the hierarchy whose copies a read downgrades to clean
    /// (a write invalidates them: the owner is in the invalidated mask).
    RemoteL2 {
        /// Node whose L2 holds the dirty line.
        owner: usize,
    },
    /// No data movement needed (silent E→M upgrade by the owner).
    None,
}

/// Result of a directory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirOutcome {
    /// Which resource supplies the data (or `None` for silent upgrades).
    pub service: Service,
    /// Bitmask of nodes whose cached copies must be dropped by the caller
    /// (writes only; never the requester): its population count is the
    /// number of invalidations sent.
    pub invalidated_mask: NodeMask,
}

impl DirOutcome {
    /// An outcome that invalidates no copy.
    fn quiet(service: Service) -> Self {
        DirOutcome {
            service,
            invalidated_mask: 0,
        }
    }
}

/// Full-map directory for all lines homed across `nodes` nodes.
#[derive(Debug, Clone)]
pub struct Directory {
    /// Per-line states, fixed-seed Fx-hashed: looked up on every miss and
    /// every multi-node write, never iterated (so hashing determinism is
    /// for speed and reproducibility hygiene, not correctness).
    lines: FxHashMap<u64, DirState>,
    nodes: usize,
    /// Lines per page, for computing homes (pages interleave round-robin).
    lines_per_page: u64,
}

impl Directory {
    /// Directory for `nodes` nodes with `lines_per_page` lines per page.
    pub fn new(nodes: usize, lines_per_page: u64) -> Self {
        assert!((1..=32).contains(&nodes));
        assert!(lines_per_page >= 1);
        let mut lines = FxHashMap::default();
        // Directory entries accrete one per touched line; start with room
        // for a realistic working set so early misses don't pay rehashes.
        lines.reserve(1 << 12);
        Self {
            lines,
            nodes,
            lines_per_page,
        }
    }

    /// Home node of a line: pages are interleaved round-robin across nodes.
    #[inline]
    pub fn home_of(&self, line: u64) -> usize {
        ((line / self.lines_per_page) % self.nodes as u64) as usize
    }

    fn state(&self, line: u64) -> DirState {
        *self.lines.get(&line).unwrap_or(&DirState::Uncached)
    }

    fn mem_service(&self, line: u64, node: usize) -> Service {
        if self.home_of(line) == node {
            Service::LocalMem
        } else {
            Service::RemoteMem
        }
    }

    /// A read miss from `node` for `line`.
    pub fn read(&mut self, line: u64, node: usize) -> DirOutcome {
        debug_assert!(node < self.nodes);
        let bit = 1u32 << node;
        match self.state(line) {
            DirState::Uncached => {
                self.lines.insert(line, DirState::Exclusive(node as u8));
                DirOutcome::quiet(self.mem_service(line, node))
            }
            DirState::Shared(m) => {
                self.lines.insert(line, DirState::Shared(m | bit));
                DirOutcome::quiet(self.mem_service(line, node))
            }
            DirState::Exclusive(owner) => {
                if owner as usize == node {
                    // Silent eviction followed by a refetch: still exclusive.
                    return DirOutcome::quiet(self.mem_service(line, node));
                }
                // Clean copy elsewhere: home memory supplies; both now share.
                self.lines
                    .insert(line, DirState::Shared(bit | (1u32 << owner)));
                DirOutcome::quiet(self.mem_service(line, node))
            }
            DirState::Modified(owner) => {
                if owner as usize == node {
                    // Silent-eviction refetch of a dirty line the directory
                    // still attributes to us; no writeback is modelled, fall
                    // back to memory and downgrade.
                    self.lines.insert(line, DirState::Exclusive(node as u8));
                    return DirOutcome::quiet(self.mem_service(line, node));
                }
                // Dirty elsewhere: cache-to-cache transfer; owner keeps a
                // clean shared copy.
                self.lines
                    .insert(line, DirState::Shared(bit | (1u32 << owner)));
                DirOutcome::quiet(Service::RemoteL2 {
                    owner: owner as usize,
                })
            }
        }
    }

    /// A write from `node` for `line` — used both for write misses and for
    /// upgrades of a locally cached clean copy.
    pub fn write(&mut self, line: u64, node: usize) -> DirOutcome {
        debug_assert!(node < self.nodes);
        let bit = 1u32 << node;
        match self.state(line) {
            DirState::Uncached => {
                self.lines.insert(line, DirState::Modified(node as u8));
                DirOutcome::quiet(self.mem_service(line, node))
            }
            DirState::Shared(m) => {
                self.lines.insert(line, DirState::Modified(node as u8));
                // If we already held a shared copy this is an upgrade: the
                // directory transaction still happens (home round trip) but
                // no data moves. We charge the memory service either way —
                // the home must be visited.
                DirOutcome {
                    service: self.mem_service(line, node),
                    invalidated_mask: m & !bit,
                }
            }
            DirState::Exclusive(owner) => {
                if owner as usize == node {
                    // Silent E→M upgrade: free, no transaction on the wire.
                    self.lines.insert(line, DirState::Modified(node as u8));
                    return DirOutcome::quiet(Service::None);
                }
                // Clean copy elsewhere: invalidate it, memory supplies.
                self.lines.insert(line, DirState::Modified(node as u8));
                DirOutcome {
                    service: self.mem_service(line, node),
                    invalidated_mask: 1u32 << owner,
                }
            }
            DirState::Modified(owner) => {
                if owner as usize == node {
                    // Already ours and dirty (directory lost track of a
                    // silent eviction): free.
                    return DirOutcome::quiet(Service::None);
                }
                self.lines.insert(line, DirState::Modified(node as u8));
                DirOutcome {
                    service: Service::RemoteL2 {
                        owner: owner as usize,
                    },
                    invalidated_mask: 1u32 << owner,
                }
            }
        }
    }

    /// Current state of `line` (for tests).
    pub fn inspect(&self, line: u64) -> DirState {
        self.state(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir4() -> Directory {
        // 64 lines per 4K page.
        Directory::new(4, 64)
    }

    #[test]
    fn homes_are_page_interleaved() {
        let d = dir4();
        assert_eq!(d.home_of(0), 0);
        assert_eq!(d.home_of(63), 0); // same page
        assert_eq!(d.home_of(64), 1);
        assert_eq!(d.home_of(128), 2);
        assert_eq!(d.home_of(192), 3);
        assert_eq!(d.home_of(256), 0); // wraps
    }

    #[test]
    fn cold_read_grants_exclusive_from_home_memory() {
        let mut d = dir4();
        let o = d.read(0, 0); // home(0) == 0
        assert_eq!(o.service, Service::LocalMem);
        assert_eq!(d.inspect(0), DirState::Exclusive(0));
        let o = d.read(64, 0); // home(64) == 1
        assert_eq!(o.service, Service::RemoteMem);
    }

    #[test]
    fn second_reader_downgrades_exclusive_to_shared() {
        let mut d = dir4();
        d.read(5, 0);
        let o = d.read(5, 2);
        // home(5) = 0, requester is node 2 ⇒ remote memory supplies.
        assert_eq!(o.service, Service::RemoteMem);
        assert_eq!(d.inspect(5), DirState::Shared(0b0101));
    }

    #[test]
    fn readers_accumulate_in_sharer_mask() {
        let mut d = dir4();
        d.read(5, 0);
        d.read(5, 2);
        d.read(5, 3);
        assert_eq!(d.inspect(5), DirState::Shared(0b1101));
    }

    #[test]
    fn silent_upgrade_is_free_for_exclusive_owner() {
        let mut d = dir4();
        d.read(5, 1);
        let o = d.write(5, 1);
        assert_eq!(o, DirOutcome::quiet(Service::None));
        assert_eq!(d.inspect(5), DirState::Modified(1));
    }

    #[test]
    fn write_to_shared_invalidates_remote_sharers_only() {
        let mut d = dir4();
        d.read(5, 0);
        d.read(5, 1);
        d.read(5, 2);
        let o = d.write(5, 1);
        assert_eq!(o.invalidated_mask, 0b0101); // nodes 0 and 2, not the writer
        assert_eq!(d.inspect(5), DirState::Modified(1));
    }

    #[test]
    fn read_of_modified_line_is_cache_to_cache() {
        let mut d = dir4();
        d.read(7, 2);
        d.write(7, 2); // silent upgrade
        let o = d.read(7, 0);
        assert_eq!(o, DirOutcome::quiet(Service::RemoteL2 { owner: 2 }));
        // Both the reader and the old owner now share the line.
        assert_eq!(d.inspect(7), DirState::Shared(0b0101));
    }

    #[test]
    fn write_of_modified_line_transfers_ownership() {
        let mut d = dir4();
        d.write(7, 2);
        let o = d.write(7, 3);
        assert_eq!(o.service, Service::RemoteL2 { owner: 2 });
        assert_eq!(o.invalidated_mask, 0b0100);
        assert_eq!(d.inspect(7), DirState::Modified(3));
    }

    #[test]
    fn write_to_remote_exclusive_clean_invalidates_without_c2c() {
        let mut d = dir4();
        d.read(7, 2); // exclusive clean at node 2
        let o = d.write(7, 0);
        assert_eq!(o.invalidated_mask, 0b0100);
        // home(7) = 0 and the writer is node 0 ⇒ local memory supplies.
        assert_eq!(o.service, Service::LocalMem);
        assert_eq!(d.inspect(7), DirState::Modified(0));
    }

    #[test]
    fn owner_refetch_after_silent_eviction_downgrades_modified() {
        let mut d = dir4();
        d.write(9, 1);
        let o = d.read(9, 1);
        assert_eq!(d.inspect(9), DirState::Exclusive(1));
        assert_eq!(o, DirOutcome::quiet(Service::RemoteMem)); // home(9) = 0
    }

    #[test]
    fn single_node_machine_is_always_local_and_quiet() {
        let mut d = Directory::new(1, 64);
        for line in 0..100 {
            let r = d.read(line, 0);
            assert_eq!(r.service, Service::LocalMem);
            let w = d.write(line, 0);
            assert_eq!(w.invalidated_mask, 0);
            assert!(matches!(w.service, Service::LocalMem | Service::None));
        }
    }
}
