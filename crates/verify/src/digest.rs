//! The canonical event-stream digest: FNV-1a over the `Debug` rendering
//! of every probe event, in order.
//!
//! This is THE digest construction behind every bit-for-bit claim the
//! repo makes — the golden Table-2 digests (`tests/golden_determinism.rs`),
//! the migration reproducibility proptest, and the
//! metrics digest-neutrality test all absorb events in exactly this
//! format, so equal streams hash equal across all of them:
//!
//! ```text
//! "{tag}:{payload:?};"     tags: F I W C Q M S G, and E for cycle_end
//! ```
//!
//! The construction is pinned by the golden digest constants; changing
//! the absorb format or the tag set is a behavior change that re-captures
//! every golden value. [`EventDigest`] observes the `INST`, `CACHE`,
//! `CYCLE_STATS` and `SCHED` channels: the scheduler's attach and
//! migration events (tag `G`) are hashed too, so a non-deterministic
//! placement decision changes the hash even when the pipeline events
//! happen to agree.

use csmt_trace::{Event, Probe, Wants};
use std::fmt::Write as _;

/// FNV-1a over bytes; stable across platforms and rustc versions.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// `write!(fnv, ..)` absorbs the rendering without building a `String`.
impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Hashes every probe event on the simulated machine's channels, in
/// order, via its `Debug` rendering (all event payloads derive `Debug`, and the
/// rendering covers every field). The end-of-cycle snapshot is hashed
/// too, covering `SlotStats` accumulation cycle by cycle.
#[derive(Debug)]
pub struct EventDigest {
    fnv: Fnv64,
    buf: String,
    events: u64,
}

impl EventDigest {
    /// An empty digest.
    #[must_use]
    pub fn new() -> Self {
        EventDigest {
            fnv: Fnv64::new(),
            buf: String::with_capacity(256),
            events: 0,
        }
    }

    /// Absorb one `"{tag}:{payload};"` record.
    fn absorb(&mut self, tag: &str, payload: std::fmt::Arguments<'_>) {
        self.buf.clear();
        let _ = write!(self.buf, "{tag}:{payload};");
        self.fnv.update(self.buf.as_bytes());
        self.events += 1;
    }

    /// The stream digest so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.fnv.finish()
    }

    /// Number of events absorbed.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for EventDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for EventDigest {
    const WANTS: Wants = Wants::INST
        .union(Wants::CACHE)
        .union(Wants::CYCLE_STATS)
        .union(Wants::SCHED);

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match ev {
            Event::Fetch(e) => self.absorb("F", format_args!("{e:?}")),
            Event::Issue(e) => self.absorb("I", format_args!("{e:?}")),
            Event::Writeback(e) => self.absorb("W", format_args!("{e:?}")),
            Event::Commit(e) => self.absorb("C", format_args!("{e:?}")),
            Event::Squash(e) => self.absorb("Q", format_args!("{e:?}")),
            Event::Cache(e) => self.absorb("M", format_args!("{e:?}")),
            Event::Sync(e) => self.absorb("S", format_args!("{e:?}")),
            Event::Migration(e) => self.absorb("G", format_args!("{e:?}")),
            Event::CycleEnd(s) => self.absorb("E", format_args!("{s:?}")),
            Event::RenamePools(_) | Event::HostPhase { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a 64-bit test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv64::new();
        h2.update(b"foobar");
        assert_eq!(h2.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_absorbs_in_golden_format() {
        // The absorb format is pinned: "{tag}:{payload};" — byte-compare
        // against a manual FNV of the rendered record. A cycle-end record
        // is its snapshot alone.
        let stats = csmt_trace::CycleStats::default();
        let mut d = EventDigest::new();
        d.on(&Event::CycleEnd(&stats));
        let mut h = Fnv64::new();
        h.update(format!("E:{stats:?};").as_bytes());
        assert_eq!(d.hash(), h.finish());
        assert_eq!(d.events(), 1);
    }
}
