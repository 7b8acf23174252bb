//! Miss-status holding registers (MSHRs).
//!
//! The base core supports "up to 32 outstanding loads ... with full load
//! bypassing enabled" (§3.1). The MSHR file enforces that limit and merges
//! secondary misses: a second load to a line that is already being fetched
//! does not consume a new entry or issue new traffic — it completes when the
//! primary miss returns.

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must perform the downstream access.
    /// Carries the time at which the entry became available (≥ request time
    /// if the file was full and the request had to queue for a slot).
    Primary {
        /// Time the entry became available.
        start: u64,
    },
    /// Merged with an in-flight miss to the same line; completes at the
    /// primary's completion time.
    Secondary {
        /// Completion time inherited from the primary miss.
        complete_at: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    complete_at: u64,
}

/// Fixed-capacity MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
}

impl MshrFile {
    /// File with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Drop entries whose miss has completed by `now`.
    fn expire(&mut self, now: u64) {
        self.entries.retain(|e| e.complete_at > now);
    }

    /// Present a miss on `line` at time `now`.
    ///
    /// If an entry for `line` is in flight, merge. Otherwise allocate; if
    /// the file is full, the request waits until the earliest entry retires
    /// (returned via `Primary::start`).
    pub fn request(&mut self, line: u64, now: u64) -> MshrOutcome {
        self.expire(now);
        if let Some(e) = self.entries.iter().find(|e| e.line == line) {
            return MshrOutcome::Secondary {
                complete_at: e.complete_at,
            };
        }
        let start = if self.entries.len() >= self.capacity {
            let earliest = self
                .entries
                .iter()
                .map(|e| e.complete_at)
                .min()
                .expect("full file is non-empty");
            // That entry will have retired by `earliest`; evict it now so the
            // new entry can be recorded.
            let pos = self
                .entries
                .iter()
                .position(|e| e.complete_at == earliest)
                .expect("present");
            self.entries.swap_remove(pos);
            earliest
        } else {
            now
        };
        MshrOutcome::Primary { start }
    }

    /// Record the completion time of a primary miss (call after the
    /// downstream latency is known).
    pub fn complete(&mut self, line: u64, complete_at: u64) {
        self.entries.push(Entry { line, complete_at });
        debug_assert!(self.entries.len() <= self.capacity);
    }

    /// Completion time of an in-flight miss on `line`, if any.
    ///
    /// The tag arrays allocate a line as soon as its miss is initiated, so
    /// the hierarchy must ask the MSHR file whether an apparent hit is in
    /// fact a line still in flight (a secondary miss).
    pub fn outstanding_complete(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.complete_at)
    }

    /// Outstanding misses at `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.expire(now);
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary_merge() {
        let mut m = MshrFile::new(4);
        match m.request(10, 0) {
            MshrOutcome::Primary { start } => assert_eq!(start, 0),
            o => panic!("{o:?}"),
        }
        m.complete(10, 50);
        match m.request(10, 5) {
            MshrOutcome::Secondary { complete_at } => assert_eq!(complete_at, 50),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn entry_expires_after_completion() {
        let mut m = MshrFile::new(4);
        m.request(10, 0);
        m.complete(10, 50);
        // At t=60 the fill is done: a new access to line 10 is a fresh primary.
        match m.request(10, 60) {
            MshrOutcome::Primary { start } => assert_eq!(start, 60),
            o => panic!("{o:?}"),
        }
        assert_eq!(m.outstanding(60), 0);
    }

    #[test]
    fn full_file_delays_new_primaries() {
        let mut m = MshrFile::new(2);
        m.request(1, 0);
        m.complete(1, 100);
        m.request(2, 0);
        m.complete(2, 40);
        // File full; third distinct miss waits for the earliest (t=40).
        match m.request(3, 0) {
            MshrOutcome::Primary { start } => assert_eq!(start, 40),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn distinct_lines_use_distinct_entries() {
        let mut m = MshrFile::new(8);
        for line in 0..5 {
            assert!(matches!(m.request(line, 0), MshrOutcome::Primary { .. }));
            m.complete(line, 100);
        }
        assert_eq!(m.outstanding(0), 5);
    }

    #[test]
    fn outstanding_counts_decay_over_time() {
        let mut m = MshrFile::new(8);
        m.request(1, 0);
        m.complete(1, 10);
        m.request(2, 0);
        m.complete(2, 20);
        assert_eq!(m.outstanding(5), 2);
        assert_eq!(m.outstanding(15), 1);
        assert_eq!(m.outstanding(25), 0);
    }
}
