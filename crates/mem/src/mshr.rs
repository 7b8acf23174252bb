//! Miss-status holding registers (MSHRs).
//!
//! The base core supports "up to 32 outstanding loads ... with full load
//! bypassing enabled" (§3.1). The MSHR file enforces that limit and merges
//! secondary misses: a second load to a line that is already being fetched
//! does not consume a new entry or issue new traffic — it completes when the
//! primary miss returns.

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

    /// Allocate an entry for a primary miss on `line` at time `now`,
    /// returning the cycle the entry is available: `now`, or, if the file
    /// is full, the cycle its earliest entry retires. A miss on a line
    /// already in flight merges before it gets here
    /// ([`outstanding_complete`](MshrFile::outstanding_complete)).
    pub fn request(&mut self, line: u64, now: u64) -> u64 {
        self.expire(now);
        debug_assert!(
            self.entries.iter().all(|e| e.line != line),
            "line {line} is already in flight: merge it instead"
        );
        if self.entries.len() < self.capacity {
            return now;
        }
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
        assert_eq!(m.request(10, 0), 0);
        m.complete(10, 50);
        assert_eq!(m.outstanding_complete(10, 5), Some(50));
        assert_eq!(m.outstanding_complete(11, 5), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already in flight")]
    fn a_request_on_an_in_flight_line_is_refused() {
        let mut m = MshrFile::new(4);
        m.request(10, 0);
        m.complete(10, 50);
        m.request(10, 5);
    }

    #[test]
    fn entry_expires_after_completion() {
        let mut m = MshrFile::new(4);
        m.request(10, 0);
        m.complete(10, 50);
        // At t=60 the fill is done: a new access to line 10 is a fresh primary.
        assert_eq!(m.outstanding_complete(10, 60), None);
        assert_eq!(m.request(10, 60), 60);
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
        assert_eq!(m.request(3, 0), 40);
    }

    #[test]
    fn distinct_lines_use_distinct_entries() {
        let mut m = MshrFile::new(8);
        for line in 0..5 {
            assert_eq!(m.request(line, 0), 0);
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
