//! Reservation-timeline resources — the contention primitive.
//!
//! A [`Resource`] is anything that can serve one request at a time for a
//! fixed occupancy (a cache bank, a directory controller, a network link, a
//! memory channel). Requests reserve the earliest gap in the resource's
//! timeline that fits their occupancy, at or after their arrival time.
//!
//! The timeline keeps *intervals*, not just a busy-until horizon: cache-fill
//! reservations land in the future (when the line returns), and accesses
//! arriving in the meantime must be able to use the idle slots in between —
//! a pure horizon model would charge them phantom queueing.

/// A single resource with an interval-based reservation timeline.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    /// Sorted, disjoint busy intervals `[start, end)` still in the future.
    intervals: Vec<(u64, u64)>,
}

impl Resource {
    /// New, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource at time `now` for `occupancy` cycles: takes the
    /// earliest gap of that length at or after `now`. Returns the cycle at
    /// which service starts (≥ `now`).
    pub fn reserve(&mut self, now: u64, occupancy: u64) -> u64 {
        // Drop intervals entirely in the past.
        let first_live = self.intervals.partition_point(|&(_, e)| e <= now);
        if first_live > 0 {
            self.intervals.drain(..first_live);
        }
        let mut start = now;
        let mut insert_at = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate() {
            if start + occupancy <= s {
                insert_at = i;
                break;
            }
            start = start.max(e);
        }
        self.intervals.insert(insert_at, (start, start + occupancy));
        // Merge with neighbours that touch (keeps the list compact).
        if insert_at + 1 < self.intervals.len()
            && self.intervals[insert_at].1 == self.intervals[insert_at + 1].0
        {
            self.intervals[insert_at].1 = self.intervals[insert_at + 1].1;
            self.intervals.remove(insert_at + 1);
        }
        if insert_at > 0 && self.intervals[insert_at - 1].1 == self.intervals[insert_at].0 {
            self.intervals[insert_at - 1].1 = self.intervals[insert_at].1;
            self.intervals.remove(insert_at);
        }
        start
    }

    /// Queue at `*t` for `occupancy` cycles: reserve the resource, advance
    /// `*t` to the start of service and return the wait.
    #[inline]
    pub(crate) fn queue(&mut self, t: &mut u64, occupancy: u64) -> u64 {
        let start = self.reserve(*t, occupancy);
        let wait = start - *t;
        *t = start;
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.reserve(10, 3), 10);
        assert_eq!(r.intervals, [(10, 13)]);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = Resource::new();
        assert_eq!(r.reserve(0, 5), 0);
        assert_eq!(r.reserve(1, 5), 5); // waits 4
        assert_eq!(r.reserve(2, 5), 10); // waits 8
    }

    #[test]
    fn resource_goes_idle_between_bursts() {
        let mut r = Resource::new();
        r.reserve(0, 2);
        assert_eq!(r.reserve(100, 2), 100);
    }

    #[test]
    fn future_reservation_leaves_earlier_gaps_usable() {
        let mut r = Resource::new();
        // A fill scheduled far in the future...
        assert_eq!(r.reserve(40, 8), 40);
        // ...must not delay a request arriving now.
        assert_eq!(r.reserve(2, 1), 2);
    }

    #[test]
    fn gap_too_small_pushes_past_the_interval() {
        let mut r = Resource::new();
        r.reserve(10, 5); // busy [10, 15)
                          // A 12-cycle job arriving at 5 does not fit in [5, 10); starts at 15.
        assert_eq!(r.reserve(5, 12), 15);
        // A 3-cycle job arriving at 5 fits before.
        assert_eq!(r.reserve(5, 3), 5);
    }

    #[test]
    fn adjacent_intervals_merge() {
        let mut r = Resource::new();
        r.reserve(0, 5);
        r.reserve(5, 5);
        r.reserve(10, 5);
        assert_eq!(r.intervals.len(), 1);
        assert_eq!(r.intervals[0].1, 15);
    }

    #[test]
    fn past_intervals_are_pruned() {
        let mut r = Resource::new();
        for t in 0..100 {
            r.reserve(t * 10, 2);
        }
        r.reserve(10_000, 1);
        assert!(r.intervals.len() <= 2, "{}", r.intervals.len());
    }
}
