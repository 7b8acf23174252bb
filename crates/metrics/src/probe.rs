//! [`MetricsProbe`]: the run's §4.1 slot accounting as a top-down
//! attribution tree, and the thread migrations its scheduling policy made.

use csmt_trace::{CycleStats, Event, MigrationEventKind, Probe, Wants};

use crate::report::MetricsReport;
use crate::topdown::AttributionTree;

/// A probe that keeps the last end-of-cycle [`CycleStats`] snapshot — the
/// run's cumulative slot accounting — and counts completed migrations.
/// Composing it with another probe via the tuple impl leaves that probe's
/// event stream bit-for-bit unchanged (enforced by
/// `tests/metrics_reconcile.rs`).
///
/// Call [`finish`](MetricsProbe::finish) after the run to obtain the
/// [`MetricsReport`].
#[derive(Debug, Default)]
pub struct MetricsProbe {
    last: CycleStats,
    migrations: u64,
    migration_wait: u64,
}

impl MetricsProbe {
    /// A fresh collector, as [`MetricsProbe::default`]. The argument is
    /// ignored: it was the sampling period of the deleted IPC timeline and
    /// Perfetto counter tracks, and stays only while the frozen
    /// `benchmark/` harness calls `new(1000)`.
    #[must_use]
    pub fn new(_interval: u64) -> Self {
        Self::default()
    }

    /// Build the report from the last snapshot.
    #[must_use]
    pub fn finish(self) -> MetricsReport {
        let s = &self.last;
        MetricsReport {
            topdown: AttributionTree::from_slots(
                s.useful,
                &s.wasted,
                s.slots,
                s.cycles,
                s.committed,
            ),
            migrations: self.migrations,
            migration_wait_cycles: self.migration_wait,
        }
    }
}

impl Probe for MetricsProbe {
    const WANTS: Wants = Wants::CYCLE_STATS.union(Wants::SCHED);

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::CycleEnd { stats: Some(s), .. } => self.last = *s,
            Event::Migration(e) if e.kind == MigrationEventKind::Arrive => {
                self.migrations += 1;
                self.migration_wait += e.wait;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::MigrationEvent;

    fn snap(cycles: u64, committed: u64) -> CycleStats {
        CycleStats {
            useful: committed as f64,
            wasted: [0.0; 7],
            slots: cycles * 4,
            cycles,
            committed,
            ..CycleStats::default()
        }
    }

    #[test]
    fn topdown_tree_mirrors_the_final_cycle_stats() {
        let mut p = MetricsProbe::default();
        p.on(&Event::CycleEnd {
            cycle: 9,
            stats: Some(&snap(10, 20)),
        });
        let mut s = snap(50, 120);
        s.wasted[2] = 30.0; // memory
        s.wasted[5] = 10.0; // sync
        p.on(&Event::CycleEnd {
            cycle: 49,
            stats: Some(&s),
        });
        let r = p.finish();
        assert_eq!(r.topdown.total_slots, 200);
        assert_eq!(r.topdown.committed, 120);
        assert_eq!(r.topdown.node("memory_bound").unwrap().slots, 30.0);
        assert_eq!(r.topdown.node("sync_bound").unwrap().slots, 10.0);
    }

    #[test]
    fn only_arrivals_count_as_migrations() {
        let mut p = MetricsProbe::default();
        for (kind, wait) in [
            (MigrationEventKind::Attach, 0),
            (MigrationEventKind::Depart, 0),
            (MigrationEventKind::Arrive, 120),
            (MigrationEventKind::Arrive, 80),
        ] {
            p.on(&Event::Migration(MigrationEvent {
                cycle: 10,
                thread: 0,
                cluster: 1,
                ctx: 0,
                kind,
                wait,
            }));
        }
        let r = p.finish();
        assert_eq!((r.migrations, r.migration_wait_cycles), (2, 200));
    }
}
