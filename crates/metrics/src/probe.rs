//! [`MetricsProbe`]: turns the raw probe event stream into histograms,
//! a top-down attribution tree, IPC/occupancy timelines, and a Perfetto
//! trace — the observability layer ROADMAP item 2's dynamic scheduling
//! policies will read their online signals from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use csmt_trace::{
    CacheEvent, CycleStats, Event, FetchEvent, InflightRing, MigrationEvent, MigrationEventKind,
    Probe, ServiceLevel, StageEvent, Wants, WindowOccEvent,
};

use crate::hist::LogHistogram;
use crate::perfetto::{Counter, PerfettoTrace};
use crate::report::MetricsReport;
use crate::topdown::AttributionTree;

/// Upper bound on Perfetto occupancy slices, so a long run cannot
/// balloon the trace buffer (one small record per slice) or the file;
/// further spans are counted but not emitted.
const SLICE_CAP: usize = 100_000;

/// What we remember about an in-flight instruction between its fetch and
/// its commit/squash.
#[derive(Clone, Copy)]
struct InFlight {
    fetch_cycle: u64,
    thread: u32,
}

/// Everything kept per hardware context: the pipeline-occupancy state
/// for the Perfetto track (how many instructions are in flight, and the
/// open span) and the committed-instruction totals.
#[derive(Default)]
struct CtxState {
    inflight: u32,
    span_start: u64,
    named: bool,
    lifetime: LogHistogram,
    committed: u64,
}

/// One cluster's in-flight instructions and its contexts, both grown on
/// first use (the probe is built without a machine description).
#[derive(Default)]
struct ClusterState {
    inflight: InflightRing<InFlight>,
    ctxs: Vec<CtxState>,
}

/// A probe that accumulates every observability artifact of this crate
/// in one pass over the event stream. Wants the `OCC` (occupancy
/// snapshots) and `SCHED` channels on top of the instruction/cache/cycle
/// ones; composing it with another probe via the tuple impl leaves that
/// probe's event stream bit-for-bit unchanged (enforced by
/// `tests/metrics_reconcile.rs`).
///
/// Call [`finish`](MetricsProbe::finish) after the run to obtain the
/// [`MetricsReport`].
pub struct MetricsProbe {
    interval: u64,
    clusters: Vec<ClusterState>,
    lifetime_by_cluster: Vec<LogHistogram>,
    load_use: LogHistogram,
    load_use_by_node: Vec<LogHistogram>,
    mshr_residency: LogHistogram,
    window_occ: Vec<LogHistogram>,
    ready_occ: Vec<LogHistogram>,
    /// Most recent occupancy snapshot per cluster, for the counter track.
    last_occ: Vec<(u32, u32)>,
    miss_heap: BinaryHeap<Reverse<u64>>,
    trace: PerfettoTrace,
    slices_emitted: usize,
    slices_dropped: u64,
    prev_snap: CycleStats,
    final_snap: CycleStats,
    final_cycle: u64,
    ipc_timeline: Vec<(u64, f64)>,
    migrations: u64,
    migration_wait: u64,
}

/// Grow a per-cluster (or per-context) vector up to `idx`.
fn at_mut<T: Default>(v: &mut Vec<T>, idx: usize) -> &mut T {
    if v.len() <= idx {
        v.resize_with(idx + 1, T::default);
    }
    &mut v[idx]
}

impl MetricsProbe {
    /// A fresh collector. `interval` is the counter-track sampling period
    /// in cycles (also the IPC-timeline resolution); must be non-zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "metrics interval must be non-zero");
        MetricsProbe {
            interval,
            clusters: Vec::new(),
            lifetime_by_cluster: Vec::new(),
            load_use: LogHistogram::new(),
            load_use_by_node: Vec::new(),
            mshr_residency: LogHistogram::new(),
            window_occ: Vec::new(),
            ready_occ: Vec::new(),
            last_occ: Vec::new(),
            miss_heap: BinaryHeap::new(),
            trace: PerfettoTrace::new(),
            slices_emitted: 0,
            slices_dropped: 0,
            prev_snap: CycleStats::default(),
            final_snap: CycleStats::default(),
            final_cycle: 0,
            ipc_timeline: Vec::new(),
            migrations: 0,
            migration_wait: 0,
        }
    }

    /// Emit one context's occupancy span `[start, end)`.
    fn close_span(&mut self, cluster: u32, ctx: u32, start: u64, end: u64) {
        if self.slices_emitted < SLICE_CAP {
            self.trace
                .occupancy_slice(cluster, ctx, start, end.saturating_sub(start));
            self.slices_emitted += 1;
        } else {
            self.slices_dropped += 1;
        }
    }

    /// Retire one instruction from its cluster's in-flight ring; records
    /// the lifetime histograms only for committed (not squashed)
    /// instructions.
    fn retire(&mut self, e: StageEvent, committed: bool) {
        let Some(cluster) = self.clusters.get_mut(e.cluster as usize) else {
            return;
        };
        let Some(fl) = cluster.inflight.remove(e.uid) else {
            return;
        };
        // The fetch that inserted `fl` also grew `ctxs` to its thread.
        let ctx = &mut cluster.ctxs[fl.thread as usize];
        if committed {
            let lifetime = e.cycle - fl.fetch_cycle;
            at_mut(&mut self.lifetime_by_cluster, e.cluster as usize).record(lifetime);
            ctx.lifetime.record(lifetime);
            ctx.committed += 1;
        }
        ctx.inflight = ctx.inflight.saturating_sub(1);
        if ctx.inflight == 0 {
            // Slice covers [span_start, e.cycle]: the instruction was
            // still in flight this cycle.
            let start = ctx.span_start;
            self.close_span(e.cluster, fl.thread, start, e.cycle + 1);
        }
    }

    /// Finalize: close open spans, flush trailing timeline samples, and
    /// build the report. `MetricsProbe` is consumed — the report owns the
    /// Perfetto trace.
    pub fn finish(mut self) -> MetricsReport {
        // Close any spans still open at the end of the run, and lift the
        // per-context totals of every context that committed anything —
        // both in ascending (cluster, context) order.
        let clusters = std::mem::take(&mut self.clusters);
        let mut lifetime_by_thread = Vec::new();
        let mut committed_by_thread = Vec::new();
        for (cluster, state) in (0u32..).zip(clusters) {
            for (ctx, c) in (0u32..).zip(state.ctxs) {
                if c.inflight > 0 {
                    self.close_span(cluster, ctx, c.span_start, self.final_cycle + 1);
                }
                if c.committed > 0 {
                    lifetime_by_thread.push(((cluster, ctx), c.lifetime));
                    committed_by_thread.push(((cluster, ctx), c.committed));
                }
            }
        }
        // Trailing partial interval for the IPC timeline.
        if self.final_snap.cycles > self.prev_snap.cycles {
            self.sample_counters(self.final_cycle);
        }

        let s = &self.final_snap;
        let topdown =
            AttributionTree::from_slots(s.useful, &s.wasted, s.slots, s.cycles, s.committed);
        MetricsReport {
            topdown,
            lifetime_by_cluster: self.lifetime_by_cluster,
            lifetime_by_thread,
            committed_by_thread,
            load_use: self.load_use,
            load_use_by_node: self.load_use_by_node,
            mshr_residency: self.mshr_residency,
            window_occ: self.window_occ,
            ready_occ: self.ready_occ,
            ipc_timeline: self.ipc_timeline,
            trace: self.trace,
            slices_dropped: self.slices_dropped,
            migrations: self.migrations,
            migration_wait_cycles: self.migration_wait,
        }
    }

    /// Emit one counter-track sample set at `cycle` and advance the
    /// interval baseline.
    fn sample_counters(&mut self, cycle: u64) {
        let d_cycles = self.final_snap.cycles - self.prev_snap.cycles;
        let d_committed = self.final_snap.committed - self.prev_snap.committed;
        let ipc = if d_cycles > 0 {
            d_committed as f64 / d_cycles as f64
        } else {
            0.0
        };
        self.ipc_timeline.push((cycle, ipc));
        self.trace.counter(Counter::Ipc, cycle, ipc);
        self.trace
            .counter(Counter::InflightMisses, cycle, self.miss_heap.len() as f64);
        for (cluster, &(occ, _ready)) in (0u32..).zip(&self.last_occ) {
            self.trace
                .counter(Counter::WindowOcc(cluster), cycle, f64::from(occ));
        }
        self.prev_snap = self.final_snap;
    }
}

impl Probe for MetricsProbe {
    const WANTS: Wants = Wants::INST
        .union(Wants::CACHE)
        .union(Wants::CYCLE_STATS)
        .union(Wants::OCC)
        .union(Wants::SCHED);

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::Fetch(e) => self.fetch(e),
            Event::Commit(e) => self.retire(e, true),
            Event::Squash(e) => self.retire(e, false),
            Event::Cache(e) => self.cache_access(e),
            Event::Migration(e) => self.migration(e),
            Event::WindowOcc(e) => self.window_occ(e),
            Event::CycleEnd { cycle, stats } => self.cycle_end(cycle, stats),
            _ => {}
        }
    }
}

/// The per-event bodies behind [`Probe::on`].
impl MetricsProbe {
    fn fetch(&mut self, e: FetchEvent) {
        let cluster = at_mut(&mut self.clusters, e.cluster as usize);
        cluster.inflight.insert(
            e.uid,
            InFlight {
                fetch_cycle: e.cycle,
                thread: e.thread,
            },
        );
        let ctx = at_mut(&mut cluster.ctxs, e.thread as usize);
        if !ctx.named {
            ctx.named = true;
            self.trace.thread_track(e.cluster, e.thread);
        }
        if ctx.inflight == 0 {
            ctx.span_start = e.cycle;
        }
        ctx.inflight += 1;
    }

    fn cache_access(&mut self, e: CacheEvent) {
        let latency = e.complete_at.saturating_sub(e.cycle);
        if !e.write {
            self.load_use.record(latency);
            at_mut(&mut self.load_use_by_node, e.node as usize).record(latency);
        }
        if e.level != ServiceLevel::L1 {
            // Anything past the L1 allocated (or merged into) an MSHR
            // entry that lives until the fill: its residency is the
            // remaining service latency.
            self.mshr_residency.record(latency);
            self.miss_heap.push(Reverse(e.complete_at));
        }
    }

    fn migration(&mut self, e: MigrationEvent) {
        if e.kind == MigrationEventKind::Arrive {
            self.migrations += 1;
            self.migration_wait += e.wait;
        }
        self.trace.sched_instant(e);
    }

    fn window_occ(&mut self, e: WindowOccEvent) {
        let idx = e.cluster as usize;
        at_mut(&mut self.window_occ, idx).record(u64::from(e.occupied));
        at_mut(&mut self.ready_occ, idx).record(u64::from(e.ready));
        if self.last_occ.len() <= idx {
            self.last_occ.resize(idx + 1, (0, 0));
        }
        self.last_occ[idx] = (e.occupied, e.ready);
    }

    fn cycle_end(&mut self, cycle: u64, stats: Option<&CycleStats>) {
        if let Some(s) = stats {
            self.final_snap = *s;
        }
        self.final_cycle = cycle;
        while let Some(&Reverse(t)) = self.miss_heap.peek() {
            if t > cycle {
                break;
            }
            self.miss_heap.pop();
        }
        if (cycle + 1).is_multiple_of(self.interval) {
            self.sample_counters(cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfetto::{validate_trace, Record};
    use csmt_isa::OpClass;

    fn fetch(cluster: u32, thread: u32, uid: u64, cycle: u64) -> FetchEvent {
        FetchEvent {
            cycle,
            cluster,
            thread,
            uid,
            pc: 0x400 + uid * 4,
            op: OpClass::IntAlu,
            wrong_path: false,
        }
    }

    fn stage(cluster: u32, uid: u64, cycle: u64) -> StageEvent {
        StageEvent {
            cycle,
            cluster,
            uid,
        }
    }

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
    fn lifetime_histogram_tracks_fetch_to_commit() {
        let mut p = MetricsProbe::new(1000);
        p.fetch(fetch(0, 1, 7, 10));
        p.fetch(fetch(0, 1, 8, 11));
        p.on(&Event::Commit(stage(0, 7, 25))); // lifetime 15
        p.on(&Event::Squash(stage(0, 8, 30))); // squashed: not in the histogram
        p.cycle_end(30, Some(&snap(31, 1)));
        let r = p.finish();
        assert_eq!(r.lifetime_by_cluster[0].count(), 1);
        assert_eq!(r.lifetime_by_cluster[0].max(), 15);
        assert_eq!(r.lifetime_by_thread.len(), 1);
        assert_eq!(r.lifetime_by_thread[0].0, (0, 1));
        assert_eq!(r.committed_by_thread, vec![((0, 1), 1)]);
    }

    #[test]
    fn load_use_and_mshr_histograms_split_by_service_level() {
        let mut p = MetricsProbe::new(1000);
        let access = |cycle, write, level, complete_at| CacheEvent {
            cycle,
            node: 0,
            addr: 0x1000,
            write,
            level,
            tlb_miss: false,
            complete_at,
        };
        p.cache_access(access(10, false, ServiceLevel::L1, 12)); // load, hit
        p.cache_access(access(20, false, ServiceLevel::L2, 35)); // load, miss
        p.cache_access(access(30, true, ServiceLevel::LocalMem, 90)); // store, miss
        p.cycle_end(100, Some(&snap(101, 5)));
        let r = p.finish();
        assert_eq!(r.load_use.count(), 2); // both loads, not the store
        assert_eq!(r.mshr_residency.count(), 2); // both misses, not the L1 hit
        assert_eq!(r.load_use.min(), 2);
        assert_eq!(r.mshr_residency.max(), 60);
    }

    #[test]
    fn occupancy_snapshots_feed_per_cluster_histograms() {
        let mut p = MetricsProbe::new(1000);
        for (cycle, occ, ready) in [(0, 10, 2), (1, 12, 4), (2, 12, 0)] {
            p.window_occ(WindowOccEvent {
                cycle,
                cluster: 1,
                occupied: occ,
                ready,
            });
        }
        p.cycle_end(2, Some(&snap(3, 0)));
        let r = p.finish();
        assert_eq!(r.window_occ[1].count(), 3);
        assert_eq!(r.window_occ[1].max(), 12);
        assert_eq!(r.ready_occ[1].max(), 4);
        assert_eq!(r.window_occ[0].count(), 0); // untouched cluster present but empty
    }

    #[test]
    fn topdown_tree_mirrors_the_final_cycle_stats() {
        let mut p = MetricsProbe::new(1000);
        let mut s = snap(50, 120);
        s.wasted[2] = 30.0; // memory
        s.wasted[5] = 10.0; // sync
        p.cycle_end(49, Some(&s));
        let r = p.finish();
        assert_eq!(r.topdown.total_slots, 200);
        assert_eq!(r.topdown.committed, 120);
        assert_eq!(r.topdown.node("memory_bound").unwrap().slots, 30.0);
        assert_eq!(r.topdown.node("sync_bound").unwrap().slots, 10.0);
    }

    #[test]
    fn ipc_timeline_samples_at_interval_boundaries_plus_tail() {
        let mut p = MetricsProbe::new(10);
        for c in 0..25u64 {
            p.cycle_end(c, Some(&snap(c + 1, (c + 1) * 2)));
        }
        let r = p.finish();
        // Boundaries at cycles 9 and 19, plus the trailing partial.
        assert_eq!(r.ipc_timeline.len(), 3);
        assert_eq!(r.ipc_timeline[0].0, 9);
        assert_eq!(r.ipc_timeline[1].0, 19);
        assert_eq!(r.ipc_timeline[2].0, 24);
        for &(_, ipc) in &r.ipc_timeline {
            assert!((ipc - 2.0).abs() < 1e-9, "ipc {ipc}");
        }
    }

    #[test]
    fn perfetto_spans_merge_overlapping_instructions() {
        let mut p = MetricsProbe::new(1000);
        // Two overlapping instructions on one context: one span.
        p.fetch(fetch(0, 0, 1, 5));
        p.fetch(fetch(0, 0, 2, 6));
        p.on(&Event::Commit(stage(0, 1, 10)));
        p.on(&Event::Commit(stage(0, 2, 14)));
        // A third after a gap: second span.
        p.fetch(fetch(0, 0, 3, 20));
        p.on(&Event::Commit(stage(0, 3, 22)));
        p.cycle_end(25, Some(&snap(26, 3)));
        let r = p.finish();
        let slices: Vec<_> = r
            .trace
            .events()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].get("ts").and_then(serde::Value::as_u64), Some(5));
        assert_eq!(
            slices[0].get("dur").and_then(serde::Value::as_u64),
            Some(10) // [5, 14]: still in flight on its commit cycle
        );
        assert_eq!(slices[1].get("ts").and_then(serde::Value::as_u64), Some(20));
        assert_eq!(r.slices_dropped, 0);
    }

    #[test]
    fn slice_cap_bounds_the_trace_and_counts_the_overflow() {
        // A slice is its numbers, not a JSON tree: the cap then bounds
        // the buffer at a few MB.
        assert!(std::mem::size_of::<Record>() <= 40);
        const OVERFLOW: u64 = 7;
        let spans = SLICE_CAP as u64 + OVERFLOW;
        let mut p = MetricsProbe::new(1000);
        for uid in 0..spans {
            // Alone in flight: one span opens at the fetch, closes at
            // the commit.
            p.fetch(fetch(0, 0, uid, 2 * uid));
            p.on(&Event::Commit(stage(0, uid, 2 * uid)));
        }
        let last = 2 * spans;
        p.cycle_end(last, Some(&snap(last + 1, spans)));
        let r = p.finish();
        assert_eq!(r.slices_dropped, OVERFLOW);
        // Three process names, one thread track, the kept slices, and the
        // trailing `ipc` + `inflight_misses` samples.
        assert_eq!(r.trace.len(), 3 + 1 + SLICE_CAP + 2);
        let doc = serde::Value::Object(vec![(
            "traceEvents".into(),
            serde::Value::Array(r.trace.events().collect()),
        )]);
        assert_eq!(validate_trace(&doc), Ok(r.trace.len()));
    }
}
