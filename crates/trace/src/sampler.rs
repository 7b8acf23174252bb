//! JSONL heartbeat sampler: one JSON object every N cycles.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde::Value;

use csmt_isa::Hazard;

use crate::probe::{CycleStats, Event, Probe, Wants};

/// Emits a machine heartbeat as one JSON object per line, every
/// `interval` cycles, by differencing consecutive [`CycleStats`]
/// snapshots. Each record carries the interval's IPC, the §4.1 slot
/// breakdown both as raw slot counts and as fractions in the paper's
/// legend order, cache miss rates, and the running-thread count at the
/// interval boundary.
///
/// Because `SlotStats::record_cycle` conserves slots
/// (`useful + Σ wasted == issue_width × cycles` every cycle), the
/// emitted `useful_frac + Σ wasted_frac` sums to 1 for every interval,
/// and the raw slot counts across all records telescope to the final
/// `SlotStats` of the run.
///
/// A final partial interval (if any cycles ran past the last boundary)
/// is emitted by [`finish`](IntervalSampler::finish). I/O errors are
/// sticky: the first one stops further output and is returned by
/// `finish`. Call `finish` explicitly to handle that error yourself —
/// if the sampler is instead dropped with a failed or unflushed final
/// interval, [`Drop`] **panics** with the underlying error rather than
/// silently truncating the heartbeat stream (unless the thread is
/// already panicking, in which case the error goes to stderr).
pub struct IntervalSampler<W: Write = BufWriter<File>> {
    out: W,
    interval: u64,
    /// Snapshot at the last emitted boundary.
    prev: CycleStats,
    /// Most recent snapshot seen: its interval is pending while it is
    /// ahead of `prev`.
    last: CycleStats,
    error: Option<io::Error>,
}

impl IntervalSampler<BufWriter<File>> {
    /// Create a sampler writing JSONL to the file at `path`.
    pub fn create(path: impl AsRef<Path>, interval: u64) -> io::Result<Self> {
        let path = path.as_ref();
        let file = File::create(path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("creating heartbeat file {}: {e}", path.display()),
            )
        })?;
        Ok(Self::new(BufWriter::new(file), interval))
    }
}

impl<W: Write> IntervalSampler<W> {
    /// Create a sampler over any writer. `interval` must be non-zero.
    pub fn new(out: W, interval: u64) -> Self {
        assert!(interval > 0, "heartbeat interval must be non-zero");
        IntervalSampler {
            out,
            interval,
            prev: CycleStats::default(),
            last: CycleStats::default(),
            error: None,
        }
    }

    /// Emit the trailing partial interval (if any) and flush. Returns
    /// the first I/O error encountered over the sampler's lifetime.
    pub fn finish(&mut self) -> io::Result<()> {
        self.emit();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    /// Write the interval from `prev` to `last`, if it has cycles.
    fn emit(&mut self) {
        if self.error.is_some() || self.last.cycles <= self.prev.cycles {
            return;
        }
        let rec = heartbeat_record(&self.prev, &self.last);
        let mut line = String::new();
        rec.render(&mut line);
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
        self.prev = self.last;
    }
}

impl<W: Write> Probe for IntervalSampler<W> {
    const WANTS: Wants = Wants::CYCLE_STATS;

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        let Event::CycleEnd(stats) = *ev else {
            return;
        };
        self.last = *stats;
        if stats.cycles.is_multiple_of(self.interval) {
            self.emit();
        }
    }
}

impl<W: Write> Drop for IntervalSampler<W> {
    fn drop(&mut self) {
        if let Err(e) = self.finish() {
            // Losing the final interval silently would make the stream
            // stop telescoping to the run's totals; fail loudly instead.
            // During an unwind a second panic would abort the process,
            // so degrade to stderr there.
            if std::thread::panicking() {
                eprintln!("heartbeat sampler: flushing final interval failed during panic: {e}");
            } else {
                panic!("heartbeat sampler: flushing final interval failed: {e}");
            }
        }
    }
}

/// Build one heartbeat record from two cumulative snapshots; its `cycle`
/// is the last cycle the interval covers.
fn heartbeat_record(prev: &CycleStats, cur: &CycleStats) -> Value {
    let d_cycles = cur.cycles - prev.cycles;
    let d_slots = cur.slots - prev.slots;
    let d_committed = cur.committed - prev.committed;
    let d_useful = cur.useful - prev.useful;
    let d_accesses = cur.accesses - prev.accesses;
    let frac = |x: f64| if d_slots > 0 { x / d_slots as f64 } else { 0.0 };
    let rate = |n: u64| {
        if d_accesses > 0 {
            n as f64 / d_accesses as f64
        } else {
            0.0
        }
    };

    let mut wasted_slots = Vec::with_capacity(7);
    let mut wasted_frac = Vec::with_capacity(7);
    for h in Hazard::ALL {
        let d = cur.wasted[h.index()] - prev.wasted[h.index()];
        wasted_slots.push((h.label().to_string(), Value::F64(d)));
        wasted_frac.push((h.label().to_string(), Value::F64(frac(d))));
    }

    Value::Object(vec![
        ("cycle".into(), Value::U64(cur.cycles - 1)),
        ("cycles".into(), Value::U64(d_cycles)),
        ("committed".into(), Value::U64(d_committed)),
        (
            "ipc".into(),
            Value::F64(if d_cycles > 0 {
                d_committed as f64 / d_cycles as f64
            } else {
                0.0
            }),
        ),
        ("slots".into(), Value::U64(d_slots)),
        ("useful_frac".into(), Value::F64(frac(d_useful))),
        ("wasted_frac".into(), Value::Object(wasted_frac)),
        ("useful_slots".into(), Value::F64(d_useful)),
        ("wasted_slots".into(), Value::Object(wasted_slots)),
        ("accesses".into(), Value::U64(d_accesses)),
        (
            "l1_miss_rate".into(),
            Value::F64(rate(d_accesses - (cur.l1_hits - prev.l1_hits))),
        ),
        ("l2_hits".into(), Value::U64(cur.l2_hits - prev.l2_hits)),
        (
            "tlb_miss_rate".into(),
            Value::F64(rate(cur.tlb_misses - prev.tlb_misses)),
        ),
        (
            "running_threads".into(),
            Value::U64(u64::from(cur.running_threads)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cumulative snapshot after `cycles` cycles of a 4-wide machine
    /// that spends 50% useful, 25% data, 25% memory.
    fn snap(cycles: u64) -> CycleStats {
        let slots = cycles * 4;
        let mut wasted = [0.0; 7];
        wasted[2] = slots as f64 * 0.25; // memory
        wasted[3] = slots as f64 * 0.25; // data
        CycleStats {
            useful: slots as f64 * 0.5,
            wasted,
            slots,
            cycles,
            committed: cycles * 2,
            running_threads: 3,
            accesses: cycles,
            l1_hits: cycles / 2,
            l2_hits: cycles / 4,
            tlb_misses: 0,
        }
    }

    fn run_sampler(interval: u64, total_cycles: u64) -> Vec<serde::Value> {
        let mut buf = Vec::new();
        {
            let mut s = IntervalSampler::new(&mut buf, interval);
            for c in 0..total_cycles {
                s.on(&Event::CycleEnd(&snap(c + 1)));
            }
            s.finish().expect("in-memory sampler cannot hit I/O errors");
        }
        String::from_utf8(buf)
            .expect("sampler output is UTF-8 JSONL")
            .lines()
            .map(|l| serde_json::from_str(l).expect("each heartbeat line parses as JSON"))
            .collect()
    }

    #[test]
    fn emits_one_record_per_full_interval() {
        let recs = run_sampler(100, 300);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0]["cycle"].as_u64(), Some(99));
        assert_eq!(recs[2]["cycle"].as_u64(), Some(299));
        for r in &recs {
            assert_eq!(r["cycles"].as_u64(), Some(100));
            assert_eq!(r["slots"].as_u64(), Some(400));
        }
    }

    #[test]
    fn trailing_partial_interval_is_flushed_by_finish() {
        let recs = run_sampler(100, 250);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2]["cycle"].as_u64(), Some(249));
        assert_eq!(recs[2]["cycles"].as_u64(), Some(50));
    }

    #[test]
    fn fractions_sum_to_one_per_interval() {
        for r in run_sampler(64, 200) {
            let mut sum = r["useful_frac"].as_f64().expect("useful_frac is a float");
            for h in Hazard::ALL {
                sum += r["wasted_frac"][h.label()]
                    .as_f64()
                    .expect("every hazard label has a float fraction");
            }
            assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        }
    }

    #[test]
    fn raw_slot_counts_telescope_to_final_totals() {
        let recs = run_sampler(77, 500);
        let useful: f64 = recs
            .iter()
            .map(|r| r["useful_slots"].as_f64().expect("useful_slots is a float"))
            .sum();
        let slots: u64 = recs
            .iter()
            .map(|r| r["slots"].as_u64().expect("slots is an integer"))
            .sum();
        let fin = snap(500);
        assert!((useful - fin.useful).abs() < 1e-6);
        assert_eq!(slots, fin.slots);
    }

    /// A writer whose writes always fail, for exercising the error path.
    struct FailWriter;

    impl Write for FailWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn finish_reports_write_errors() {
        let mut s = IntervalSampler::new(FailWriter, 10);
        for c in 0..10 {
            s.on(&Event::CycleEnd(&snap(c + 1)));
        }
        let err = s.finish().expect_err("failed write must surface");
        assert_eq!(err.to_string(), "disk full");
        // The error was consumed; a clean drop follows.
    }

    #[test]
    fn drop_panics_instead_of_silently_dropping_the_final_interval() {
        let result = std::panic::catch_unwind(|| {
            let mut s = IntervalSampler::new(FailWriter, 100);
            // One snapshot short of a boundary: the record is pending
            // and only the drop-path flush can emit (and fail) it.
            s.on(&Event::CycleEnd(&snap(1)));
        });
        let payload = result.expect_err("drop must panic when the final flush fails");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload is the formatted message");
        assert!(
            msg.contains("flushing final interval failed") && msg.contains("disk full"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn ipc_and_miss_rates_are_interval_local() {
        let recs = run_sampler(100, 100);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        let ipc = r["ipc"].as_f64().expect("ipc is a float");
        assert!((ipc - 2.0).abs() < 1e-9);
        let miss = r["l1_miss_rate"].as_f64().expect("l1_miss_rate is a float");
        assert!((miss - 0.5).abs() < 1e-9);
        assert_eq!(r["running_threads"].as_u64(), Some(3));
    }
}
