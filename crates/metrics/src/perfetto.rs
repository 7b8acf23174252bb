//! Perfetto / Chrome trace-event export.
//!
//! Builds a JSON document in the [Trace Event Format] that both
//! `chrome://tracing` and [ui.perfetto.dev] load directly: open the UI,
//! drag the file in, and every hardware thread appears as its own track
//! with pipeline-occupancy slices, alongside counter tracks for IPC,
//! in-flight misses, and window occupancy.
//!
//! Track layout (see DESIGN.md §12):
//!
//! * **pid 1 "pipeline"** — one track (tid) per (cluster, hw context)
//!   with `X` (complete) slices covering the spans when that context had
//!   instructions in flight.
//! * **pid 2 "counters"** — `C` counter events: `ipc` and
//!   `inflight_misses` machine-wide, `window_occ/<cluster>` per cluster.
//! * **pid 3 "sched"** — `i` instant events marking thread-scheduler
//!   actions (attach / depart / arrive of migrating threads).
//!
//! Timestamps are simulated **cycles** reported in the `ts` microsecond
//! field (1 cycle = 1 µs), which keeps the numbers readable in the UI.
//! During a run each event is one small `Record` holding only its
//! numbers; it becomes a JSON object only on export, one event at a time,
//! so the document is never held in memory. The builder is
//! deterministic: identical event sequences produce byte-identical
//! documents.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use csmt_trace::{MigrationEvent, MigrationEventKind};
use serde::Value;

/// Synthetic process id for per-thread pipeline tracks.
const PID_PIPELINE: u64 = 1;
/// Synthetic process id for counter tracks.
const PID_COUNTERS: u64 = 2;
/// Synthetic process id for the thread-scheduler instant track.
const PID_SCHED: u64 = 3;

/// The compact document up to its first event…
const DOC_HEAD: &str = "{\"traceEvents\":[";
/// …and after its last.
const DOC_TAIL: &str =
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"exporter\":\"csmt-metrics\"}}";

/// A counter track on the counters pid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Counter {
    /// Machine-wide IPC over the last sampling interval.
    Ipc,
    /// Misses outstanding past the L1, machine-wide.
    InflightMisses,
    /// Instruction-window occupancy of one cluster.
    WindowOcc(u32),
}

/// One trace event as the numbers it carries; [`Record::to_value`]
/// renders it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Record {
    /// Names a synthetic process.
    Process { pid: u64, name: &'static str },
    /// Names the track of one (cluster, hw context) pair.
    Thread { cluster: u32, ctx: u32 },
    /// The context had instructions in flight from `ts` for `dur` cycles.
    Slice {
        cluster: u32,
        ctx: u32,
        ts: u64,
        dur: u64,
    },
    /// `counter` takes `value` at cycle `ts`.
    Counter {
        counter: Counter,
        ts: u64,
        value: f64,
    },
    /// A thread-scheduler placement event.
    Sched(MigrationEvent),
}

/// Stable tid for a (cluster, hardware context) pair.
fn tid(cluster: u32, ctx: u32) -> u64 {
    u64::from(cluster) * 64 + u64::from(ctx)
}

/// `{"name": name}`, the `args` of a metadata event.
fn name_arg(name: String) -> Value {
    Value::Object(vec![("name".into(), Value::Str(name))])
}

impl Record {
    /// The trace-event JSON object of this record.
    pub(crate) fn to_value(self) -> Value {
        let s = |text: &str| Value::Str(text.into());
        match self {
            Record::Process { pid, name } => Value::Object(vec![
                ("ph".into(), s("M")),
                ("name".into(), s("process_name")),
                ("pid".into(), Value::U64(pid)),
                ("tid".into(), Value::U64(0)),
                ("args".into(), name_arg(name.into())),
            ]),
            Record::Thread { cluster, ctx } => Value::Object(vec![
                ("ph".into(), s("M")),
                ("name".into(), s("thread_name")),
                ("pid".into(), Value::U64(PID_PIPELINE)),
                ("tid".into(), Value::U64(tid(cluster, ctx))),
                (
                    "args".into(),
                    name_arg(format!("cluster {cluster} / ctx {ctx}")),
                ),
            ]),
            Record::Slice {
                cluster,
                ctx,
                ts,
                dur,
            } => Value::Object(vec![
                ("ph".into(), s("X")),
                ("name".into(), s("in-flight")),
                ("cat".into(), s("pipeline")),
                ("pid".into(), Value::U64(PID_PIPELINE)),
                ("tid".into(), Value::U64(tid(cluster, ctx))),
                ("ts".into(), Value::U64(ts)),
                ("dur".into(), Value::U64(dur.max(1))),
            ]),
            Record::Counter { counter, ts, value } => {
                let name = match counter {
                    Counter::Ipc => "ipc".into(),
                    Counter::InflightMisses => "inflight_misses".into(),
                    Counter::WindowOcc(cluster) => format!("window_occ/{cluster}"),
                };
                Value::Object(vec![
                    ("ph".into(), s("C")),
                    ("name".into(), Value::Str(name)),
                    ("pid".into(), Value::U64(PID_COUNTERS)),
                    ("tid".into(), Value::U64(0)),
                    ("ts".into(), Value::U64(ts)),
                    (
                        "args".into(),
                        Value::Object(vec![("value".into(), Value::F64(value))]),
                    ),
                ])
            }
            Record::Sched(MigrationEvent {
                cycle,
                thread,
                cluster,
                ctx,
                kind,
                wait,
            }) => {
                let name = match kind {
                    MigrationEventKind::Attach => format!("attach t{thread} c{cluster}/x{ctx}"),
                    MigrationEventKind::Depart => format!("depart t{thread} c{cluster}/x{ctx}"),
                    MigrationEventKind::Arrive => {
                        format!("arrive t{thread} c{cluster}/x{ctx} +{wait}")
                    }
                };
                Value::Object(vec![
                    ("ph".into(), s("i")),
                    ("name".into(), Value::Str(name)),
                    ("cat".into(), s("sched")),
                    ("pid".into(), Value::U64(PID_SCHED)),
                    ("tid".into(), Value::U64(0)),
                    ("ts".into(), Value::U64(cycle)),
                    ("s".into(), s("p")),
                ])
            }
        }
    }
}

/// Builds a Chrome-trace-event JSON document from pipeline metrics.
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    records: Vec<Record>,
}

impl PerfettoTrace {
    /// An empty trace with the three process-name metadata records.
    pub fn new() -> Self {
        let records = [
            (PID_PIPELINE, "pipeline"),
            (PID_COUNTERS, "counters"),
            (PID_SCHED, "sched"),
        ]
        .map(|(pid, name)| Record::Process { pid, name })
        .to_vec();
        PerfettoTrace { records }
    }

    /// Name the track of one (cluster, hw context) pair.
    pub(crate) fn thread_track(&mut self, cluster: u32, ctx: u32) {
        self.records.push(Record::Thread { cluster, ctx });
    }

    /// One pipeline-occupancy slice on a (cluster, hw context) track:
    /// the context had instructions in flight from `start` for `dur`
    /// cycles.
    pub(crate) fn occupancy_slice(&mut self, cluster: u32, ctx: u32, start: u64, dur: u64) {
        self.records.push(Record::Slice {
            cluster,
            ctx,
            ts: start,
            dur,
        });
    }

    /// One counter sample: `counter` takes `value` at `cycle`. Samples of
    /// one counter form one stepped track in the UI.
    pub(crate) fn counter(&mut self, counter: Counter, cycle: u64, value: f64) {
        self.records.push(Record::Counter {
            counter,
            ts: cycle,
            value,
        });
    }

    /// One thread-scheduler instant on the sched track (process scope,
    /// so it renders as a flag in the UI).
    pub(crate) fn sched_instant(&mut self, e: MigrationEvent) {
        self.records.push(Record::Sched(e));
    }

    /// Number of events recorded so far (metadata included).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if only the initial metadata is present.
    pub fn is_empty(&self) -> bool {
        self.records.len() <= 3
    }

    /// Every event's JSON object, in recording order.
    pub(crate) fn events(&self) -> impl Iterator<Item = Value> + '_ {
        self.records.iter().copied().map(Record::to_value)
    }

    /// Stream the document as compact JSON —
    /// `{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}`
    /// — rendering one event at a time.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(DOC_HEAD.as_bytes())?;
        let mut buf = String::new();
        for (i, event) in self.events().enumerate() {
            buf.clear();
            if i > 0 {
                buf.push(',');
            }
            event.render(&mut buf);
            w.write_all(buf.as_bytes())?;
        }
        w.write_all(DOC_TAIL.as_bytes())
    }

    /// Render the document as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// Write the document and a trailing newline to `path`.
    ///
    /// # Errors
    /// Any failure to create, write or flush the file, with `path` in the
    /// message.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let context = |doing: &'static str| {
            move |e: io::Error| {
                io::Error::new(
                    e.kind(),
                    format!("{doing} perfetto trace {}: {e}", path.display()),
                )
            }
        };
        let mut w = BufWriter::new(File::create(path).map_err(context("creating"))?);
        // Flush explicitly: a `BufWriter` dropped unflushed discards the
        // error of its last write.
        self.write_to(&mut w)
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .map_err(context("writing"))
    }
}

/// Validate that `doc` is a loadable trace-event document: a
/// `traceEvents` array whose members each carry a known phase (`X`, `C`,
/// `i`, or `M`), a `pid`, a `tid`, a `name`, and — for non-metadata
/// events — a non-negative `ts` (plus `dur` for `X`, `args.value` for
/// `C`).
/// Returns the event count, or a description of the first malformed
/// event. This is the schema check the unit tests and
/// `tests/metrics_reconcile.rs` run over real exported traces.
pub fn validate_trace(doc: &Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for key in ["pid", "tid"] {
            e.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event {i}: missing {key}"))?;
        }
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "M" => {}
            "X" => {
                e.get("ts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X without ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                if dur == 0 {
                    return Err(format!("event {i}: zero-duration slice"));
                }
            }
            "C" => {
                e.get("ts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: C without ts"))?;
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: C without args.value"))?;
            }
            "i" => {
                e.get("ts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: i without ts"))?;
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> PerfettoTrace {
        let mut t = PerfettoTrace::new();
        t.thread_track(0, 1);
        t.occupancy_slice(0, 1, 10, 25);
        t.occupancy_slice(0, 1, 40, 5);
        t.counter(Counter::Ipc, 100, 2.5);
        t.counter(Counter::WindowOcc(0), 100, 24.0);
        t
    }

    /// The trace's events under a bare `traceEvents` key.
    fn doc(t: &PerfettoTrace) -> Value {
        Value::Object(vec![(
            "traceEvents".into(),
            Value::Array(t.events().collect()),
        )])
    }

    #[test]
    fn document_roundtrips_through_json_and_validates() {
        let t = build_sample();
        let parsed: Value = serde_json::from_str(&t.to_json()).expect("valid JSON");
        let n = validate_trace(&parsed).expect("schema-clean");
        assert_eq!(n, t.len());
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        assert_eq!(parsed.get("traceEvents"), doc(&t).get("traceEvents"));
    }

    #[test]
    fn validation_rejects_malformed_events() {
        let mut missing_ph = doc(&build_sample());
        if let Value::Object(fields) = &mut missing_ph {
            if let Value::Array(events) = &mut fields[0].1 {
                events.push(Value::Object(vec![(
                    "name".into(),
                    Value::Str("bad".into()),
                )]));
            }
        }
        let err = validate_trace(&missing_ph).expect_err("must reject");
        assert!(err.contains("missing ph"), "{err}");

        assert!(validate_trace(&Value::Object(vec![])).is_err());
    }

    #[test]
    fn slices_and_counters_land_on_distinct_pids() {
        let t = build_sample();
        let events: Vec<Value> = t.events().collect();
        let pid_of = |ph: &str| {
            events
                .iter()
                .find(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .and_then(|e| e.get("pid"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_ne!(pid_of("X"), pid_of("C"));
    }

    #[test]
    fn zero_duration_slices_are_widened_to_one_cycle() {
        let mut t = PerfettoTrace::new();
        t.occupancy_slice(2, 0, 7, 0);
        let parsed: Value = serde_json::from_str(&t.to_json()).unwrap();
        validate_trace(&parsed).expect("widened slice passes validation");
    }

    #[test]
    fn sched_instants_validate_and_land_on_the_sched_pid() {
        let mut t = PerfettoTrace::new();
        t.sched_instant(MigrationEvent {
            cycle: 4200,
            thread: 3,
            cluster: 1,
            ctx: 2,
            kind: MigrationEventKind::Arrive,
            wait: 90,
        });
        let parsed: Value = serde_json::from_str(&t.to_json()).unwrap();
        validate_trace(&parsed).expect("instant passes validation");
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        let inst = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .expect("instant present");
        assert_eq!(inst.get("pid").and_then(Value::as_u64), Some(PID_SCHED));
        assert_eq!(inst.get("ts").and_then(Value::as_u64), Some(4200));
        assert_eq!(
            inst.get("name").and_then(Value::as_str),
            Some("arrive t3 c1/x2 +90")
        );
    }

    #[test]
    fn tids_are_stable_and_distinct_across_clusters() {
        assert_ne!(tid(0, 1), tid(1, 0));
        assert_eq!(tid(3, 2), 3 * 64 + 2);
    }

    /// `/dev/full` accepts the create and fails the write: a buffered
    /// writer only sees that at the flush, which must still report it,
    /// naming the file.
    #[cfg(target_os = "linux")]
    #[test]
    fn write_errors_name_the_path() {
        let err = build_sample()
            .write("/dev/full")
            .expect_err("a full device must fail the write");
        assert!(err.to_string().contains("/dev/full"), "{err}");
        let err = build_sample()
            .write("/nonexistent-dir/trace.json")
            .expect_err("a missing directory must fail the create");
        assert!(
            err.to_string().contains("/nonexistent-dir/trace.json"),
            "{err}"
        );
    }
}
