//! In-memory span recorder for the traced run.
//!
//! The harness wraps each call into a layer's public function in a span
//! `{name, start_ns, end_ns, parent, cell}`; nothing is written until
//! the run ends. A layer's *self time* is its span's duration minus the
//! part covered by its child spans, so self times of all spans under a
//! root add up to the root's duration.

use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// Start, ns since recorder creation.
    pub start_ns: u64,
    /// End, ns since recorder creation (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Grid cell the span belongs to (the request identifier).
    pub cell: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        cell: u32,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time in ns of every span: duration minus direct children's
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Index of the outermost ancestor of span `i`.
fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Total self time in ns per span name, over the spans whose outermost
/// ancestor is named `root` (the root itself included), in first-seen
/// order.
pub fn self_ns_by_name(spans: &[Span], root: &str) -> Vec<(&'static str, u64)> {
    let own = self_times(spans);
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(spans, i)].name != root {
            continue;
        }
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own[i],
            None => totals.push((s.name, own[i])),
        }
    }
    totals
}

/// The spans as a Chrome trace-event document (loads in Perfetto and
/// `chrome://tracing`): one complete (`"ph":"X"`) event per span,
/// microsecond timestamps, `pid` = the workload, span index / parent /
/// cell in `args`.
pub fn chrome_trace(spans: &[Span], pid: u32, process_name: &str) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
         \"args\":{{\"name\":\"{process_name}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"cell\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.cell
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The events of a [`chrome_trace`] document without the enclosing
/// `{"traceEvents":[ ]}`, for merging several documents into one.
pub fn trace_events(doc: &str) -> &str {
    let start = doc.find('[').map_or(0, |i| i + 1);
    let end = doc.rfind(']').unwrap_or(doc.len());
    doc[start..end].trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: 0,
        }
    }

    /// pass[0..100] { cell[10..90] { run[20..60], digest[60..70] } },
    /// setup[100..130] { run[105..125] }
    fn tree() -> Vec<Span> {
        vec![
            span("pass", 0, 100, None),
            span("cell", 10, 90, Some(0)),
            span("run", 20, 60, Some(1)),
            span("digest", 60, 70, Some(1)),
            span("setup", 100, 130, None),
            span("run", 105, 125, Some(4)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        assert_eq!(self_times(&tree()), vec![20, 30, 40, 10, 10, 20]);
    }

    #[test]
    fn self_times_under_a_root_sum_to_the_root() {
        let by_name = self_ns_by_name(&tree(), "pass");
        assert_eq!(
            by_name,
            vec![("pass", 20), ("cell", 30), ("run", 40), ("digest", 10)]
        );
        assert_eq!(by_name.iter().map(|(_, t)| t).sum::<u64>(), 100);
        assert_eq!(
            self_ns_by_name(&tree(), "setup"),
            vec![("setup", 10), ("run", 20)]
        );
    }

    #[test]
    fn recorder_nests_scopes() {
        let mut sp = Spans::new();
        let v = sp.scope("pass", 0, |sp| {
            sp.scope("cell", 3, |sp| sp.scope("run", 3, |_| 7))
        });
        assert_eq!(v, 7);
        let all = sp.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].cell, 3);
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(all[0].end_ns >= all[2].end_ns);
    }

    #[test]
    fn trace_json_round_trips_through_serde_json() {
        let spans = tree();
        let doc = chrome_trace(&spans, 2, "kernel_lowend");
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), spans.len() + 1);
        assert_eq!(events[0]["args"]["name"], "kernel_lowend");
        for (e, s) in events[1..].iter().zip(&spans) {
            assert_eq!(e["name"], s.name);
            assert_eq!(e["ph"], "X");
            assert_eq!(e["ts"].as_f64(), Some(s.start_ns as f64 / 1e3));
            assert_eq!(
                e["dur"].as_f64(),
                Some((s.end_ns - s.start_ns) as f64 / 1e3)
            );
            assert_eq!(e["args"]["parent"].as_u64(), s.parent.map(|p| p as u64));
        }
        // Rendering the parsed value and parsing again is a fixed point.
        let again: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(again, v);
        // Two documents merge into one valid document.
        let merged = format!(
            "{{\"traceEvents\":[\n{},\n{}\n]}}",
            trace_events(&doc),
            trace_events(&chrome_trace(&spans, 3, "kernel_highend"))
        );
        let m: serde_json::Value = serde_json::from_str(&merged).expect("valid merged JSON");
        assert_eq!(
            m["traceEvents"].as_array().unwrap().len(),
            2 * (spans.len() + 1)
        );
    }
}
