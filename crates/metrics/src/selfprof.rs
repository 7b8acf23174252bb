//! Host-side self-profiling: where the *simulator* spends wall-clock
//! time, phase by phase.
//!
//! [`HostProfiler`] is a probe that wants only the `Wants::HOST_PHASES`
//! channel; the simulator then wraps each pipeline phase (complete /
//! commit / issue / fetch / account / memory / cycle-end) in scoped
//! timers and reports the elapsed nanoseconds here.
//! The numbers describe the host, not the simulated machine — they are
//! non-deterministic across runs and exist to answer "which phase should
//! the next performance PR attack".

use std::fmt::Write as _;

use csmt_trace::{Event, HostPhase, Probe, Wants};

use serde::Value;

/// Accumulated wall-clock per simulator phase. `Memory` is nested inside
/// `Issue` (loads) and `Commit` (stores), so the renderer reports it
/// indented and excludes it from the total to avoid double-counting.
#[derive(Debug, Default)]
pub struct HostProfiler {
    nanos: [u64; HostPhase::ALL.len()],
    calls: [u64; HostPhase::ALL.len()],
}

impl HostProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accumulated nanoseconds for one phase.
    pub fn nanos(&self, phase: HostPhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of timed executions of one phase.
    pub fn calls(&self, phase: HostPhase) -> u64 {
        self.calls[phase.index()]
    }

    /// Sum of all top-level phase nanos (`Memory` excluded: its time is
    /// already inside `Issue` and `Commit`).
    pub fn total_nanos(&self) -> u64 {
        HostPhase::ALL
            .into_iter()
            .filter(|p| *p != HostPhase::Memory)
            .map(|p| self.nanos(p))
            .sum()
    }

    /// Render the profile as an aligned table, phases in pipeline order,
    /// with per-call averages and shares of the (non-nested) total.
    pub fn render_text(&self) -> String {
        let total = self.total_nanos();
        let mut out =
            String::from("host self-profile (simulator wall-clock, not simulated time):\n");
        for phase in HostPhase::ALL {
            let ns = self.nanos(phase);
            let calls = self.calls(phase);
            let nested = phase == HostPhase::Memory;
            let share = if total == 0 || nested {
                String::from("     -")
            } else {
                format!("{:5.1}%", 100.0 * ns as f64 / total as f64)
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>12.3} ms  {share}  {:>10} calls  {:>7.0} ns/call{}",
                phase.label(),
                ns as f64 / 1e6,
                calls,
                if calls == 0 {
                    0.0
                } else {
                    ns as f64 / calls as f64
                },
                if nested {
                    "  (nested in issue/commit)"
                } else {
                    ""
                },
            );
        }
        let _ = writeln!(out, "  {:<12} {:>12.3} ms", "total", total as f64 / 1e6);
        out
    }

    /// The profile as JSON: per-phase `{nanos, calls}` plus the total.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = HostPhase::ALL
            .into_iter()
            .map(|p| {
                (
                    p.label().to_string(),
                    Value::Object(vec![
                        ("nanos".into(), Value::U64(self.nanos(p))),
                        ("calls".into(), Value::U64(self.calls(p))),
                    ]),
                )
            })
            .collect();
        fields.push(("total_nanos".into(), Value::U64(self.total_nanos())));
        Value::Object(fields)
    }
}

impl Probe for HostProfiler {
    const WANTS: Wants = Wants::HOST_PHASES;

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        if let Event::HostPhase { phase, nanos } = *ev {
            self.nanos[phase.index()] += nanos;
            self.calls[phase.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p: &mut HostProfiler, phase: HostPhase, nanos: u64) {
        p.on(&Event::HostPhase { phase, nanos });
    }

    #[test]
    fn accumulates_per_phase_and_excludes_nested_memory_from_total() {
        let mut p = HostProfiler::new();
        report(&mut p, HostPhase::Issue, 100);
        report(&mut p, HostPhase::Issue, 50);
        report(&mut p, HostPhase::Memory, 40); // nested inside the 150
        report(&mut p, HostPhase::Fetch, 10);
        assert_eq!(p.nanos(HostPhase::Issue), 150);
        assert_eq!(p.calls(HostPhase::Issue), 2);
        assert_eq!(p.nanos(HostPhase::Memory), 40);
        assert_eq!(p.total_nanos(), 160);
    }

    #[test]
    fn render_marks_memory_as_nested() {
        let mut p = HostProfiler::new();
        report(&mut p, HostPhase::Memory, 1_000_000);
        report(&mut p, HostPhase::Commit, 2_000_000);
        let text = p.render_text();
        assert!(text.contains("(nested in issue/commit)"), "{text}");
        assert!(text.contains("commit"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn json_covers_every_phase() {
        let mut p = HostProfiler::new();
        for phase in HostPhase::ALL {
            report(&mut p, phase, 7);
        }
        let v = p.to_value();
        for phase in HostPhase::ALL {
            let entry = v
                .get(phase.label())
                .unwrap_or_else(|| panic!("missing {}", phase.label()));
            assert_eq!(entry.get("nanos").and_then(Value::as_u64), Some(7));
        }
        assert_eq!(v.get("total_nanos").and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn only_the_host_phase_channel_is_enabled() {
        assert_eq!(HostProfiler::WANTS, Wants::HOST_PHASES);
    }
}
