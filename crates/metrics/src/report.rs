//! [`MetricsReport`]: what a [`MetricsProbe`] run produces — the
//! attribution tree and the migration totals — with text and JSON
//! renderers.
//!
//! [`MetricsProbe`]: crate::MetricsProbe

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use serde::Value;

use crate::topdown::AttributionTree;

/// Everything [`MetricsProbe::finish`](crate::MetricsProbe::finish)
/// distills from one run.
#[derive(Debug)]
pub struct MetricsReport {
    /// Top-down stall-attribution tree over the final slot accounting.
    pub topdown: AttributionTree,
    /// Thread migrations completed by the scheduling policy (0 under the
    /// static policy).
    pub migrations: u64,
    /// Total cycles migrating threads spent between leaving their old
    /// context and resuming at the new one.
    pub migration_wait_cycles: u64,
}

impl MetricsReport {
    /// The human-readable report: the attribution tree, then the
    /// migrations when there were any.
    pub fn render_text(&self) -> String {
        let mut out = self.topdown.render_text();
        if self.migrations > 0 {
            let _ = writeln!(
                out,
                "thread migrations: {} (avg wait {:.0} cycles)",
                self.migrations,
                self.migration_wait_cycles as f64 / self.migrations as f64
            );
        }
        out
    }

    /// The report as one JSON object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("topdown".into(), self.topdown.to_value()),
            ("migrations".into(), Value::U64(self.migrations)),
            (
                "migration_wait_cycles".into(),
                Value::U64(self.migration_wait_cycles),
            ),
        ])
    }

    /// Write the JSON report (pretty-printed) to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut out = String::new();
        self.to_value().render_pretty(&mut out);
        out.push('\n');
        std::fs::write(path, out).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing metrics report {}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        MetricsReport {
            topdown: AttributionTree::from_slots(
                10.0,
                &[0.0, 0.0, 6.0, 0.0, 0.0, 0.0, 4.0],
                20,
                5,
                10,
            ),
            migrations: 0,
            migration_wait_cycles: 0,
        }
    }

    #[test]
    fn migrations_line_appears_only_when_nonzero() {
        let mut r = sample();
        let text = r.render_text();
        assert!(text.contains("top-down slot accounting"), "{text}");
        assert!(!text.contains("thread migrations"));
        r.migrations = 4;
        r.migration_wait_cycles = 500;
        let text = r.render_text();
        assert!(
            text.contains("thread migrations: 4 (avg wait 125 cycles)"),
            "{text}"
        );
        let v = r.to_value();
        assert_eq!(v.get("migrations").and_then(Value::as_u64), Some(4));
        assert_eq!(
            v.get("migration_wait_cycles").and_then(Value::as_u64),
            Some(500)
        );
    }

    #[test]
    fn json_report_lands_on_disk_and_parses_back() {
        let dir = std::env::temp_dir().join("csmt_metrics_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("report.json");
        sample().write_json(&json).unwrap();
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(v.get("topdown").is_some());
        assert_eq!(v.get("migrations").and_then(Value::as_u64), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
