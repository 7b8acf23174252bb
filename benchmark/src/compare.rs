//! `--compare A.json B.json`: two result sets of the same benchmark,
//! one row per (workload, end-to-end metric).

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::spread;
use serde_json::Value;

/// Verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot settle it.
    Unresolved,
}

/// One metric of one workload in one result set.
pub struct Side {
    /// The reported value (a median where samples exist).
    pub value: f64,
    /// The samples behind it (empty for a single measurement).
    pub samples: Vec<f64>,
}

/// By how much `b` is worse than `a` as a share of `a` (negative =
/// better), in the metric's own direction.
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs();
    if m.better == "lower" {
        rel
    } else {
        -rel
    }
}

/// Judge one row. A spread wider than the bound leaves the row
/// unresolved unless every sample of B is better than every sample of A.
pub fn judge(m: &EndToEnd, a: &Side, b: &Side) -> Status {
    let widest = [a, b]
        .iter()
        .filter_map(|s| spread(&s.samples))
        .fold(0.0, f64::max);
    if widest > m.bound {
        let b_always_better = a
            .samples
            .iter()
            .all(|x| b.samples.iter().all(|y| worsening(m, *x, *y) < 0.0));
        return if b_always_better {
            Status::Ok
        } else {
            Status::Unresolved
        };
    }
    if worsening(m, a.value, b.value) > m.bound {
        Status::Worse
    } else {
        Status::Ok
    }
}

fn side(set: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = &set["workloads"][workload]["end_to_end"][metric];
    Some(Side {
        value: m["value"].as_f64()?,
        samples: m["samples"]
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

/// Print the comparison; `Ok(false)` if any row is `worse` (or a set
/// failed its output checks).
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (
        crate::read_json(a_path.as_ref())?,
        crate::read_json(b_path.as_ref())?,
    );
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<15} {:<12} {:>13} {:>4} {:>13} {:>4} {:>8} {:>6}  status",
        "workload", "metric", "A", "n", "B", "n", "B vs A", "bound"
    );
    let mut ok = true;
    let workloads = a["workloads"]
        .as_object()
        .ok_or_else(|| format!("{a_path}: no workloads"))?;
    for (name, wa) in workloads {
        for (set, path) in [(wa, a_path), (&b["workloads"][name.as_str()], b_path)] {
            if set["correct"].as_bool() != Some(true) {
                println!("{name}: output checks failed or workload missing in {path}");
                ok = false;
            }
        }
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, name, m.name), side(&b, name, m.name)) else {
                return Err(format!("{name}.{} missing from a result set", m.name));
            };
            let status = judge(m, &sa, &sb);
            ok &= status != Status::Worse;
            println!(
                "{:<15} {:<12} {:>13.6} {:>4} {:>13.6} {:>4} {:>+7.2}% {:>5.0}%  {}",
                name,
                m.name,
                sa.value,
                sa.samples.len().max(1),
                sb.value,
                sb.samples.len().max(1),
                100.0 * (sb.value - sa.value) / sa.value.abs(),
                100.0 * m.bound,
                match status {
                    Status::Ok => "ok",
                    Status::Worse => "worse",
                    Status::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        Side {
            value: crate::stats::median(samples),
            samples: samples.to_vec(),
        }
    }

    const LOWER: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "sim_kips",
        unit: "kinst/s",
        better: "higher",
        bound: 0.10,
    };

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&LOWER, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(&HIGHER, 2.0, 2.5) + 0.25).abs() < 1e-12);
    }

    #[test]
    fn tight_sets_resolve_to_ok_or_worse() {
        let a = side(&[1.00, 1.01, 1.02, 1.00]);
        assert_eq!(
            judge(&LOWER, &a, &side(&[1.05, 1.06, 1.05, 1.04])),
            Status::Ok
        );
        assert_eq!(
            judge(&LOWER, &a, &side(&[1.20, 1.21, 1.22, 1.20])),
            Status::Worse
        );
        assert_eq!(
            judge(&HIGHER, &a, &side(&[0.80, 0.81, 0.82, 0.80])),
            Status::Worse
        );
        assert_eq!(
            judge(&HIGHER, &a, &side(&[1.20, 1.21, 1.22, 1.20])),
            Status::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = side(&[1.0, 1.4, 0.8, 1.3]);
        assert_eq!(
            judge(&LOWER, &noisy, &side(&[1.0, 1.0, 1.0, 1.0])),
            Status::Unresolved
        );
        assert_eq!(
            judge(&LOWER, &noisy, &side(&[0.5, 0.6, 0.5, 0.7])),
            Status::Ok
        );
        // A single measurement has no spread to speak of.
        let single = Side {
            value: 1.0,
            samples: Vec::new(),
        };
        assert_eq!(
            judge(
                &LOWER,
                &single,
                &Side {
                    value: 1.2,
                    samples: Vec::new()
                }
            ),
            Status::Worse
        );
    }
}
