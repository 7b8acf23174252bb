//! `bench_gate` through its binary: a tolerance that is not a number in
//! `[0, 1)` is bad input (exit 2), never a silent default or a gate
//! that passes any regression.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A one-scenario result file with `steps_per_sec` throughput.
fn write_results(dir: &Path, name: &str, steps_per_sec: f64, baseline: bool) -> PathBuf {
    let rec = format!(
        r#"{{"scenario": "smt2", "steps_per_sec": {steps_per_sec}, "cycles_per_run": 100}}"#
    );
    let body = if baseline {
        format!(r#"{{"gate": {{"results": [{rec}]}}}}"#)
    } else {
        format!("[{rec}]")
    };
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write results");
    path
}

fn gate(fresh: &Path, base: &Path, tolerance: Option<&str>) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_gate"));
    cmd.arg(fresh).arg(base).args(tolerance);
    let out = cmd.output().expect("bench_gate runs");
    out.status.code().expect("bench_gate exits")
}

#[test]
fn tolerance_must_be_a_number_in_the_unit_interval() {
    let dir = std::env::temp_dir().join(format!("csmt_bench_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = write_results(&dir, "base.json", 1000.0, true);
    let same = write_results(&dir, "same.json", 1000.0, false);
    let collapsed = write_results(&dir, "collapsed.json", 1.0, false);

    assert_eq!(gate(&same, &base, None), 0, "default tolerance");
    assert_eq!(gate(&same, &base, Some("0")), 0, "zero tolerance");
    assert_eq!(
        gate(&collapsed, &base, Some("0.25")),
        1,
        "a 99.9 % drop fails"
    );
    for bad in ["abc", "0,5", "1", "1.5", "-0.1", "nan", "inf"] {
        assert_eq!(gate(&collapsed, &base, Some(bad)), 2, "tolerance {bad:?}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
