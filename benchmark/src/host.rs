//! What the harness reads from the host: process CPU time and peak
//! memory from `/proc`, the `CSMT_*` environment, and run provenance.

use serde_json::Value;
use std::process::Command;

/// Kernel clock ticks per second (`USER_HZ`) — 100 on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / TICKS_PER_SEC
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// The `CSMT_*` variables currently set, sorted by name.
pub fn csmt_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        })
        .filter(|(k, _)| k.starts_with("CSMT_"))
        .collect();
    vars.sort();
    vars
}

/// Remove every inherited `CSMT_*` variable, set exactly `set`, and
/// confirm nothing else is left: the library crates read these knobs
/// from inside, so a stray one silently changes what is measured.
/// Must run before any thread is started. Returns the environment in
/// force, or the offending variables.
pub fn pin_csmt_env(set: &[(&str, &str)]) -> Result<Vec<(String, String)>, String> {
    for (k, _) in csmt_env() {
        std::env::remove_var(k);
    }
    for (k, v) in set {
        std::env::set_var(k, v);
    }
    let now = csmt_env();
    let want: Vec<(String, String)> = {
        let mut w: Vec<_> = set
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        w.sort();
        w
    };
    if now == want {
        Ok(now)
    } else {
        Err(format!(
            "CSMT_* environment is {now:?} after the scrub, expected {want:?}"
        ))
    }
}

/// First line of a command's standard output, or `None` if it cannot be
/// run (the driver's checkout is not a git repository, for one).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn str_or_unknown(s: Option<String>) -> Value {
    Value::Str(s.unwrap_or_else(|| "unknown".to_string()))
}

/// `{nproc, cpu_model, rustc, commit, dirty, date, seed}` for a result
/// file.
pub fn provenance(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|t| {
        t.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
    });
    let dir = env!("CARGO_MANIFEST_DIR");
    let commit = first_line("git", &["-C", dir, "rev-parse", "HEAD"]);
    let dirty = commit.as_ref().map(|_| {
        Command::new("git")
            .args(["-C", dir, "status", "--porcelain"])
            .output()
            .is_ok_and(|o| !o.stdout.is_empty())
    });
    Value::Object(vec![
        (
            "nproc".into(),
            Value::U64(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("cpu_model".into(), str_or_unknown(cpu_model)),
        (
            "rustc".into(),
            str_or_unknown(first_line("rustc", &["--version"])),
        ),
        ("commit".into(), str_or_unknown(commit)),
        ("dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        (
            "date".into(),
            str_or_unknown(first_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("seed".into(), Value::U64(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command_name() {
        let stat = "4242 (a b) c)) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    731 29 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(760));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn own_stat_and_status_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn provenance_has_every_field() {
        let p = provenance(7);
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "commit",
            "dirty",
            "date",
            "seed",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert_eq!(p["seed"].as_u64(), Some(7));
    }
}
