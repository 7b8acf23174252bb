//! Resume equivalence: the cache *is* the checkpoint.
//!
//! A sweep killed mid-run leaves whatever cache entries its atomic
//! writes completed. Rerunning the same command must (a) simulate only
//! the missing cells and (b) produce aggregate output byte-identical to
//! an uninterrupted run — the JSONL stream and the summary carry no
//! trace of which cells were hits.

use std::path::Path;
use std::process::Command;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt_sweep_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary over the test grid; returns its stdout status line.
fn sweep(cache: Option<&Path>, out: &Path, summary: &Path) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_csmt-sweep"));
    cmd.args([
        "--archs",
        "FA2,SMT2,SMT4",
        "--apps",
        "vpenta,mgrid",
        "--seeds",
        "11",
        "--scales",
        "0.02",
        "--threads",
        "3",
    ])
    .arg("--out")
    .arg(out)
    .arg("--summary")
    .arg(summary)
    .env_remove("CSMT_SWEEP_CACHE")
    .env_remove("CSMT_SWEEP_THREADS");
    if let Some(dir) = cache {
        cmd.arg("--cache").arg(dir);
    }
    let out = cmd.output().expect("run csmt-sweep");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output() {
    let root = tmp_dir("kill");
    let cache = root.join("cache");
    let (out_a, sum_a) = (root.join("a.jsonl"), root.join("a.json"));
    let (out_b, sum_b) = (root.join("b.jsonl"), root.join("b.json"));
    let (out_c, sum_c) = (root.join("c.jsonl"), root.join("c.json"));

    // Uninterrupted run, populating the cache.
    let cold = sweep(Some(&cache), &out_a, &sum_a);
    assert!(cold.contains("0 hits, 6 misses"), "cold: {cold}");

    // "Kill" mid-sweep: drop every other cache entry (atomic writes mean
    // a real kill leaves exactly some-complete-entries, never partials).
    let mut entries: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 6);
    for path in entries.iter().step_by(2) {
        std::fs::remove_file(path).unwrap();
    }

    // Resume: half hits, half recomputed…
    let resumed = sweep(Some(&cache), &out_b, &sum_b);
    assert!(resumed.contains("3 hits, 3 misses"), "resumed: {resumed}");
    // …and the aggregate outputs are byte-identical.
    assert_eq!(
        std::fs::read(&out_a).unwrap(),
        std::fs::read(&out_b).unwrap(),
        "resumed JSONL differs from uninterrupted JSONL"
    );
    assert_eq!(
        std::fs::read(&sum_a).unwrap(),
        std::fs::read(&sum_b).unwrap()
    );

    // A cache-free run agrees too: caching is invisible in the output.
    let uncached = sweep(None, &out_c, &sum_c);
    assert!(
        uncached.contains("0 hits, 6 misses"),
        "uncached: {uncached}"
    );
    assert_eq!(
        std::fs::read(&out_a).unwrap(),
        std::fs::read(&out_c).unwrap()
    );
    assert_eq!(
        std::fs::read(&sum_a).unwrap(),
        std::fs::read(&sum_c).unwrap()
    );

    // Fully warm rerun: pure cache traffic, same bytes again.
    let warm = sweep(Some(&cache), &out_b, &sum_b);
    assert!(warm.contains("6 hits, 0 misses"), "warm: {warm}");
    assert_eq!(
        std::fs::read(&out_a).unwrap(),
        std::fs::read(&out_b).unwrap()
    );

    let _ = std::fs::remove_dir_all(&root);
}
