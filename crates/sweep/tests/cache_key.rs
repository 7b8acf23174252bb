//! Cache-key sensitivity and entry self-verification.
//!
//! The content-addressed key must be (a) stable across *processes* — a
//! cache written yesterday hits today — and (b) sensitive to every
//! individual knob that can change a result, including the schema tag.
//! Entries must prove their own integrity: corruption, truncation, and
//! foreign schemas are misses, never trusted data.

use csmt_core::{ArchKind, Policy};
use csmt_cpu::{FetchPolicy, PredictorKind};
use csmt_mem::MemConfig;
use csmt_sweep::{cache::payload_digest, key, ResultCache, SweepEngine, CACHE_SCHEMA};
use csmt_workloads::{by_name, AppSpec, RunSpec};
use std::process::Command;

fn base_cell(app: &AppSpec) -> RunSpec<'_> {
    RunSpec::new(app, ArchKind::Smt2, 1, 0.02, 42)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `--print-keys` output of a fresh OS process over a fixed small grid.
fn keys_from_fresh_process() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_csmt-sweep"))
        .args([
            "--archs",
            "FA2,SMT2",
            "--apps",
            "mgrid,fmm",
            "--seeds",
            "42",
            "--scales",
            "0.02",
            "--print-keys",
        ])
        .env_remove("CSMT_SWEEP_CACHE")
        .env_remove("CSMT_SWEEP_THREADS")
        .output()
        .expect("run csmt-sweep");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn keys_are_stable_across_two_processes() {
    let first = keys_from_fresh_process();
    let second = keys_from_fresh_process();
    assert!(!first.is_empty());
    assert_eq!(first, second, "cache keys must not depend on process state");
    // And the in-process computation agrees with the binary's.
    let app = by_name("mgrid").unwrap();
    let cell = RunSpec::new(&app, ArchKind::Fa2, 1, 0.02, 42);
    assert!(
        first.starts_with(&format!("{:016x} ", key(&cell))),
        "binary key disagrees with library key:\n{first}"
    );
}

#[test]
fn every_knob_changes_the_key() {
    let (mgrid, ocean) = (by_name("mgrid").unwrap(), by_name("ocean").unwrap());
    let smt2 = ArchKind::Smt2.chip();
    let cell = |arch, n_chips, scale, seed| RunSpec::new(&mgrid, arch, n_chips, scale, seed);
    let base = base_cell(&mgrid);
    let with_mem = |mem| RunSpec {
        mem,
        ..base.clone()
    };
    let with_chip = |chip| RunSpec {
        chip,
        ..base.clone()
    };
    // Job sets: `jobs(mix, batch)` is batch `batch` of 16 jobs on SMT2.
    let (mix, reordered, smaller) = (
        [mgrid.clone(), ocean.clone()],
        [ocean.clone(), mgrid.clone()],
        [mgrid.clone()],
    );
    let jobs = |mix, batch| {
        RunSpec::job_batches(mix, 16, smt2, 1, 0.02, 42, Policy::Static)
            .nth(batch)
            .expect("16 jobs are two batches of 8")
    };
    let table3 = MemConfig::table3;
    let variants = [
        ("base", base.clone()),
        ("arch", cell(ArchKind::Fa4, 1, 0.02, 42)),
        ("chips", cell(ArchKind::Smt2, 4, 0.02, 42)),
        ("app", base_cell(&ocean)),
        ("seed", cell(ArchKind::Smt2, 1, 0.02, 43)),
        ("scale", cell(ArchKind::Smt2, 1, 0.021, 42)),
        (
            "sched",
            RunSpec {
                sched: Policy::Barrier,
                ..base.clone()
            },
        ),
        (
            "mem.banks",
            with_mem(MemConfig {
                banks: 1,
                ..table3()
            }),
        ),
        (
            "mem.fill_time",
            with_mem(MemConfig {
                fill_time: 0,
                ..table3()
            }),
        ),
        (
            "mem.max_outstanding_loads",
            with_mem(MemConfig {
                max_outstanding_loads: 4,
                ..table3()
            }),
        ),
        (
            "mem.remote_mem_latency",
            with_mem(MemConfig {
                remote_mem_latency: 120,
                ..table3()
            }),
        ),
        (
            "mem.remote_l2_latency",
            with_mem(MemConfig {
                remote_l2_latency: 150,
                ..table3()
            }),
        ),
        (
            "mem.page_size",
            with_mem(MemConfig {
                page_size: 8192,
                ..table3()
            }),
        ),
        (
            "chip.cluster.fetch_policy",
            with_chip(smt2.with_fetch_policy(FetchPolicy::ICount)),
        ),
        (
            "chip.cluster.predictor",
            with_chip(smt2.with_predictor(PredictorKind::StaticTaken)),
        ),
        (
            "chip.cluster.store_buffer",
            with_chip(smt2.with_store_buffer(1)),
        ),
        ("job set", jobs(&mix, 0)),
        ("batch index", jobs(&mix, 1)),
        ("mix order", jobs(&reordered, 0)),
        ("mix membership", jobs(&smaller, 0)),
    ];
    for (i, (name_a, a)) in variants.iter().enumerate() {
        for (name_b, b) in &variants[i + 1..] {
            assert_ne!(key(a), key(b), "{name_a} vs {name_b} collide");
        }
    }
    // What the run does not use is not keyed: batch 0 of an 8-job set is
    // the same simulation as batch 0 of the 16-job set above.
    let of_8 = RunSpec::job_batches(&mix, 8, smt2, 1, 0.02, 42, Policy::Static).next();
    assert_eq!(key(&of_8.unwrap()), key(&jobs(&mix, 0)));
}

#[test]
fn same_shape_different_kind_still_gets_distinct_keys() {
    // FA8 and SMT8 share the hardware shape (8 clusters × width 1), but
    // the chip's kind is part of the digested configuration, so the
    // two Table-2 rows never share cache entries.
    let app = by_name("mgrid").unwrap();
    let fa8 = RunSpec::new(&app, ArchKind::Fa8, 1, 0.02, 42);
    let smt8 = RunSpec::new(&app, ArchKind::Smt8, 1, 0.02, 42);
    assert_ne!(key(&fa8), key(&smt8));
}

#[test]
fn corrupt_truncated_and_foreign_entries_are_recomputed() {
    let app = by_name("mgrid").unwrap();
    let cell = base_cell(&app);
    let dir = tmp_dir("corrupt");
    let cache = ResultCache::new(&dir).unwrap();
    let key = key(&cell);
    let fresh = cell.run();
    cache.store(key, &fresh);
    let path = cache.entry_path(key);
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(cache.load(key).is_some(), "pristine entry must hit");

    // Flip one digit inside the result payload: digest check rejects it.
    let cycles_field = format!("\"cycles\":{}", fresh.cycles);
    let corrupted = good.replace(&cycles_field, &format!("\"cycles\":{}", fresh.cycles + 1));
    assert_ne!(good, corrupted, "corruption must actually edit the payload");
    std::fs::write(&path, &corrupted).unwrap();
    assert!(cache.load(key).is_none(), "tampered payload must miss");

    // Truncation: not even JSON.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(cache.load(key).is_none(), "truncated entry must miss");

    // Foreign schema tag: parseable, self-consistent, still rejected.
    let foreign = good.replace(CACHE_SCHEMA, "some-other-tool-v9");
    std::fs::write(&path, &foreign).unwrap();
    assert!(cache.load(key).is_none(), "foreign schema must miss");

    // The engine recomputes through the bad entry and heals the cache.
    std::fs::write(&path, &corrupted).unwrap();
    let out = SweepEngine::new(1, Some(cache.clone())).run_specs(std::slice::from_ref(&cell));
    assert_eq!((out.hits, out.misses), (0, 1));
    assert_eq!(
        serde_json::to_string(&out.results[0]).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        good,
        "recompute must rewrite the pristine entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_carries_its_own_payload_digest() {
    let app = by_name("mgrid").unwrap();
    let cell = base_cell(&app);
    let dir = tmp_dir("digest");
    let cache = ResultCache::new(&dir).unwrap();
    cache.store(key(&cell), &cell.run());
    let text = std::fs::read_to_string(cache.entry_path(key(&cell))).unwrap();
    let entry: serde::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(entry.get("schema").unwrap().as_str(), Some(CACHE_SCHEMA));
    let stored = entry.get("payload_digest").unwrap().as_str().unwrap();
    assert_eq!(stored, payload_digest(entry.get("result").unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
}
