//! The study table is the same experiments the retired per-study binaries
//! ran, and it is the one index of them: every study's grid is its
//! parent-commit grid cell for cell, replays from the cache, and is named
//! alike in DESIGN.md §4, README.md and EXPERIMENTS.md.

use std::collections::BTreeSet;
use std::path::Path;

use csmt_bench::studies::{Setting, STUDIES};
use csmt_sweep::{key, ResultCache, SweepEngine};
use csmt_verify::digest::Fnv64;

/// Per study at scale 0.02 and its default seed: the number of distinct
/// cache keys of its grid and an FNV-64 over them in ascending order
/// (each little-endian). The counts are the retired per-study binaries'
/// grids; the digests were re-captured, with every cell's result and every
/// study's text unchanged, when the chip and memory configs stopped
/// storing their Table 2 / Table 3 constants (a smaller `Debug` preimage),
/// and again when the golden event-stream digests the key absorbs were
/// re-captured for a smaller event vocabulary.
const PINS: [(&str, usize, u64); 12] = [
    ("fig1", 0, 0xcbf2_9ce4_8422_2325),
    ("fig4", 30, 0x5e49_5c60_3131_4d1d),
    ("fig5", 30, 0xb702_70f8_b4a2_d970),
    ("fig6", 48, 0x31ac_f4e6_47e6_2d89),
    ("fig7", 24, 0xa66e_1667_10bf_61ea),
    ("fig8", 24, 0x51a9_8e6b_54fa_c976),
    ("cycle_time_adjusted", 42, 0x1ea9_f9ef_8f58_a62c),
    ("fetch_policies", 54, 0x4824_203c_c205_c11f),
    ("predictor_study", 72, 0x2b16_d285_4244_4fa5),
    ("multiprogram_mix", 54, 0xa705_bd06_4d8d_8fe7),
    ("ablation_study", 144, 0x1be2_e9c1_0b7a_d4d2),
    ("fig9", 29, 0x7d7a_8692_f0f3_8628),
];

#[test]
fn every_study_is_its_parent_grid_and_replays_from_the_cache() {
    let names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        PINS.map(|p| p.0),
        "one pin per study, in table order"
    );

    let dir = std::env::temp_dir().join(format!("csmt_studies_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = SweepEngine::new(2, Some(ResultCache::new(&dir).unwrap()));
    for (study, (name, cells, digest)) in STUDIES.iter().zip(PINS) {
        let setting = Setting {
            scale: 0.02,
            seed: study.default_seed,
        };
        let mut keys = BTreeSet::new();
        let cold = (study.run)(
            &mut |specs| {
                keys.extend(specs.iter().map(key));
                engine.run_specs(specs).results
            },
            setting,
        );
        let mut h = Fnv64::new();
        for k in &keys {
            h.update(&k.to_le_bytes());
        }
        assert_eq!((keys.len(), h.finish()), (cells, digest), "{name}'s grid");

        let mut misses = 0;
        let warm = (study.run)(
            &mut |specs| {
                let outcome = engine.run_specs(specs);
                misses += outcome.misses;
                outcome.results
            },
            setting,
        );
        assert_eq!(cold, warm, "{name}: warm text differs");
        assert_eq!(misses, 0, "{name}: the warm pass simulated");
        assert!(!cold.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The study names following `--bin csmt-study ` in `text`.
fn studies_named(text: &str) -> BTreeSet<&str> {
    const CMD: &str = "--bin csmt-study ";
    text.match_indices(CMD)
        .map(|(at, _)| {
            let rest = &text[at + CMD.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

/// The part of `doc` from the line starting `start` to the next line
/// starting with `end`.
fn section<'a>(doc: &'a str, start: &str, end: &str) -> &'a str {
    let from = doc
        .find(&format!("\n{start}"))
        .unwrap_or_else(|| panic!("no {start:?} section"));
    let len = doc[from + 1..]
        .find(&format!("\n{end}"))
        .map_or(doc.len() - from, |n| n + 1);
    &doc[from..from + len]
}

#[test]
fn the_study_index_cannot_drift() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| std::fs::read_to_string(root.join(name)).expect(name);
    let table: BTreeSet<&str> = STUDIES.iter().map(|s| s.name).collect();
    assert_eq!(table.len(), STUDIES.len(), "duplicate study name");

    let design = read("DESIGN.md");
    let readme = read("README.md");
    let experiments = read("EXPERIMENTS.md");
    let cargo_runs: String = experiments
        .lines()
        .filter(|l| l.starts_with("`cargo run "))
        .collect::<Vec<_>>()
        .join("\n");
    for (doc, named) in [
        ("DESIGN.md §4", section(&design, "## 4.", "## ")),
        (
            "README.md's run list",
            section(&readme, "## Regenerating the paper", "### "),
        ),
        ("EXPERIMENTS.md's `cargo run` lines", cargo_runs.as_str()),
    ] {
        assert_eq!(studies_named(named), table, "STUDIES vs {doc}");
    }
}
