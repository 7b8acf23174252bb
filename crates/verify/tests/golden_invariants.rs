//! Golden invariant run: every Table 2 architecture simulates `mgrid`
//! under the full [`InvariantProbe`], once per scheduling policy, and must
//! finish with zero violations. The budgets are Table 2 by construction
//! (`ArchKind::chip`); this proves the pipeline honors them cycle by
//! cycle, with and without threads migrating (the fixed-assignment rows
//! exercise the dynamic-policy → static degrade rule).
//!
//! A clean verdict alone would also be what a checker that stopped
//! looking reports, so each run's full [`VerifySummary`] is pinned too:
//! the same checker must count the same events, fetches, commits and
//! squashes over the same cycles.
//!
//! Every architecture also runs on four chips under the static policy:
//! 8 to 32 clusters in one checker, and four nodes' store buffers.

use csmt_core::{ArchKind, Policy};
use csmt_verify::{InvariantProbe, VerifySummary};
use csmt_workloads::{by_name, RunSpec};

/// Same seed as the figure binaries and the golden determinism digests.
const SEED: u64 = 0xC5_317;
const SCALE: f64 = 0.2;

const fn pin(cycles: u64, fetched: u64, squashed: u64, events: u64) -> VerifySummary {
    VerifySummary {
        cycles,
        fetched,
        committed: 22_160,
        squashed,
        events,
    }
}

/// Every run's summary, captured with the hash-map checker that preceded
/// the in-flight ring; `events` fell by `fetched` when fetch stopped being
/// followed by a rename event. Only hazard_pairing on SMT2 migrates a
/// thread at this scale; every other (policy, architecture) pair matches
/// its static row.
const PINNED: [(&str, VerifySummary); 8] = [
    ("FA8", pin(6058, 22_426, 266, 149_262)),
    ("FA4", pin(5340, 22_788, 628, 122_185)),
    ("FA2", pin(6149, 23_005, 845, 114_348)),
    ("FA1", pin(8665, 22_981, 821, 113_385)),
    ("SMT8", pin(6058, 22_426, 266, 149_262)),
    ("SMT4", pin(4888, 22_467, 307, 119_333)),
    ("SMT2", pin(4875, 22_491, 331, 109_730)),
    ("SMT1", pin(5195, 22_518, 358, 105_581)),
];
const SMT2_HAZARD_PAIRING: VerifySummary = pin(4891, 22_518, 358, 109_865);

fn pinned(sched: Policy, arch: &str) -> VerifySummary {
    if (sched, arch) == (Policy::HazardPairing, "SMT2") {
        return SMT2_HAZARD_PAIRING;
    }
    let (_, summary) = PINNED
        .iter()
        .find(|(name, _)| *name == arch)
        .expect("every Table 2 architecture is pinned");
    *summary
}

#[test]
fn all_architectures_run_clean_under_invariant_probe() {
    let app = by_name("mgrid").expect("mgrid is a registered app");
    for sched in Policy::ALL {
        for kind in ArchKind::ALL {
            let what = format!("{} under {}", kind.name(), sched.name());
            let mut probe = InvariantProbe::new(&kind.chip(), 1);
            let result = RunSpec {
                sched,
                ..RunSpec::new(&app, kind, 1, SCALE, SEED)
            }
            .run_probed(&mut probe);
            match probe.finish() {
                Ok(summary) => {
                    assert_eq!(
                        summary.cycles, result.cycles,
                        "{what}: probe cycle count diverged from the run result"
                    );
                    assert_eq!(summary, pinned(sched, kind.name()), "{what}");
                }
                Err(violations) => {
                    let shown: Vec<String> = violations
                        .iter()
                        .take(10)
                        .map(ToString::to_string)
                        .collect();
                    panic!(
                        "{what}: {} invariant violation(s):\n{}",
                        violations.len(),
                        shown.join("\n")
                    );
                }
            }
        }
    }
}

/// Every architecture on four chips under the static policy, captured
/// with the checker that re-matched each event before the typed mirror
/// transitions (`events` less `fetched`, as above).
const PINNED_4CHIP: [(&str, VerifySummary); 8] = [
    ("FA8", pin(4232, 22_613, 453, 235_586)),
    ("FA4", pin(3293, 23_309, 1149, 152_953)),
    ("FA2", pin(3185, 23_975, 1815, 126_812)),
    ("FA1", pin(3941, 24_174, 2014, 118_771)),
    ("SMT8", pin(4232, 22_613, 453, 235_586)),
    ("SMT4", pin(3125, 22_645, 485, 149_332)),
    ("SMT2", pin(2689, 22_664, 504, 120_768)),
    ("SMT1", pin(2715, 22_720, 560, 110_122)),
];

#[test]
fn all_architectures_run_clean_on_four_chips() {
    let app = by_name("mgrid").expect("mgrid is a registered app");
    for (kind, (name, want)) in ArchKind::ALL.into_iter().zip(PINNED_4CHIP) {
        assert_eq!(kind.name(), name, "pins follow ArchKind::ALL");
        let mut probe = InvariantProbe::new(&kind.chip(), 4);
        let result = RunSpec::new(&app, kind, 4, SCALE, SEED).run_probed(&mut probe);
        let summary = probe.finish().unwrap_or_else(|v| {
            panic!(
                "{name} on 4 chips: {} violation(s), first {}",
                v.len(),
                v[0]
            )
        });
        assert_eq!(summary.cycles, result.cycles, "{name} on 4 chips");
        assert_eq!(summary, want, "{name} on 4 chips");
    }
}
