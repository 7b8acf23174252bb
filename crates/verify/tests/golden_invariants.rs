//! Golden invariant run: every Table 2 architecture simulates `mgrid`
//! under the full [`InvariantProbe`], once per scheduling policy, and must
//! finish with zero violations. This is the dynamic half of the
//! static-analysis gate — the config linter proves the budgets are right
//! on paper, this proves the pipeline honors them cycle by cycle, with
//! and without threads migrating (the fixed-assignment rows exercise the
//! dynamic-policy → static degrade rule).

use csmt_core::sched::POLICY_NAMES;
use csmt_core::ArchKind;
use csmt_verify::InvariantProbe;
use csmt_workloads::{by_name, RunSpec};

/// Same seed as the figure binaries and the golden determinism digests.
const SEED: u64 = 0xC5_317;
const SCALE: f64 = 0.2;

#[test]
fn all_architectures_run_clean_under_invariant_probe() {
    let app = by_name("mgrid").expect("mgrid is a registered app");
    for sched in POLICY_NAMES {
        for kind in ArchKind::ALL {
            let what = format!("{} under {sched}", kind.name());
            let chip = kind.chip();
            chip.validate()
                .unwrap_or_else(|e| panic!("{what}: config invalid: {e:?}"));
            let mut probe = InvariantProbe::new(&chip, 1);
            let result = RunSpec {
                sched,
                ..RunSpec::new(&app, kind, 1, SCALE, SEED)
            }
            .run_probed(&mut probe);
            match probe.finish() {
                Ok(summary) => {
                    assert!(summary.committed > 0, "{what}: nothing committed");
                    assert_eq!(
                        summary.cycles, result.cycles,
                        "{what}: probe cycle count diverged from the run result"
                    );
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
