//! Fetch-bottleneck ablation (paper §5.2 discussion).
//!
//! "This fetch bottleneck has been discussed in great detail by Tullsen et
//! al. They suggest several alternatives, such as partitioning the fetch
//! unit or using instruction count feedback techniques to use the fetch
//! unit more intelligently. The centralized SMT is more susceptible to this
//! problem than the clustered SMTs."
//!
//! This harness runs the SMT architectures under the three policies —
//! round-robin (paper baseline), ICOUNT feedback, and a 2-port partitioned
//! fetch — to quantify that susceptibility.

use csmt_core::ArchKind;
use csmt_cpu::FetchPolicy;
use csmt_workloads::{all_apps, RunSpec};

fn main() {
    let scale = csmt_bench::scale_from_args_or(0.5);
    let policies = [
        ("round-robin", FetchPolicy::RoundRobin),
        ("icount", FetchPolicy::ICount),
        ("partitioned-2", FetchPolicy::Partitioned2),
    ];
    // One grid, in print order: arch x policy, each over the six
    // applications.
    const ARCHS: [ArchKind; 3] = [ArchKind::Smt4, ArchKind::Smt2, ArchKind::Smt1];
    let apps = all_apps();
    let mut groups = Vec::new();
    for arch in ARCHS {
        for (_, policy) in policies {
            let over_apps = apps.iter().map(|app| RunSpec {
                chip: arch.chip().with_fetch_policy(policy),
                ..RunSpec::new(app, arch, 1, scale, 7)
            });
            groups.push(over_apps.collect());
        }
    }
    let mut per_app = csmt_bench::run_groups(groups).into_iter();
    println!(
        "{:<6} {:<14} {:>14} {:>10} {:>10}",
        "arch", "fetch policy", "total cycles", "vs RR", "fetch-haz"
    );
    for arch in ARCHS {
        let mut baseline = 0u64;
        for (name, policy) in policies {
            let runs = per_app.next().expect("one group per printed row");
            let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
            let fetch_haz: f64 = runs
                .iter()
                .map(|r| r.hazard_fraction(csmt_cpu::Hazard::Fetch))
                .sum();
            if policy == FetchPolicy::RoundRobin {
                baseline = cycles;
            }
            println!(
                "{:<6} {:<14} {:>14} {:>9.1}% {:>9.2}%",
                arch.name(),
                name,
                cycles,
                100.0 * cycles as f64 / baseline as f64 - 100.0,
                fetch_haz / 6.0 * 100.0
            );
        }
        println!();
    }
    println!(
        "A negative 'vs RR' means the smarter policy recovered part of the\n\
         fetch bottleneck; the centralized SMT1 should benefit the most,\n\
         the clustered SMT4 the least — the paper's susceptibility ordering."
    );
}
