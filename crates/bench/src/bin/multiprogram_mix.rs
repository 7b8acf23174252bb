//! Multiprogrammed-mix study (extension; the evaluation mode of the SMT
//! papers the paper builds on — Tullsen et al. [16], Lo et al. [9]).
//!
//! A fixed set of 8 independent sequential jobs is run on every
//! architecture; chips with fewer hardware contexts run the set in
//! capacity-sized batches (FA2 = 4 batches of 2), so the total work is
//! identical everywhere. With no barriers coupling the contexts this
//! isolates pure *resource-sharing* adaptivity: FA chips strand the slots
//! of whichever cluster's job stalls, SMT chips let any job absorb them.

use csmt_core::ArchKind;
use csmt_workloads::{all_apps, AppSpec, BatchResult, RunSpec};

/// The studied architectures, in display order (FA8 is the baseline).
const ARCHS: [ArchKind; 7] = [
    ArchKind::Fa8,
    ArchKind::Fa4,
    ArchKind::Fa2,
    ArchKind::Fa1,
    ArchKind::Smt4,
    ArchKind::Smt2,
    ArchKind::Smt1,
];

fn main() {
    let scale = csmt_bench::scale_from_args_or(0.3);
    let apps = all_apps();
    let mix =
        |apps_of: &[usize]| -> Vec<AppSpec> { apps_of.iter().map(|&i| apps[i].clone()).collect() };
    let mixes = [
        ("8 jobs of swim+vpenta", mix(&[0, 3])),
        ("8 jobs of swim+vpenta+tomcatv+ocean", mix(&[0, 3, 1, 5])),
        ("8 jobs over all six applications", mix(&[0, 1, 2, 3, 4, 5])),
    ];
    const JOBS: usize = 8;
    // One grid, in print order: mix x arch, each the batches of its job set.
    let groups = mixes
        .iter()
        .flat_map(|(_, mix)| {
            ARCHS.map(|arch| {
                RunSpec::job_batches(mix, JOBS, arch.chip(), 1, scale, 7, "static").collect()
            })
        })
        .collect();
    let mut rows = csmt_bench::run_groups(groups)
        .into_iter()
        .map(|batches| batches.iter().collect::<BatchResult>());
    for (name, _) in &mixes {
        let row: Vec<BatchResult> = rows.by_ref().take(ARCHS.len()).collect();
        println!("== {name} ==");
        println!(
            "{:<6} {:>8} {:>12} {:>12} {:>8}",
            "arch", "batches", "total cyc", "throughput", "vs FA8"
        );
        let base = row[0].total_cycles;
        for (arch, r) in ARCHS.iter().zip(&row) {
            println!(
                "{:<6} {:>8} {:>12} {:>11.2} {:>7.0}%",
                arch.name(),
                r.batches,
                r.total_cycles,
                r.throughput(),
                100.0 * r.total_cycles as f64 / base as f64
            );
        }
        println!();
    }
    println!(
        "With independent jobs the SMT chips convert every stalled slot into\n\
         another job's progress; the FA chips cannot. This is the pure\n\
         resource-sharing half of the paper's flexibility argument, with the\n\
         thread-parallelism half (barriers, serial sections) removed."
    );
}
