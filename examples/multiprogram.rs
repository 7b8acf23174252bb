//! Multiprogrammed mix: a fixed set of eight independent sequential jobs
//! run on every architecture (batched where a chip has fewer contexts) —
//! the workload class where SMT's resource sharing shines without any help
//! from parallel-program structure.
//!
//! ```sh
//! cargo run --release --example multiprogram [scale]
//! ```

use clustered_smt::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.3);
    let mix: Vec<AppSpec> = ["swim", "vpenta", "tomcatv", "ocean"]
        .iter()
        .map(|n| by_name(n).expect("registered"))
        .collect();

    println!("Job set: 8 sequential jobs cycling through swim, vpenta, tomcatv, ocean");
    println!("(chips with fewer contexts run the set in batches — same total work)\n");
    println!(
        "{:<6} {:>8} {:>12} {:>12} {:>8}",
        "arch", "batches", "total cyc", "throughput", "vs FA8"
    );
    let mut base = 0u64;
    for arch in [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ] {
        let r: BatchResult =
            RunSpec::job_batches(&mix, 8, arch.chip(), 1, scale, 42, Policy::Static)
                .map(|batch| batch.run())
                .collect();
        if arch == ArchKind::Fa8 {
            base = r.total_cycles;
        }
        println!(
            "{:<6} {:>8} {:>12} {:>11.2} {:>7.0}%",
            arch.name(),
            r.batches,
            r.total_cycles,
            r.throughput(),
            100.0 * r.total_cycles as f64 / base as f64
        );
    }
    println!(
        "\nNo barriers couple the jobs, so the FA rows' slowdowns are pure\n\
         resource stranding; the SMT rows convert those slots into\n\
         another job's progress."
    );
}
