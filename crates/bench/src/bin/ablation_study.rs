//! Ablation study (deterministic cycle counts): how the memory-system
//! design choices affect the headline SMT2-vs-FA comparison.
//!
//! * **bank count** — Table 3's 7 banks vs a single-ported cache vs 16
//!   banks: how much of SMT2's advantage is bank-level parallelism;
//! * **MSHRs** — the §3.1 32-outstanding-loads budget vs a nearly blocking
//!   cache (4);
//! * **remote latency** — doubling Table 3's remote latencies (a larger or
//!   slower interconnect than the paper's 4-node machine);
//! * **fill occupancy** — disabling the 8-cycle fill reservation.

use csmt_core::ArchKind;
use csmt_mem::MemConfig;
use csmt_workloads::{all_apps, RunSpec};

fn main() {
    let scale = csmt_bench::scale_from_args_or(0.5);
    let variants: Vec<(&str, MemConfig)> = vec![
        ("table3 (baseline)", MemConfig::table3()),
        (
            "1 bank/level",
            MemConfig {
                l1_banks: 1,
                l2_banks: 1,
                ..MemConfig::table3()
            },
        ),
        (
            "16 banks/level",
            MemConfig {
                l1_banks: 16,
                l2_banks: 16,
                ..MemConfig::table3()
            },
        ),
        (
            "4 MSHRs",
            MemConfig {
                max_outstanding_loads: 4,
                ..MemConfig::table3()
            },
        ),
        (
            "2x remote latency",
            MemConfig {
                remote_mem_latency: 120,
                remote_l2_latency: 150,
                ..MemConfig::table3()
            },
        ),
        (
            "no fill occupancy",
            MemConfig {
                fill_time: 0,
                ..MemConfig::table3()
            },
        ),
    ];
    // One grid, in print order: machine x variant x {FA2, SMT2}, each over
    // the six applications.
    let apps = all_apps();
    let mut groups = Vec::new();
    const MACHINES: [(usize, &str); 2] = [(1, "low-end"), (4, "high-end (4-chip)")];
    for (chips, _) in MACHINES {
        for (_, cfg) in &variants {
            for arch in [ArchKind::Fa2, ArchKind::Smt2] {
                let over_apps = apps.iter().map(|app| RunSpec {
                    mem: cfg.clone(),
                    ..RunSpec::new(app, arch, chips, scale, 7)
                });
                groups.push(over_apps.collect());
            }
        }
    }
    let mut totals = csmt_bench::run_groups(groups)
        .into_iter()
        .map(|runs| runs.iter().map(|r| r.cycles).sum::<u64>());
    for (_, machine) in MACHINES {
        println!("== {machine} machine ==");
        println!(
            "{:<20} {:>10} {:>10} {:>12}",
            "variant", "FA2 (cyc)", "SMT2 (cyc)", "SMT2 speedup"
        );
        for (name, _) in &variants {
            let fa2 = totals.next().expect("one group per printed number");
            let smt2 = totals.next().expect("one group per printed number");
            println!(
                "{:<20} {:>10} {:>10} {:>11.2}x",
                name,
                fa2,
                smt2,
                fa2 as f64 / smt2 as f64
            );
        }
        println!();
    }
}
