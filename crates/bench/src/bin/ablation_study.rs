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
    for chips in [1usize, 4] {
        println!(
            "== {} machine ==",
            if chips == 1 {
                "low-end"
            } else {
                "high-end (4-chip)"
            }
        );
        println!(
            "{:<20} {:>10} {:>10} {:>12}",
            "variant", "FA2 (cyc)", "SMT2 (cyc)", "SMT2 speedup"
        );
        for (name, cfg) in &variants {
            let mut fa2 = 0u64;
            let mut smt2 = 0u64;
            for app in all_apps() {
                let cycles = |arch| {
                    RunSpec {
                        mem: cfg.clone(),
                        ..RunSpec::new(&app, arch, chips, scale, 7)
                    }
                    .run()
                    .cycles
                };
                fa2 += cycles(ArchKind::Fa2);
                smt2 += cycles(ArchKind::Smt2);
            }
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
