//! High-end machine tour: the 4-chip DASH-like CC-NUMA of the paper's
//! Figure 3 running ocean (the most communication-heavy application), with
//! per-node memory behaviour and coherence traffic reported.
//!
//! ```sh
//! cargo run --release --example multichip [scale]
//! ```

use clustered_smt::prelude::*;
use csmt_core::{ArchKind, Machine};
use csmt_workloads::build_streams;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let app = by_name("ocean").expect("registered");

    let mut machine = Machine::new(ArchKind::Smt2.chip(), 4, MemConfig::table3(), 42);
    let n_threads = machine.hw_thread_capacity();
    println!(
        "4-chip high-end machine: {} × SMT2 = {} hardware contexts",
        4, n_threads
    );
    let params = AppParams::new(n_threads, 4, scale, 42);
    machine.attach_threads(build_streams(&app, &params));
    let r = machine.run(2_000_000_000);

    println!(
        "\nocean on SMT2 × 4 chips: {} cycles, chip-IPC {:.2}",
        r.cycles,
        r.ipc() / 4.0
    );

    println!("\nPer-node memory behaviour:");
    println!(
        "{:>4} {:>10} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "node", "accesses", "L1%", "L2", "localMem", "remoteMem", "remoteL2"
    );
    for node in 0..4 {
        let s = machine.memory().node_stats(node);
        println!(
            "{:>4} {:>10} {:>7.1}% {:>8} {:>9} {:>9} {:>9}",
            node,
            s.accesses,
            s.l1_hit_rate() * 100.0,
            s.l2_hits,
            s.local_mem,
            s.remote_mem,
            s.remote_l2
        );
    }

    let total = machine.memory().stats();
    println!("\nCoherence (DASH-like, full-map MESI directory):");
    println!(
        "  cache-to-cache      : {}   (remote-L2 services, 75-cycle round trips)",
        total.remote_l2
    );
    println!(
        "  invalidations sent  : {}   (boundary-row write sharing)",
        total.invalidations
    );
    println!(
        "  upgrades            : {}   (writes to clean copies that needed the home)",
        total.upgrades
    );

    println!(
        "\nCommunication intensity: {:.2}% of accesses serviced off-chip",
        total.remote_fraction() * 100.0
    );
}
