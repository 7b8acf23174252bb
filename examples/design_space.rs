//! Design-space sweep: one application across all seven Table 2
//! architectures, in raw cycles and with the §5.2 clock-frequency
//! adjustment (8-issue clusters cycle ~2× slower per Palacharla & Jouppi).
//!
//! ```sh
//! cargo run --release --example design_space [app] [scale]
//! ```

use clustered_smt::prelude::*;
use csmt_core::ArchKind;

fn main() {
    let mut args = std::env::args().skip(1);
    let app_name = args.next().unwrap_or_else(|| "mgrid".into());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let app = by_name(&app_name).expect("unknown application");

    let archs = [
        ArchKind::Fa8,
        ArchKind::Fa4,
        ArchKind::Fa2,
        ArchKind::Fa1,
        ArchKind::Smt4,
        ArchKind::Smt2,
        ArchKind::Smt1,
    ];

    println!(
        "{} across the Table 2 design space (low-end machine):\n",
        app.name
    );
    println!(
        "{:<6} {:>8} {:>7} {:>7} {:>9} {:>10}",
        "arch", "cycles", "IPC", "clock", "adj time", "adj (norm)"
    );
    let mut rows = Vec::new();
    for arch in archs {
        let r = simulate(&app, arch, 1, scale, 42);
        // §5.2: 8-issue clusters pay a 2× cycle-time penalty.
        let clock = if arch.chip().cluster().issue_width == 8 {
            2.0
        } else {
            1.0
        };
        rows.push((arch, r.cycles, r.ipc(), clock, r.cycles as f64 * clock));
    }
    let base = rows[0].4;
    for (arch, cycles, ipc, clock, adj) in &rows {
        println!(
            "{:<6} {:>8} {:>7.2} {:>6.0}x {:>9.0} {:>10.0}",
            arch.name(),
            cycles,
            ipc,
            clock,
            adj,
            100.0 * adj / base
        );
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.4.partial_cmp(&b.4).unwrap())
        .unwrap();
    println!(
        "\nMost cost-effective organization after the clock adjustment: {}",
        best.0.name()
    );
}
