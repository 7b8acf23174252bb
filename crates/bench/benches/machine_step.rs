//! End-to-end `Machine` throughput (machine cycles simulated per second)
//! on the cycle kernel's worst case for useful work per host second.
//!
//! Two scenarios run whole machines on a memory-bound workload: per-thread
//! *serial* chains of address-dependent loads (each load's address depends
//! on the previous load's result) striding past the page size over a
//! multi-megabyte private footprint. Every load TLB-misses and walks deep
//! into the hierarchy, so the pipeline spends almost all of its time with
//! nothing to issue, fetch blocked on a full window, and nothing to retire
//! — almost every `Machine::step` is a stalled cycle on every cluster:
//!
//! - `smt2_lowend`: the paper's headline low-end machine (1 chip, SMT2,
//!   8 threads).
//! - `fa4_highend_membound`: the high-end machine at its most
//!   communication-heavy (4 chips, FA4, 16 threads), where remote misses
//!   stretch each stall by hundreds of network cycles.
//!
//! Two more run `smt2_lowend` through an explicit scheduling policy (the
//! `sched_overhead` gate). Set `CSMT_BENCH_JSON=<path>` to dump the
//! summary as JSON (recorded floors live in `BENCH_machine_step.json`).

use csmt_core::{ArchKind, Machine};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, InstStream, SyncOp};
use csmt_mem::MemConfig;
use std::hint::black_box;
use std::time::Instant;

/// Stride between consecutive loads: one page plus one line, so every
/// access touches a new page (TLB miss) and a new set (cache miss).
const STRIDE: u64 = 4096 + 64;

/// One thread's program: a serial chain of `n` address-dependent loads
/// (`Fp(1) <- load [Fp(1)]`) over a private footprint based at
/// `tid << 24`, closed by an explicit exit.
fn serial_load_chain(tid: u64, n: u64) -> Box<dyn InstStream + Send> {
    let base = tid << 24;
    let mut v = Vec::with_capacity(n as usize + 1);
    for i in 0..n {
        v.push(DynInst::load(
            base + i * 4,
            ArchReg::Fp(1),
            base + i * STRIDE,
            [Some(ArchReg::Fp(1)), None],
        ));
    }
    v.push(DynInst::sync(base + n * 4, SyncOp::Exit));
    Box::new(VecStream::new(v))
}

/// Loads per thread in every scenario.
const LOADS: u64 = 1200;

/// (name, architecture, chips, scheduling policy).
///
/// The last two are the scheduler-seam cost: the `smt2_lowend` workload
/// again under a named policy. `smt2_sched_static` must match
/// `smt2_lowend` bit-for-bit and within noise of its throughput (the seam
/// is one branch per loop iteration); `smt2_sched_hazard` additionally
/// pays the epoch snapshot/rebalance every quantum, and its migrations
/// desynchronize the identical chains' miss convoy, so its
/// `cycles_per_run` is legitimately lower.
const SCENARIOS: [(&str, ArchKind, usize, &str); 4] = [
    ("smt2_lowend", ArchKind::Smt2, 1, "static"),
    ("fa4_highend_membound", ArchKind::Fa4, 4, "static"),
    ("smt2_sched_static", ArchKind::Smt2, 1, "static"),
    ("smt2_sched_hazard", ArchKind::Smt2, 1, "hazard_pairing"),
];

/// Run one scenario to completion; returns machine cycles simulated.
fn run_machine(kind: ArchKind, chips: usize, policy: &str) -> u64 {
    let mut m = Machine::new(kind.chip(), chips, MemConfig::table3(), 0xC5_317);
    m.set_scheduler(csmt_core::sched::by_name(policy).expect("known policy"))
        .expect("policy valid for this arch");
    let threads = m.hw_thread_capacity();
    m.attach_threads(
        (0..threads)
            .map(|t| serial_load_chain(t as u64, LOADS))
            .collect(),
    );
    m.run(2_000_000_000).cycles
}

/// Direct cycles/sec measurement (aggregate over several full runs),
/// printed per scenario and optionally dumped as JSON.
fn steps_per_sec_summary(test_mode: bool) {
    let reps = if test_mode { 1 } else { 5 };
    let mut report = Vec::new();
    for (name, kind, chips, policy) in SCENARIOS {
        // Warm-up run, then timed repetitions.
        let mut cycles = black_box(run_machine(kind, chips, policy));
        let t0 = Instant::now();
        let mut total_cycles = 0u64;
        for _ in 0..reps {
            cycles = black_box(run_machine(kind, chips, policy));
            total_cycles += cycles;
        }
        let secs = t0.elapsed().as_secs_f64();
        let sps = total_cycles as f64 / secs;
        println!("machine_step/{name}: {sps:.0} cycles/sec ({cycles} cycles/run)");
        report.push(format!(
            "    {{\"scenario\": \"{name}\", \"steps_per_sec\": {sps:.0}, \
             \"cycles_per_run\": {cycles}}}"
        ));
    }
    if let Some(path) = std::env::var_os("CSMT_BENCH_JSON") {
        let body = format!("[\n{}\n]\n", report.join(",\n"));
        std::fs::write(&path, body).expect("CSMT_BENCH_JSON must be writable");
        eprintln!("wrote {}", path.to_string_lossy());
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    steps_per_sec_summary(test_mode);
}
