//! Raw `Cluster::step` throughput (steps/second) — the number the staged
//! pipeline refactor must improve.
//!
//! Two scenarios drive one cluster directly (no Machine/Runtime overhead):
//!
//! - `smt1_full_window`: the centralized 8-issue SMT with 8 threads of
//!   load + FP-chain work. The 128-entry window stays full of waiting
//!   instructions — the worst case for full-window completion scans,
//!   wakeup broadcasts and select rescans.
//! - `smt2_cluster`: one 4-issue/4-thread cluster of the paper's headline
//!   SMT2 with the same mix — the shape every figure spends its time on.
//!
//! The bench measures aggregate steps/sec over several full runs and
//! prints one summary line per scenario (`--test` = one repetition); set
//! `CSMT_BENCH_JSON=<path>` to also write them as JSON (the recorded
//! pre/post-refactor numbers live in `BENCH_cluster_step.json`).

use csmt_cpu::{Cluster, ClusterConfig};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, OpClass};
use csmt_mem::{MemConfig, MemorySystem};
use std::hint::black_box;
use std::time::Instant;

/// Per-thread instruction mix: a load feeding an FP chain, an independent
/// FP chain, independent integer work, and a well-predicted branch every
/// 8 instructions. Keeps the window populated with a blend of waiting,
/// executing and ready entries.
fn stream(tid: u64, n: u64) -> Vec<DynInst> {
    let base = tid << 20;
    let mut v = Vec::with_capacity(n as usize * 5);
    for i in 0..n {
        let pc = base + i * 20;
        v.push(DynInst::load(
            pc,
            ArchReg::Fp(1),
            base + (i * 72) % 32768,
            [None, None],
        ));
        v.push(DynInst::alu(
            pc + 4,
            OpClass::FpAdd,
            Some(ArchReg::Fp(2)),
            [Some(ArchReg::Fp(1)), Some(ArchReg::Fp(2))],
        ));
        v.push(DynInst::alu(
            pc + 8,
            OpClass::FpMul,
            Some(ArchReg::Fp(3)),
            [Some(ArchReg::Fp(3)), None],
        ));
        v.push(DynInst::alu(
            pc + 12,
            OpClass::IntAlu,
            Some(ArchReg::Int(1 + (i % 8) as u8)),
            [None, None],
        ));
        if i % 8 == 7 {
            v.push(DynInst::branch(pc + 16, true, base, [None, None]));
        } else {
            v.push(DynInst::store(
                pc + 16,
                base + (i * 72) % 32768,
                [None, None],
            ));
        }
    }
    v
}

/// Run one cluster to completion; returns cycles stepped.
fn run_cluster(width: usize, threads: usize, insts_per_thread: u64) -> u64 {
    let mut c = Cluster::new(ClusterConfig::for_width(width, threads), 0xC5_317);
    let mut mem = MemorySystem::new(MemConfig::table3(), 1, 7);
    for t in 0..threads {
        c.attach_thread(
            t,
            Box::new(VecStream::new(stream(t as u64, insts_per_thread))),
        );
    }
    let mut events = Vec::new();
    let mut now = 0u64;
    while c.busy() {
        c.step(now, &mut mem, 0, &mut events);
        events.clear();
        now += 1;
    }
    now
}

const SCENARIOS: [(&str, usize, usize, u64); 2] = [
    ("smt1_full_window", 8, 8, 1500),
    ("smt2_cluster", 4, 4, 1500),
];

/// Direct steps/sec measurement (aggregate over several full runs),
/// printed per scenario and optionally dumped as JSON.
fn steps_per_sec_summary(test_mode: bool) {
    let reps = if test_mode { 1 } else { 8 };
    let mut report = Vec::new();
    for (name, width, threads, n) in SCENARIOS {
        // Warm-up run, then timed repetitions.
        let mut cycles = black_box(run_cluster(width, threads, n));
        let t0 = Instant::now();
        let mut total_cycles = 0u64;
        for _ in 0..reps {
            cycles = black_box(run_cluster(width, threads, n));
            total_cycles += cycles;
        }
        let secs = t0.elapsed().as_secs_f64();
        let sps = total_cycles as f64 / secs;
        println!("cluster_step/{name}: {sps:.0} steps/sec ({cycles} cycles/run)");
        report.push(format!(
            "    {{\"scenario\": \"{name}\", \"steps_per_sec\": {sps:.0}, \"cycles_per_run\": {cycles}}}"
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
