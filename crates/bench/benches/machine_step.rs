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
//! - `fa4_highend_parked`: the same machine with only thread 0 running the
//!   chain and the other 15 exiting at once — 15 of 16 clusters are
//!   parked for the whole run.
//!
//! Two more run `smt2_lowend` through an explicit scheduling policy (the
//! `sched_overhead` gate), and four run a compute-bound calibrated app
//! under each per-instruction probe (the `probe_overhead` gate; see
//! [`probe_scenarios`]). Set `CSMT_BENCH_JSON=<path>` to dump the summary
//! as JSON (recorded floors live in `BENCH_machine_step.json`).

use csmt_core::{ArchKind, Machine};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, InstStream, SyncOp};
use csmt_mem::MemConfig;
use csmt_metrics::MetricsProbe;
use csmt_trace::{NullProbe, PipeviewProbe, Probe};
use csmt_verify::InvariantProbe;
use csmt_workloads::{by_name, RunSpec};
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

/// (name, architecture, chips, scheduling policy, parked). In a parked
/// scenario only thread 0 runs the chain; every other thread exits at once.
///
/// `fa4_highend_parked` is the parked-cluster layer: 15 of its 16
/// clusters have nothing in flight and no context that can run for the
/// whole run, so it prices the steps a per-cluster skip of such cycles
/// would remove (DESIGN §11).
///
/// The last two are the scheduler-seam cost: the `smt2_lowend` workload
/// again under a named policy. `smt2_sched_static` must match
/// `smt2_lowend` bit-for-bit and within noise of its throughput (the seam
/// is one branch per loop iteration); `smt2_sched_hazard` additionally
/// pays the epoch snapshot/rebalance every quantum, and its migrations
/// desynchronize the identical chains' miss convoy, so its
/// `cycles_per_run` is legitimately lower.
const SCENARIOS: [(&str, ArchKind, usize, &str, bool); 5] = [
    ("smt2_lowend", ArchKind::Smt2, 1, "static", false),
    ("fa4_highend_membound", ArchKind::Fa4, 4, "static", false),
    ("fa4_highend_parked", ArchKind::Fa4, 4, "static", true),
    ("smt2_sched_static", ArchKind::Smt2, 1, "static", false),
    (
        "smt2_sched_hazard",
        ArchKind::Smt2,
        1,
        "hazard_pairing",
        false,
    ),
];

/// Run one scenario to completion; returns machine cycles simulated.
fn run_machine(kind: ArchKind, chips: usize, policy: &str, parked: bool) -> u64 {
    let mut m = Machine::new(kind.chip(), chips, MemConfig::table3(), 0xC5_317);
    m.set_scheduler(csmt_core::sched::by_name(policy).expect("known policy"))
        .expect("policy valid for this arch");
    let threads = m.hw_thread_capacity();
    m.attach_threads(
        (0..threads as u64)
            .map(|t| {
                if parked && t > 0 {
                    Box::new(VecStream::new(vec![DynInst::sync(0, SyncOp::Exit)]))
                } else {
                    serial_load_chain(t, LOADS)
                }
            })
            .collect(),
    );
    m.run(2_000_000_000).cycles
}

/// The probe-consumer cost: `mgrid` on the low-end SMT2 machine under
/// [`NullProbe`] and under each probe that mirrors every instruction from
/// fetch to retirement, `finish` included. The serial-load chain above
/// issues too few instructions to exercise a per-instruction probe; a
/// calibrated app keeps the window full. A probe only observes, so all
/// four must simulate the same number of cycles (asserted by the caller).
fn run_probed(probe: &mut impl Probe) -> u64 {
    let app = by_name("mgrid").expect("mgrid is a registered app");
    RunSpec::new(&app, ArchKind::Smt2, 1, 0.25, 0xC5_317)
        .run_probed(probe)
        .cycles
}

/// A probed run is ~6k machine cycles (a few host milliseconds), so each
/// timed repetition is this many runs: the smoke-mode gate still times
/// tens of milliseconds per scenario.
const PROBED_RUNS_PER_REP: u32 = 20;

/// A `probe_overhead` scenario: its name and one full run, probe
/// construction and `finish` included, returning machine cycles.
type ProbedScenario = (&'static str, fn() -> u64);

fn probe_scenarios() -> [ProbedScenario; 4] {
    [
        ("smt2_probed_null", || run_probed(&mut NullProbe)),
        ("smt2_probed_invariant", || {
            let mut p = InvariantProbe::new(&ArchKind::Smt2.chip(), 1);
            let cycles = run_probed(&mut p);
            p.finish().expect("mgrid on SMT2 verifies clean");
            cycles
        }),
        ("smt2_probed_metrics", || {
            let mut p = MetricsProbe::default();
            let cycles = run_probed(&mut p);
            black_box(p.finish());
            cycles
        }),
        ("smt2_probed_pipeview", || {
            let mut p = PipeviewProbe::new(std::io::sink());
            let cycles = run_probed(&mut p);
            p.finish().expect("a sink cannot fail");
            cycles
        }),
    ]
}

/// Time `reps` runs of one scenario after a warm-up run; prints the
/// throughput and returns (cycles per run, JSON record).
fn measure(name: &str, reps: u32, run: impl Fn() -> u64) -> (u64, String) {
    let mut cycles = black_box(run());
    let t0 = Instant::now();
    let mut total_cycles = 0u64;
    for _ in 0..reps {
        cycles = black_box(run());
        total_cycles += cycles;
    }
    let secs = t0.elapsed().as_secs_f64();
    let sps = total_cycles as f64 / secs;
    println!("machine_step/{name}: {sps:.0} cycles/sec ({cycles} cycles/run)");
    let record = format!(
        "    {{\"scenario\": \"{name}\", \"steps_per_sec\": {sps:.0}, \
         \"cycles_per_run\": {cycles}}}"
    );
    (cycles, record)
}

/// Direct cycles/sec measurement (aggregate over several full runs),
/// printed per scenario and optionally dumped as JSON.
fn steps_per_sec_summary(test_mode: bool) {
    let reps = if test_mode { 1 } else { 5 };
    let mut report = Vec::new();
    for (name, kind, chips, policy, parked) in SCENARIOS {
        report.push(measure(name, reps, || run_machine(kind, chips, policy, parked)).1);
    }
    let mut unprobed_cycles = None;
    for (name, run) in probe_scenarios() {
        let (cycles, record) = measure(name, reps * PROBED_RUNS_PER_REP, run);
        assert_eq!(
            *unprobed_cycles.get_or_insert(cycles),
            cycles,
            "{name}: an attached probe changed the simulated cycle count"
        );
        report.push(record);
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
