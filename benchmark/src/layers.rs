//! Direct per-layer measurements of the traced run: each layer timed
//! from outside through its public functions, with inputs built to hit
//! one path (the class of every memory access is confirmed from its
//! outcome). Scenarios shared with `crates/bench/benches/` use the same
//! instruction mixes so the numbers line up with the gated records.

use crate::stats::median;
use csmt_core::{ArchKind, Machine, RunResult};
use csmt_cpu::{BranchPredictor, Cluster, ClusterConfig};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, InstStream, OpClass, SplitMix64, SyncOp};
use csmt_mem::cache::Cache;
use csmt_mem::directory::Directory;
use csmt_mem::tlb::Tlb;
use csmt_mem::{AccessKind, MemConfig, MemorySystem, ServicedBy};
use csmt_metrics::MetricsProbe;
use csmt_sweep::{pool, ResultCache, SweepCell, SweepEngine};
use csmt_trace::{IntervalSampler, PipeviewProbe, Probe};
use csmt_verify::InvariantProbe;
use csmt_workloads::{all_apps, build_streams, by_name, simulate_probed, AppParams};
use std::hint::black_box;
use std::time::Instant;

/// `(name, value)`; units live in `crate::metrics::PER_LAYER`.
pub type Metric = (&'static str, f64);

/// How much work the direct measurements do.
pub struct Size {
    /// Repetitions, the fastest of which is reported.
    pub reps: usize,
    /// Operations per repetition of a per-operation micro-measurement.
    pub ops: u64,
    /// Work scale of the stream-drain and probe-overhead cells.
    pub cell_scale: f64,
    /// Work scale of the `kernel_highend` grid for the pool speed-up.
    pub pool_scale: f64,
}

/// Full-size measurements (about four seconds in total).
pub const FULL: Size = Size {
    reps: 3,
    ops: 100_000,
    cell_scale: 0.1,
    pool_scale: 0.05,
};

/// `--smoke`: every code path once, numbers not meaningful.
pub const SMOKE: Size = Size {
    reps: 1,
    ops: 5_000,
    cell_scale: 0.01,
    pool_scale: 0.005,
};

/// Fastest of `reps` runs, in ns per operation, after one untimed
/// warm-up call. `f` runs a batch and returns how many operations it
/// timed and how long they took in seconds (set-up inside `f` but
/// outside its own clock is free). The minimum, not the median: these
/// are millisecond-long runs on a shared host, where interference only
/// ever adds time.
fn best_ns_per_op(reps: usize, mut f: impl FnMut() -> (u64, f64)) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let (ops, secs) = f();
            secs * 1e9 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fastest of `reps` runs of `f`, in seconds, after one untimed call.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    best_ns_per_op(reps, || {
        let t = Instant::now();
        f();
        (1, t.elapsed().as_secs_f64())
    }) / 1e9
}

// --- csmt-isa / csmt-workloads -------------------------------------------

fn isa_and_workloads(size: &Size, seed: u64, out: &mut Vec<Metric>) {
    let params = AppParams::new(8, 1, size.cell_scale, seed);
    let mut build_us = Vec::new();
    let next_ns = best_ns_per_op(size.reps, || {
        let mut insts = 0u64;
        let mut secs = 0.0;
        for app in all_apps() {
            let t = Instant::now();
            let mut streams = build_streams(&app, &params);
            build_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            for s in &mut streams {
                while let Some(i) = s.next_inst() {
                    black_box(i);
                    insts += 1;
                }
            }
            secs += t.elapsed().as_secs_f64();
        }
        (insts, secs)
    });
    out.push(("isa.stream_next_ns", next_ns));
    out.push(("workloads.build_streams_us", median(&build_us)));
}

// --- csmt-cpu ------------------------------------------------------------

/// The instruction mix of `benches/cluster_step.rs`: a load feeding an
/// FP chain, an independent FP chain, integer work, a store or a
/// well-predicted branch.
fn mixed_stream(tid: u64, n: u64) -> Vec<DynInst> {
    let base = tid << 20;
    let mut v = Vec::with_capacity(n as usize * 5);
    for i in 0..n {
        let pc = base + i * 20;
        let addr = base + (i * 72) % 32768;
        v.push(DynInst::load(pc, ArchReg::Fp(1), addr, [None, None]));
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
        v.push(if i % 8 == 7 {
            DynInst::branch(pc + 16, true, base, [None, None])
        } else {
            DynInst::store(pc + 16, addr, [None, None])
        });
    }
    v
}

/// The memory-bound thread of `benches/machine_step.rs`: a serial chain
/// of address-dependent loads, each to a new page and a new set.
fn serial_load_chain(tid: u64, n: u64) -> Box<dyn InstStream + Send> {
    const STRIDE: u64 = 4096 + 64;
    let base = tid << 24;
    let mut v: Vec<DynInst> = (0..n)
        .map(|i| {
            DynInst::load(
                base + i * 4,
                ArchReg::Fp(1),
                base + i * STRIDE,
                [Some(ArchReg::Fp(1)), None],
            )
        })
        .collect();
    v.push(DynInst::sync(base + n * 4, SyncOp::Exit));
    Box::new(VecStream::new(v))
}

/// The active thread of `benches/machine_step.rs`: FP adds over eight
/// independent chains, no memory traffic.
fn compute_chain(tid: u64, n: u64) -> Box<dyn InstStream + Send> {
    let base = tid << 24;
    let mut v: Vec<DynInst> = (0..n)
        .map(|i| {
            let r = ArchReg::Fp(1 + (i % 8) as u8);
            DynInst::alu(base + i * 4, OpClass::FpAdd, Some(r), [Some(r), None])
        })
        .collect();
    v.push(DynInst::sync(base + n * 4, SyncOp::Exit));
    Box::new(VecStream::new(v))
}

/// Step one cluster until it drains; `(steps, seconds)`.
fn run_cluster(width: usize, streams: Vec<Box<dyn InstStream + Send>>) -> (u64, f64) {
    let mut c = Cluster::new(ClusterConfig::for_width(width, streams.len()), 0xC5_317);
    let mut mem = MemorySystem::new(MemConfig::table3(), 1, 7);
    for (t, s) in streams.into_iter().enumerate() {
        c.attach_thread(t, s);
    }
    let mut events = Vec::new();
    let mut now = 0u64;
    let t = Instant::now();
    while c.busy() {
        c.step(now, &mut mem, 0, &mut events);
        events.clear();
        now += 1;
    }
    (now, t.elapsed().as_secs_f64())
}

fn cpu(size: &Size, out: &mut Vec<Metric>) {
    let per_thread = (size.ops / 130).max(20);
    let mixed = |threads: u64| -> Vec<Box<dyn InstStream + Send>> {
        (0..threads)
            .map(|t| Box::new(VecStream::new(mixed_stream(t, per_thread))) as _)
            .collect()
    };
    out.push((
        "cpu.cluster_step_ns.smt1_full_window",
        best_ns_per_op(size.reps, || run_cluster(8, mixed(8))),
    ));
    out.push((
        "cpu.cluster_step_ns.smt2_cluster",
        best_ns_per_op(size.reps, || run_cluster(4, mixed(4))),
    ));
    out.push((
        "cpu.cluster_step_ns.stalled",
        best_ns_per_op(size.reps, || {
            run_cluster(
                4,
                (0..4)
                    .map(|t| serial_load_chain(t, (size.ops / 400).max(10)))
                    .collect(),
            )
        }),
    ));
    let mut p = BranchPredictor::new();
    out.push((
        "cpu.bpred_ns",
        per_op_ns(size, |rng| {
            let pc = rng.below(1 << 16) * 4;
            let taken = rng.chance(0.6);
            let pred = p.predict(pc);
            p.resolve(pc, taken, pc + 64, pred != taken);
            black_box(pred);
        }),
    ));
}

// --- csmt-mem ------------------------------------------------------------

/// Accesses timed and how many were serviced by the intended class.
#[derive(Default)]
struct Purity {
    attempts: u64,
    intended: u64,
}

const LINE: u64 = 64;
/// Cycles between consecutive accesses: long enough that every earlier
/// miss has completed, so no access merges into an in-flight fill.
const GAP: u64 = 200;

/// Time `n` accesses `(node, addr, kind)` produced by `next`; returns
/// the seconds and how many were serviced by `want`.
fn timed_accesses(
    m: &mut MemorySystem,
    now: &mut u64,
    n: u64,
    want: ServicedBy,
    mut next: impl FnMut(u64) -> (usize, u64, AccessKind),
) -> (f64, u64) {
    let mut matched = 0;
    let t = Instant::now();
    for i in 0..n {
        let (node, addr, kind) = next(i);
        *now += GAP;
        let o = black_box(m.access(node, addr, kind, *now));
        matched += u64::from(o.serviced_by == want);
    }
    (t.elapsed().as_secs_f64(), matched)
}

/// Untimed accesses that put lines into the state a class needs.
fn prepare(
    m: &mut MemorySystem,
    now: &mut u64,
    accesses: impl Iterator<Item = (usize, u64, AccessKind)>,
) {
    for (node, addr, kind) in accesses {
        *now += GAP;
        m.access(node, addr, kind, *now);
    }
}

/// ns per call of `op`, fed by a fixed random stream.
fn per_op_ns(size: &Size, mut op: impl FnMut(&mut SplitMix64)) -> f64 {
    best_ns_per_op(size.reps, || {
        let mut rng = SplitMix64::new(2);
        let t = Instant::now();
        for _ in 0..size.ops {
            op(&mut rng);
        }
        (size.ops, t.elapsed().as_secs_f64())
    })
}

fn mem(size: &Size, out: &mut Vec<Metric>) {
    use AccessKind::{Read, Write};
    let cfg = MemConfig::table3;
    let n = size.ops;
    let mut purity = Purity::default();
    let lines_per_page = cfg().page_size / LINE;
    // Fresh lines homed away from node 0 on a 4-node machine: skip the
    // pages the round-robin interleave gives to node 0.
    let remote_line = |k: u64| {
        let page = k / lines_per_page;
        (page / 3 * 4 + 1 + page % 3) * lines_per_page + k % lines_per_page
    };
    let dir4 = Directory::new(4, lines_per_page);
    assert!((0..4 * lines_per_page).all(|k| dir4.home_of(remote_line(k)) != 0));

    // One class on a fresh `nodes`-node system: `warm` lines read once by
    // node 0 untimed, then `n` timed reads of `line(i)` by node 0.
    let mut reads = |nodes: usize, warm: u64, want: ServicedBy, line: &dyn Fn(u64) -> u64| {
        best_ns_per_op(size.reps, || {
            let (mut m, mut now) = (MemorySystem::new(cfg(), nodes, 5), 0);
            prepare(
                &mut m,
                &mut now,
                (0..warm).map(|i| (0, line(i) * LINE, Read)),
            );
            let (secs, matched) =
                timed_accesses(&mut m, &mut now, n, want, |i| (0, line(i) * LINE, Read));
            purity.attempts += n;
            purity.intended += matched;
            (n, secs)
        })
    };
    // L1 hit: 256 resident lines read round-robin.
    let l1 = reads(1, 256, ServicedBy::L1, &|i| i % 256);
    // L2 hit: a 512 KB cyclic sweep — 8x the L1, half the L2 — so every
    // access misses the 2-way LRU L1 and hits the L2.
    let l2 = reads(1, 8192, ServicedBy::L2, &|i| i % 8192);
    // Local memory: never-touched lines on a one-node machine.
    let local = reads(1, 0, ServicedBy::LocalMem, &|i| i);
    // Remote memory: never-touched lines homed on nodes 1-3.
    let remote_mem = reads(4, 0, ServicedBy::RemoteMem, &remote_line);

    // Remote L2 and write upgrade need another node to act first, so
    // they work in batches small enough to stay resident: prepare a
    // batch untimed, time the access that needs it.
    const BATCH: u64 = 512;
    let batches = (n / BATCH).max(1);
    let mut batched = |before: &dyn Fn(u64) -> Vec<(usize, u64, AccessKind)>,
                       kind: AccessKind,
                       want: Option<ServicedBy>| {
        best_ns_per_op(size.reps, || {
            let (mut m, mut now, mut secs) = (MemorySystem::new(cfg(), 4, 5), 0, 0.0);
            for b in 0..batches {
                let addr = move |i: u64| (b * BATCH + i) * LINE;
                prepare(&mut m, &mut now, (0..BATCH).flat_map(|i| before(addr(i))));
                let upgrades = m.node_stats(0).upgrades;
                let (s, matched) = timed_accesses(
                    &mut m,
                    &mut now,
                    BATCH,
                    want.unwrap_or(ServicedBy::LocalMem),
                    |i| (0, addr(i), kind),
                );
                secs += s;
                purity.attempts += BATCH;
                // An upgrade is told from a plain local-memory miss by
                // the hierarchy's own counter.
                purity.intended += match want {
                    Some(_) => matched,
                    None => m.node_stats(0).upgrades - upgrades,
                };
            }
            (batches * BATCH, secs)
        })
    };
    // Remote L2: node 1 dirties a line, node 0 reads it.
    let remote_l2 = batched(&|a| vec![(1, a, Write)], Read, Some(ServicedBy::RemoteL2));
    // Write upgrade: nodes 0 and 1 share a clean line, node 0 writes it
    // (an L1 hit that needs the directory to invalidate the sharer).
    let upgrade = batched(&|a| vec![(0, a, Read), (1, a, Read)], Write, None);

    out.push(("mem.access_ns.l1_hit", l1));
    out.push(("mem.access_ns.l2_hit", l2));
    out.push(("mem.access_ns.local_mem", local));
    out.push(("mem.access_ns.remote_l2", remote_l2));
    out.push(("mem.access_ns.remote_mem", remote_mem));
    out.push(("mem.access_ns.write_upgrade", upgrade));
    out.push((
        "mem.access.class_purity",
        purity.intended as f64 / purity.attempts.max(1) as f64,
    ));

    let mut tlb = Tlb::new(512, 3);
    out.push((
        "mem.tlb_ns",
        per_op_ns(size, |rng| {
            black_box(tlb.access(rng.below(2048)));
        }),
    ));
    let mut dir = Directory::new(4, lines_per_page);
    out.push((
        "mem.directory_ns",
        per_op_ns(size, |rng| {
            let (line, node) = (rng.below(1 << 12), rng.below_usize(4));
            if rng.chance(0.3) {
                black_box(dir.write(line, node));
            } else {
                black_box(dir.read(line, node));
            }
        }),
    ));
    let mut cache = Cache::l1(&cfg());
    out.push((
        "mem.cache_tag_ns",
        per_op_ns(size, |rng| {
            let line = rng.below(1 << 14);
            black_box(cache.access(line, line % 4 == 0));
        }),
    ));
}

// --- csmt-core -----------------------------------------------------------

/// Run a machine of `kind` × `chips` on `gen` threads; `(cycles, secs)`.
fn run_machine(
    kind: ArchKind,
    chips: usize,
    gen: fn(u64, u64) -> Box<dyn InstStream + Send>,
    insts: u64,
    configure: impl Fn(&mut Machine),
) -> (u64, f64) {
    let mut m = Machine::new(kind.chip(), chips, MemConfig::table3(), 0xC5_317);
    configure(&mut m);
    let threads = m.hw_thread_capacity() as u64;
    m.attach_threads((0..threads).map(|t| gen(t, insts)).collect());
    let t = Instant::now();
    let cycles = m.run(2_000_000_000).cycles;
    (cycles, t.elapsed().as_secs_f64())
}

fn core(size: &Size, out: &mut Vec<Metric>) {
    let loads = (size.ops / 170).max(20);
    let adds = (size.ops / 25).max(100);
    let membound = |ff: bool| {
        best_ns_per_op(size.reps, || {
            run_machine(ArchKind::Fa4, 4, serial_load_chain, loads, |m| {
                m.set_fastforward(ff);
                m.set_parallel(false);
            })
        })
    };
    let (stepped, ff) = (membound(false), membound(true));
    out.push(("core.cycle_ns.membound_stepped", stepped));
    out.push(("core.cycle_ns.membound_ff", ff));
    out.push(("core.ff_over_stepped", stepped / ff));
    let active = |par: bool| {
        best_ns_per_op(size.reps, || {
            run_machine(ArchKind::Fa4, 4, compute_chain, adds, |m| {
                m.set_parallel(par)
            })
        })
    };
    let (serial, parallel) = (active(false), active(true));
    out.push(("core.cycle_ns.active_serial", serial));
    out.push(("core.cycle_ns.active_parallel", parallel));
    out.push(("core.par_over_serial", serial / parallel));
    // One chip is a fraction of the four-chip scenarios above: run it
    // four times as long so the ratio is not a few milliseconds' noise.
    let sched = |policy: &'static str| {
        best_ns_per_op(size.reps, || {
            run_machine(ArchKind::Smt2, 1, serial_load_chain, 4 * loads, |m| {
                m.set_parallel(false);
                m.set_scheduler(csmt_core::sched::by_name(policy).expect("known policy"))
                    .expect("policy valid on SMT2");
            })
        })
    };
    let stat = sched("static");
    out.push((
        "core.sched_overhead_frac.barrier",
        sched("barrier") / stat - 1.0,
    ));
    out.push((
        "core.sched_overhead_frac.hazard_pairing",
        sched("hazard_pairing") / stat - 1.0,
    ));
}

// --- csmt-trace / csmt-metrics / csmt-verify -----------------------------

/// The four fixed cells the probe overheads are measured on.
const PROBE_CELLS: [(&str, ArchKind, usize); 4] = [
    ("mgrid", ArchKind::Smt2, 1),
    ("ocean", ArchKind::Fa4, 1),
    ("swim", ArchKind::Smt2, 4),
    ("fmm", ArchKind::Fa4, 4),
];

/// Seconds to run the four cells with the probe `make` builds
/// and `finish` drains.
fn probed_secs<P: Probe>(
    size: &Size,
    seed: u64,
    make: impl Fn(ArchKind, usize) -> P,
    mut finish: impl FnMut(P),
) -> f64 {
    best_secs(size.reps, || {
        for (app, arch, chips) in PROBE_CELLS {
            let app = by_name(app).expect("paper app");
            let mut p = make(arch, chips);
            black_box(simulate_probed(
                &app,
                arch.chip(),
                chips,
                size.cell_scale,
                seed,
                MemConfig::table3(),
                &mut p,
            ));
            finish(p);
        }
    })
}

fn probes(size: &Size, seed: u64, out: &mut Vec<Metric>) {
    let null = probed_secs(size, seed, |_, _| csmt_trace::NullProbe, |_| {});
    let over = |secs: f64| secs / null - 1.0;
    out.push((
        "trace.probe_overhead_frac.sampler",
        over(probed_secs(
            size,
            seed,
            |_, _| IntervalSampler::new(std::io::sink(), 1000),
            |mut p| p.finish().expect("sink never fails"),
        )),
    ));
    out.push((
        "trace.probe_overhead_frac.pipeview",
        over(probed_secs(
            size,
            seed,
            |_, _| PipeviewProbe::new(std::io::sink()),
            |mut p| p.finish().expect("sink never fails"),
        )),
    ));
    out.push((
        "metrics.probe_overhead_frac.metrics",
        over(probed_secs(
            size,
            seed,
            |_, _| MetricsProbe::new(1000),
            |p| {
                black_box(p.finish());
            },
        )),
    ));
    let mut events = 0;
    let invariant = probed_secs(
        size,
        seed,
        |arch, chips| InvariantProbe::new(&arch.chip(), chips),
        |p| events = p.finish().map_or(0, |s| s.events),
    );
    out.push(("verify.probe_overhead_frac.invariant", over(invariant)));
    // Events of the last cell: a simulated count, identical on every run.
    out.push(("verify.events", events as f64));
}

// --- csmt-sweep ----------------------------------------------------------

fn sweep(
    size: &Size,
    seed: u64,
    cells: &[SweepCell],
    results: &[RunResult],
    out: &mut Vec<Metric>,
) {
    out.push((
        "sweep.key_ns",
        best_ns_per_op(size.reps, || {
            let t = Instant::now();
            for c in cells {
                black_box(c.key());
            }
            (cells.len() as u64, t.elapsed().as_secs_f64())
        }),
    ));
    let dir = crate::workloads::out_dir().join(format!("layer-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir).expect("cache directory under benchmark/out");
    let n = (size.ops / 1000).max(results.len() as u64);
    let entry = |k: u64| &results[k as usize % results.len()];
    let store_us = best_ns_per_op(size.reps, || {
        let t = Instant::now();
        for k in 0..n {
            cache.store(k, entry(k));
        }
        (n, t.elapsed().as_secs_f64())
    }) / 1e3;
    let load_us = best_ns_per_op(size.reps, || {
        let t = Instant::now();
        for k in 0..n {
            black_box(cache.load(k).expect("entry just stored"));
        }
        (n, t.elapsed().as_secs_f64())
    }) / 1e3;
    let bytes: u64 = (0..n)
        .map(|k| std::fs::metadata(cache.entry_path(k)).map_or(0, |m| m.len()))
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    out.push(("sweep.cache_load_us", load_us));
    out.push(("sweep.cache_store_us", store_us));
    out.push(("sweep.entry_bytes", bytes as f64 / n as f64));
    let jobs = (size.ops / 20).max(100);
    out.push((
        "sweep.pool_dispatch_us",
        best_ns_per_op(size.reps, || {
            let t = Instant::now();
            black_box(pool::run_jobs(jobs as usize, 2, |i| i, |_, _: &usize| {}));
            (jobs, t.elapsed().as_secs_f64())
        }) / 1e3,
    ));
    let grid = crate::workloads::by_name("kernel_highend")
        .expect("workload exists")
        .grid(seed, size.pool_scale);
    let pooled = |workers: usize| {
        best_secs(size.reps.min(3), || {
            black_box(SweepEngine::new(workers, None).run(&grid));
        })
    };
    out.push(("sweep.pool_speedup_2w", pooled(1) / pooled(2)));
}

/// Every direct per-layer measurement. `cells`/`results` are one grid of
/// the calling workload (inputs for the key and cache-entry timings).
/// The caller pins `CSMT_PARALLEL=0`: machines built here step serially
/// unless a measurement turns the parallel step on itself.
pub fn direct(size: &Size, seed: u64, cells: &[SweepCell], results: &[RunResult]) -> Vec<Metric> {
    let mut out = Vec::new();
    isa_and_workloads(size, seed, &mut out);
    cpu(size, &mut out);
    mem(size, &mut out);
    core(size, &mut out);
    probes(size, seed, &mut out);
    sweep(size, seed, cells, results, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_patterns_hit_their_intended_class() {
        let mut out = Vec::new();
        mem(&SMOKE, &mut out);
        let purity = out
            .iter()
            .find(|m| m.0 == "mem.access.class_purity")
            .expect("purity reported")
            .1;
        assert!(purity > 0.99, "class purity {purity}");
        assert!(out.iter().all(|m| m.1 > 0.0), "{out:?}");
    }
}
