//! Cross-crate scenarios driving the public API with hand-built workloads:
//! lock mutual exclusion through the full pipeline, coherence visibility
//! across chips, a policy-ablated Table 2 chip, and mid-run inspection.

use clustered_smt::prelude::*;
use csmt_core::{ArchKind, Machine};
use csmt_cpu::{FetchPolicy, PredictorKind};
use csmt_isa::stream::VecStream;
use csmt_isa::ArchReg;

fn alu(pc: u64) -> DynInst {
    DynInst::alu(
        pc,
        OpClass::IntAlu,
        Some(ArchReg::Int(1)),
        [Some(ArchReg::Int(1)), None],
    )
}

fn thread_with_lock(work: u64, lock_id: u32, addr: u64) -> Box<dyn InstStream + Send> {
    let mut v = Vec::new();
    for i in 0..work {
        v.push(alu(i * 4));
    }
    v.push(DynInst::sync(0x900, SyncOp::LockAcquire(lock_id)));
    v.push(DynInst::load(0x904, ArchReg::Int(2), addr, [None, None]));
    v.push(DynInst::store(0x908, addr, [Some(ArchReg::Int(2)), None]));
    v.push(DynInst::sync(0x90C, SyncOp::LockRelease(lock_id)));
    v.push(DynInst::sync(0x910, SyncOp::Barrier(0)));
    Box::new(VecStream::new(v))
}

#[test]
fn contended_lock_serializes_critical_sections() {
    let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 1);
    // All 8 threads contend for one lock around one shared address.
    m.attach_threads(
        (0..8)
            .map(|t| thread_with_lock(5 + t, 7, 0xBEEF00))
            .collect(),
    );
    let r = m.run(10_000_000);
    assert_eq!(r.lock_acquisitions, 8, "every thread acquired exactly once");
    assert_eq!(r.barrier_episodes, 1);
    // Contention shows up as sync slots.
    assert!(r.hazard_fraction(Hazard::Sync) > 0.05);
}

#[test]
fn uncontended_locks_are_cheap() {
    // Same shape, but each thread has its own lock: completion should be
    // substantially faster than the contended version.
    let contended = {
        let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 1);
        m.attach_threads(
            (0..8)
                .map(|t| thread_with_lock(200, 7, 0xBEEF00 + t * 64))
                .collect(),
        );
        m.run(10_000_000).cycles
    };
    let private = {
        let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 1);
        m.attach_threads(
            (0..8)
                .map(|t| thread_with_lock(200, t as u32, 0xBEEF00 + t * 64))
                .collect(),
        );
        m.run(10_000_000).cycles
    };
    assert!(
        private < contended,
        "private locks {private} should beat one contended lock {contended}"
    );
}

#[test]
fn cross_chip_sharing_costs_coherence_traffic() {
    // Two chips running a textbook neighbor exchange: every round, each
    // thread writes its own line, hits a barrier, then reads the line the
    // *other* thread just wrote. Every round must therefore invalidate the
    // reader's stale copy and service the read cache-to-cache. The control
    // variant reads its own line back (all local).
    const ROUNDS: u64 = 50;
    let mk = |exchange: bool| {
        let mut m = Machine::new(ArchKind::Fa1.chip(), 2, MemConfig::table3(), 3);
        let stream = |own: u64, other: u64| -> Box<dyn InstStream + Send> {
            let mut v = Vec::new();
            for i in 0..ROUNDS {
                v.push(DynInst::store(i * 12, own, [Some(ArchReg::Int(2)), None]));
                v.push(DynInst::sync(i * 12 + 4, SyncOp::Barrier(i as u32)));
                v.push(DynInst::load(
                    i * 12 + 8,
                    ArchReg::Int(2),
                    other,
                    [None, None],
                ));
            }
            Box::new(VecStream::new(v))
        };
        let (a, b) = (0x10000u64, 0x20000u64);
        if exchange {
            m.attach_threads(vec![stream(a, b), stream(b, a)]);
        } else {
            m.attach_threads(vec![stream(a, a), stream(b, b)]);
        }
        m.run(10_000_000)
    };
    let shared = mk(true);
    let private = mk(false);
    assert!(
        shared.mem.invalidations >= ROUNDS,
        "each round must invalidate a stale copy: {} < {ROUNDS}",
        shared.mem.invalidations
    );
    assert!(
        shared.mem.remote_l2 >= ROUNDS / 2,
        "dirty lines must travel cache-to-cache: {}",
        shared.mem.remote_l2
    );
    assert!(
        shared.mem.invalidations > private.mem.invalidations,
        "the private variant exchanges nothing: {} vs {}",
        shared.mem.invalidations,
        private.mem.invalidations
    );
    assert!(
        shared.cycles > private.cycles,
        "coherence round trips cost time: {} vs {}",
        shared.cycles,
        private.cycles
    );
}

#[test]
fn custom_policies_on_a_table2_chip() {
    // Every policy the ablations vary at once, on SMT4's Table 2 shape,
    // filled to half its 8 contexts.
    let cfg = ArchKind::Smt4
        .chip()
        .with_fetch_policy(FetchPolicy::ICount)
        .with_predictor(PredictorKind::StaticTaken)
        .with_store_buffer(1);
    let mut m = Machine::new(cfg, 1, MemConfig::table3(), 5);
    assert_eq!(m.hw_thread_capacity(), 8);
    m.attach_threads(
        (0..4)
            .map(|t| -> Box<dyn InstStream + Send> {
                Box::new(VecStream::new(
                    (0..300).map(|i| alu(t * 0x1000 + i * 4)).collect(),
                ))
            })
            .collect(),
    );
    let r = m.run(1_000_000);
    assert_eq!(r.slots.committed, 1200);
}

#[test]
fn mid_run_inspection_is_consistent() {
    let app = by_name("mgrid").unwrap();
    let mut m = Machine::new(ArchKind::Smt2.chip(), 1, MemConfig::table3(), 42);
    let params = AppParams::new(m.hw_thread_capacity(), 1, 0.1, 42);
    m.attach_threads(csmt_workloads::build_streams(&app, &params));
    // Step 1000 cycles manually, snapshot, continue to completion.
    for _ in 0..1000 {
        m.step();
    }
    let snap = m.result();
    assert_eq!(snap.cycles, 1000);
    let accounted = snap.slots.useful + snap.slots.wasted.iter().sum::<f64>();
    assert!((accounted - snap.slots.slots as f64).abs() < 1e-6);
    while m.busy() {
        m.step();
    }
    let fin = m.result();
    assert!(fin.cycles > 1000);
    assert!(fin.slots.committed > snap.slots.committed);
}

#[test]
fn slot_accounting_is_exactly_conservative_per_machine() {
    for arch in [ArchKind::Fa8, ArchKind::Smt2, ArchKind::Smt1] {
        let app = by_name("swim").unwrap();
        let r = simulate(&app, arch, 1, 0.1, 7);
        let accounted = r.slots.useful + r.slots.wasted.iter().sum::<f64>();
        assert!(
            (accounted - r.slots.slots as f64).abs() < 1e-3,
            "{}: {accounted} vs {}",
            arch.name(),
            r.slots.slots
        );
        // 8 issue slots per cycle per chip, every cycle accounted.
        assert_eq!(r.slots.slots, r.cycles * 8);
    }
}
