//! Property-based tests of the cluster pipeline: for *any* valid program on
//! *any* Table 2 cluster shape, the pipeline must commit exactly the
//! correct-path instructions, never deadlock, conserve issue slots, and be
//! deterministic.

use csmt_cpu::{Cluster, ClusterConfig, ClusterEvent, ThreadState};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, OpClass, SplitMix64};
use csmt_mem::{MemConfig, MemorySystem};
use proptest::prelude::*;

/// A compact description of one random instruction.
#[derive(Debug, Clone)]
enum Op {
    Int { dest: u8, src: u8 },
    Fp { dest: u8, src: u8 },
    Mul { dest: u8, src: u8 },
    Div { dest: u8, src: u8 },
    Load { dest: u8, addr: u16, addr_src: u8 },
    Store { addr: u16, val_src: u8 },
    Branch { taken: bool, src: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u8..30, 0u8..30).prop_map(|(dest, src)| Op::Int { dest, src }),
        4 => (0u8..30, 0u8..30).prop_map(|(dest, src)| Op::Fp { dest, src }),
        1 => (1u8..30, 0u8..30).prop_map(|(dest, src)| Op::Mul { dest, src }),
        1 => (1u8..30, 0u8..30).prop_map(|(dest, src)| Op::Div { dest, src }),
        3 => (0u8..30, any::<u16>(), 0u8..30)
            .prop_map(|(dest, addr, addr_src)| Op::Load { dest, addr, addr_src }),
        2 => (any::<u16>(), 0u8..30).prop_map(|(addr, val_src)| Op::Store { addr, val_src }),
        2 => (any::<bool>(), 0u8..30).prop_map(|(taken, src)| Op::Branch { taken, src }),
    ]
}

fn build(ops: &[Op]) -> Vec<DynInst> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let pc = i as u64 * 4;
            match *op {
                Op::Int { dest, src } => DynInst::alu(
                    pc,
                    OpClass::IntAlu,
                    Some(ArchReg::Int(dest)),
                    [Some(ArchReg::Int(src)), None],
                ),
                Op::Fp { dest, src } => DynInst::alu(
                    pc,
                    OpClass::FpAdd,
                    Some(ArchReg::Fp(dest)),
                    [Some(ArchReg::Fp(src)), None],
                ),
                Op::Mul { dest, src } => DynInst::alu(
                    pc,
                    OpClass::IntMul,
                    Some(ArchReg::Int(dest)),
                    [Some(ArchReg::Int(src)), None],
                ),
                Op::Div { dest, src } => DynInst::alu(
                    pc,
                    OpClass::IntDiv,
                    Some(ArchReg::Int(dest)),
                    [Some(ArchReg::Int(src)), None],
                ),
                Op::Load {
                    dest,
                    addr,
                    addr_src,
                } => DynInst::load(
                    pc,
                    ArchReg::Fp(dest),
                    addr as u64 * 8,
                    [Some(ArchReg::Int(addr_src)), None],
                ),
                Op::Store { addr, val_src } => {
                    DynInst::store(pc, addr as u64 * 8, [Some(ArchReg::Int(val_src)), None])
                }
                Op::Branch { taken, src } => {
                    DynInst::branch(pc, taken, 0, [Some(ArchReg::Int(src)), None])
                }
            }
        })
        .collect()
}

/// Run `programs` (context `t` runs `programs[t]`) to completion; returns
/// cycles, per-program commit counts and the slot statistics.
///
/// With `migrate_at`, context 0 is held for migration as soon as its state
/// allows from that cycle on, drains (squashing any wrong path under way)
/// while the other threads keep issuing, and moves to the spare context
/// `programs.len()` — so `hw_threads` must leave one. Every cycle runs
/// under the §4.1 count-vs-scan assert that test builds compile in.
fn run_cluster_with(
    width: usize,
    hw_threads: usize,
    programs: &[Vec<DynInst>],
    seed: u64,
    migrate_at: Option<u64>,
) -> (u64, Vec<u64>, csmt_cpu::SlotStats) {
    let mut c = Cluster::new(ClusterConfig::for_width(width, hw_threads), seed);
    let mut mem = MemorySystem::new(MemConfig::table3(), 1, seed ^ 0xA5);
    for (t, p) in programs.iter().enumerate() {
        c.attach_thread(t, Box::new(VecStream::new(p.clone())));
    }
    let mut events: Vec<ClusterEvent> = Vec::new();
    let mut now = 0u64;
    // Generous bound: every instruction could serialize behind a cold miss.
    let bound = 5_000 + programs.iter().map(|p| p.len() as u64).sum::<u64>() * 200;
    let spare = programs.len();
    // Some(state to resume in) while context 0 is held.
    let mut held: Option<ThreadState> = None;
    let mut home = 0; // where program 0 runs
    while c.busy() {
        assert!(now < bound, "pipeline deadlock after {now} cycles");
        let mut drained = false;
        if home == 0 && held.is_none() && migrate_at.is_some_and(|at| now >= at) {
            held = match c.thread_state(0) {
                ThreadState::Running | ThreadState::WrongPath => Some(ThreadState::Running),
                ThreadState::Done => Some(ThreadState::Done),
                _ => None, // Draining toward its exit: hold once it is Done
            };
            drained = held.is_some() && c.hold_for_migration(0);
        }
        if !drained {
            c.step(now, &mut mem, 0, &mut events);
            now += 1;
            drained = events
                .drain(..)
                .any(|e| e == ClusterEvent::MigrationDrained { thread: 0 });
        }
        if drained {
            let d = c.detach_thread(0);
            c.attach_migrated(spare, d, held.take().expect("drained while held"));
            home = spare;
        }
    }
    let committed = (0..programs.len())
        .map(|t| c.thread_committed(if t == 0 { home } else { t }))
        .collect();
    (now, committed, c.stats().clone())
}

fn run_cluster(
    width: usize,
    hw_threads: usize,
    programs: &[Vec<DynInst>],
    seed: u64,
) -> (u64, Vec<u64>, csmt_cpu::SlotStats) {
    run_cluster_with(width, hw_threads, programs, seed, None)
}

fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Exactly every correct-path instruction commits, once.
    #[test]
    fn all_instructions_commit_exactly_once(
        ops in prop::collection::vec(arb_op(), 1..300),
        width in arb_width(),
    ) {
        let program = build(&ops);
        let (_, committed, stats) = run_cluster(width, 1, std::slice::from_ref(&program), 7);
        prop_assert_eq!(committed[0], program.len() as u64);
        prop_assert_eq!(stats.committed, program.len() as u64);
    }

    /// Slot accounting conserves: useful + wasted == total slots.
    #[test]
    fn slot_accounting_conserves(
        ops in prop::collection::vec(arb_op(), 1..200),
        width in arb_width(),
    ) {
        let program = build(&ops);
        let (_, _, stats) = run_cluster(width, 1, &[program], 7);
        let accounted = stats.useful + stats.wasted.iter().sum::<f64>();
        prop_assert!((accounted - stats.slots as f64).abs() < 1e-6,
            "accounted {} vs slots {}", accounted, stats.slots);
    }

    /// SMT: several threads with independent random programs all complete,
    /// and the total commit count is the sum of program lengths.
    #[test]
    fn smt_threads_commit_independently(
        progs in prop::collection::vec(prop::collection::vec(arb_op(), 1..80), 2..5),
        width in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let programs: Vec<Vec<DynInst>> = progs.iter().map(|p| build(p)).collect();
        let hw = programs.len().max(2);
        let (_, committed, _) = run_cluster(width, hw, &programs, 3);
        for (t, p) in programs.iter().enumerate() {
            prop_assert_eq!(committed[t], p.len() as u64, "thread {}", t);
        }
    }

    /// SMT with a migration mid-run: a context held while it and its
    /// neighbours have instructions in flight (possibly down a wrong path)
    /// drains, moves, and still every thread commits its whole program and
    /// every slot is accounted.
    #[test]
    fn migration_mid_run_commits_everything(
        progs in prop::collection::vec(prop::collection::vec(arb_op(), 1..120), 2..4),
        width in prop_oneof![Just(2usize), Just(4), Just(8)],
        hold_at in 0u64..150,
    ) {
        let programs: Vec<Vec<DynInst>> = progs.iter().map(|p| build(p)).collect();
        let (_, committed, stats) =
            run_cluster_with(width, programs.len() + 1, &programs, 3, Some(hold_at));
        for (t, p) in programs.iter().enumerate() {
            prop_assert_eq!(committed[t], p.len() as u64, "thread {}", t);
        }
        let accounted = stats.useful + stats.wasted.iter().sum::<f64>();
        prop_assert!((accounted - stats.slots as f64).abs() < 1e-6,
            "accounted {} vs slots {}", accounted, stats.slots);
    }

    /// Determinism: identical inputs produce identical cycle counts & stats.
    #[test]
    fn runs_are_deterministic(
        ops in prop::collection::vec(arb_op(), 1..150),
        width in arb_width(),
        seed in 0u64..1000,
    ) {
        let program = build(&ops);
        let a = run_cluster(width, 1, std::slice::from_ref(&program), seed);
        let b = run_cluster(width, 1, &[program], seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.2, b.2);
    }

    /// A wider cluster never takes more cycles than a 1-issue cluster on
    /// the same single-thread program (monotonicity in issue width for a
    /// fixed thread count; resources scale with width per Table 2).
    #[test]
    fn wider_clusters_are_not_slower(
        ops in prop::collection::vec(arb_op(), 1..150),
    ) {
        let program = build(&ops);
        let (narrow, _, _) = run_cluster(1, 1, std::slice::from_ref(&program), 7);
        let (wide, _, _) = run_cluster(8, 1, &[program], 7);
        // Allow a small absolute slack: wrong-path pollution after a
        // mispredict differs with width and can cost a few cycles.
        prop_assert!(wide <= narrow + 64, "wide {} vs narrow {}", wide, narrow);
    }
}

/// Deterministic fuzz sweep with a fixed-seed RNG across many shapes —
/// catches shape-specific deadlocks that proptest's case budget may miss.
#[test]
fn fuzz_many_shapes_complete() {
    let mut rng = SplitMix64::new(0xF00D);
    for &(width, threads) in &[
        (1usize, 1usize),
        (2, 1),
        (2, 2),
        (4, 1),
        (4, 4),
        (8, 1),
        (8, 8),
    ] {
        for round in 0..4 {
            let programs: Vec<Vec<DynInst>> = (0..threads)
                .map(|t| {
                    let n = 30 + rng.below(120);
                    (0..n)
                        .map(|i| {
                            let pc = ((t as u64) << 20) | (i * 4);
                            match rng.below(6) {
                                0 => DynInst::alu(
                                    pc,
                                    OpClass::FpMul,
                                    Some(ArchReg::Fp((rng.below(30)) as u8)),
                                    [Some(ArchReg::Fp(rng.below(30) as u8)), None],
                                ),
                                1 => DynInst::load(
                                    pc,
                                    ArchReg::Int(1 + rng.below(29) as u8),
                                    rng.below(1 << 20),
                                    [Some(ArchReg::Int(rng.below(30) as u8)), None],
                                ),
                                2 => DynInst::store(
                                    pc,
                                    rng.below(1 << 20),
                                    [Some(ArchReg::Int(rng.below(30) as u8)), None],
                                ),
                                3 => DynInst::branch(
                                    pc,
                                    rng.chance(0.5),
                                    0,
                                    [Some(ArchReg::Int(rng.below(30) as u8)), None],
                                ),
                                _ => DynInst::alu(
                                    pc,
                                    OpClass::IntAlu,
                                    Some(ArchReg::Int(1 + rng.below(29) as u8)),
                                    [Some(ArchReg::Int(rng.below(30) as u8)), None],
                                ),
                            }
                        })
                        .collect()
                })
                .collect();
            let (_, committed, _) = run_cluster(width, threads, &programs, round);
            for (t, p) in programs.iter().enumerate() {
                assert_eq!(
                    committed[t],
                    p.len() as u64,
                    "w{width} t{threads} r{round} thread {t}"
                );
            }
        }
    }
}
