//! Behavioral tests for the cluster pipeline, exercised through the
//! public [`Cluster`] API (they predate the pipeline-module split and
//! pin the same behavior across it).

use csmt_cpu::{
    Cluster, ClusterConfig, ClusterEvent, CycleActivity, FetchPolicy, Hazard, SlotStats,
    ThreadState,
};
use csmt_isa::stream::VecStream;
use csmt_isa::{ArchReg, DynInst, OpClass, SyncOp};
use csmt_mem::{MemConfig, MemorySystem};
use csmt_trace::{Event, HostPhase, Probe, Wants};

fn mem1() -> MemorySystem {
    MemorySystem::new(MemConfig::table3(), 1, 7)
}

fn alu(pc: u64, dest: u8, src: u8) -> DynInst {
    DynInst::alu(
        pc,
        OpClass::IntAlu,
        Some(ArchReg::Int(dest)),
        [Some(ArchReg::Int(src)), None],
    )
}

/// Run until all threads are done; returns cycles taken.
fn run(cluster: &mut Cluster, mem: &mut MemorySystem, max: u64) -> u64 {
    let mut events = Vec::new();
    for now in 0..max {
        cluster.step(now, mem, 0, &mut events);
        if !cluster.busy() {
            return now;
        }
    }
    panic!("did not finish within {max} cycles");
}

#[test]
fn independent_alus_approach_full_issue_width() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // 400 independent ALU ops (distinct dest, src = $0-equivalent none).
    let insts: Vec<DynInst> = (0..400)
        .map(|i| {
            DynInst::alu(
                i * 4,
                OpClass::IntAlu,
                Some(ArchReg::Int(1 + (i % 8) as u8)),
                [None, None],
            )
        })
        .collect();
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let cycles = run(&mut c, &mut mem, 10_000);
    assert_eq!(c.thread_committed(0), 400);
    // 4 int FUs, fetch 4/cycle: should finish in a little over 100 cycles.
    assert!(cycles < 140, "took {cycles}");
}

#[test]
fn dependence_chain_limits_ipc_to_one() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // r1 <- r1 chain of 300 ops.
    let insts: Vec<DynInst> = (0..300).map(|i| alu(i * 4, 1, 1)).collect();
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let cycles = run(&mut c, &mut mem, 10_000);
    assert!(cycles >= 299, "chain cannot beat 1 IPC: {cycles}");
    assert!(cycles < 400, "but should stay close to it: {cycles}");
}

#[test]
fn load_use_pays_memory_latency() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // A single load (cold: TLB walk + local memory) then a dependent op.
    let insts = vec![
        DynInst::load(0, ArchReg::Int(1), 0x100, [None, None]),
        alu(4, 2, 1),
    ];
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let cycles = run(&mut c, &mut mem, 10_000);
    // ~30 (TLB) + 40 (memory) plus pipeline overhead.
    assert!(
        cycles >= 70,
        "cold load must expose memory latency: {cycles}"
    );
    assert!(cycles < 100, "{cycles}");
}

#[test]
fn store_forwarding_hides_memory_latency() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // Store to X then load from X: the load forwards, no 40-cycle trip.
    let insts = vec![
        DynInst::store(0, 0x8000, [None, None]),
        DynInst::load(4, ArchReg::Int(1), 0x8000, [None, None]),
        alu(8, 2, 1),
    ];
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let cycles = run(&mut c, &mut mem, 10_000);
    assert!(cycles < 20, "forwarded load should be fast: {cycles}");
}

#[test]
fn mispredicted_branch_squashes_and_still_commits_exact_count() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // Alternating taken/not-taken branches defeat the 2-bit counter
    // part of the time; all correct-path instructions must still commit
    // exactly once.
    let mut insts = Vec::new();
    for i in 0..100u64 {
        insts.push(alu(i * 16, 1, 1));
        insts.push(DynInst::branch(
            i * 16 + 4,
            i % 2 == 0,
            0,
            [Some(ArchReg::Int(1)), None],
        ));
    }
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    run(&mut c, &mut mem, 50_000);
    assert_eq!(c.thread_committed(0), 200);
    let (_, mispredicts) = c.bpred_stats();
    assert!(
        mispredicts > 20,
        "alternating pattern must mispredict: {mispredicts}"
    );
    // Wrong-path issue shows up as `other` slots.
    assert!(c.stats().wasted[Hazard::Other.index()] > 0.0);
}

#[test]
fn well_predicted_loop_commits_cleanly() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    // Same backward branch, always taken: predictor locks on.
    let mut insts = Vec::new();
    for _ in 0..200u64 {
        insts.push(alu(0, 1, 1));
        insts.push(DynInst::branch(4, true, 0, [Some(ArchReg::Int(1)), None]));
    }
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    run(&mut c, &mut mem, 50_000);
    assert_eq!(c.thread_committed(0), 400);
    let (_, mispredicts) = c.bpred_stats();
    assert!(
        mispredicts <= 3,
        "loop branch should be learned: {mispredicts}"
    );
}

#[test]
fn sync_marker_drains_then_reports_and_resumes() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 2), 1);
    let mut mem = mem1();
    let insts = vec![
        alu(0, 1, 1),
        DynInst::sync(4, SyncOp::Barrier(3)),
        alu(8, 2, 2),
    ];
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let mut events = Vec::new();
    let mut reached_at = None;
    for now in 0..200 {
        events.clear();
        c.step(now, &mut mem, 0, &mut events);
        if let Some(ClusterEvent::SyncReached { thread, op }) = events.first() {
            assert_eq!(*thread, 0);
            assert_eq!(*op, SyncOp::Barrier(3));
            reached_at = Some(now);
            break;
        }
    }
    let reached_at = reached_at.expect("barrier reached");
    assert_eq!(c.thread_state(0), ThreadState::WaitingSync);
    assert_eq!(c.thread_committed(0), 1, "drained before reporting");
    // Spin a while: parked thread must not advance.
    for now in reached_at + 1..reached_at + 20 {
        events.clear();
        c.step(now, &mut mem, 0, &mut events);
    }
    assert_eq!(c.thread_committed(0), 1);
    // Sync slots accumulated while spinning.
    assert!(c.stats().wasted[Hazard::Sync.index()] > 0.0);
    c.resume_thread(0);
    let mut done = false;
    for now in reached_at + 20..reached_at + 200 {
        events.clear();
        c.step(now, &mut mem, 0, &mut events);
        if events
            .iter()
            .any(|e| matches!(e, ClusterEvent::ThreadDone { thread: 0 }))
        {
            done = true;
            break;
        }
    }
    assert!(done);
    assert_eq!(c.thread_committed(0), 2);
}

#[test]
fn two_threads_share_the_cluster_faster_than_one_each() {
    let chain = |base: u64| -> Vec<DynInst> { (0..300).map(|i| alu(base + i * 4, 1, 1)).collect() };
    // One thread alone: latency-bound chain, IPC 1.
    let mut c1 = Cluster::new(ClusterConfig::for_width(4, 4), 1);
    let mut mem = mem1();
    c1.attach_thread(0, Box::new(VecStream::new(chain(0))));
    let solo = run(&mut c1, &mut mem, 10_000);
    // Two threads with independent chains: SMT overlaps them.
    let mut c2 = Cluster::new(ClusterConfig::for_width(4, 4), 1);
    let mut mem2 = mem1();
    c2.attach_thread(0, Box::new(VecStream::new(chain(0))));
    c2.attach_thread(1, Box::new(VecStream::new(chain(0x10000))));
    let duo = run(&mut c2, &mut mem2, 10_000);
    assert!(
        (duo as f64) < solo as f64 * 1.4,
        "two chains should overlap, not serialize: solo={solo} duo={duo}"
    );
    assert_eq!(c2.thread_committed(0) + c2.thread_committed(1), 600);
}

#[test]
fn narrow_cluster_cannot_exploit_wide_ilp() {
    // 8 independent streams of work inside one thread on a 1-issue
    // cluster: IPC pinned at 1 regardless of ILP.
    let mut c = Cluster::new(ClusterConfig::for_width(1, 1), 1);
    let mut mem = mem1();
    let insts: Vec<DynInst> = (0..200)
        .map(|i| {
            DynInst::alu(
                i * 4,
                OpClass::IntAlu,
                Some(ArchReg::Int(1 + (i % 8) as u8)),
                [None, None],
            )
        })
        .collect();
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    let cycles = run(&mut c, &mut mem, 10_000);
    assert!(cycles >= 199, "1-issue cluster: {cycles}");
}

#[test]
fn rename_pressure_throttles_but_does_not_deadlock() {
    // Tiny window/rename budget via the 1-wide config, long stream of
    // destination-writing ops.
    let mut c = Cluster::new(ClusterConfig::for_width(1, 1), 1);
    let mut mem = mem1();
    let insts: Vec<DynInst> = (0..500).map(|i| alu(i * 4, 1 + (i % 4) as u8, 1)).collect();
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    run(&mut c, &mut mem, 50_000);
    assert_eq!(c.thread_committed(0), 500);
}

#[test]
fn deterministic_repeat_runs() {
    let build = || {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 2), 99);
        let mut mem = mem1();
        let mut insts = Vec::new();
        for i in 0..150u64 {
            insts.push(DynInst::load(
                i * 12,
                ArchReg::Fp(1),
                (i * 712) % 65536,
                [None, None],
            ));
            insts.push(DynInst::alu(
                i * 12 + 4,
                OpClass::FpAdd,
                Some(ArchReg::Fp(2)),
                [Some(ArchReg::Fp(1)), None],
            ));
            insts.push(DynInst::branch(i * 12 + 8, i % 7 == 0, 0, [None, None]));
        }
        c.attach_thread(0, Box::new(VecStream::new(insts.clone())));
        c.attach_thread(1, Box::new(VecStream::new(insts)));
        let cycles = run(&mut c, &mut mem, 100_000);
        (cycles, c.stats().clone())
    };
    let (c1, s1) = build();
    let (c2, s2) = build();
    assert_eq!(c1, c2);
    assert_eq!(s1, s2);
}

#[test]
fn slot_accounting_is_conservative() {
    // useful + wasted must equal total slots.
    let mut c = Cluster::new(ClusterConfig::for_width(4, 2), 1);
    let mut mem = mem1();
    let insts: Vec<DynInst> = (0..100)
        .map(|i| {
            DynInst::load(
                i * 4,
                ArchReg::Int(1),
                (i * 64) % 32768,
                [Some(ArchReg::Int(1)), None],
            )
        })
        .collect();
    c.attach_thread(0, Box::new(VecStream::new(insts)));
    run(&mut c, &mut mem, 100_000);
    let s = c.stats();
    let accounted = s.useful + s.wasted.iter().sum::<f64>();
    assert!(
        (accounted - s.slots as f64).abs() < 1e-6,
        "accounted {accounted} vs slots {}",
        s.slots
    );
}

#[test]
fn icount_policy_balances_window_occupancy() {
    // Thread 0 runs a long-latency dependent chain (clogs slowly);
    // thread 1 runs independent ops. Under ICOUNT the starved thread
    // gets priority, so total completion is no worse than round-robin.
    let mk = |policy: FetchPolicy| {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 2).with_fetch_policy(policy), 1);
        let mut mem = mem1();
        let chain: Vec<DynInst> = (0..200)
            .map(|i| {
                DynInst::alu(
                    i * 4,
                    OpClass::FpDivDouble,
                    Some(ArchReg::Fp(2)),
                    [Some(ArchReg::Fp(2)), None],
                )
            })
            .collect();
        let indep: Vec<DynInst> = (0..200)
            .map(|i| {
                DynInst::alu(
                    0x8000 + i * 4,
                    OpClass::IntAlu,
                    Some(ArchReg::Int(1 + (i % 8) as u8)),
                    [None, None],
                )
            })
            .collect();
        c.attach_thread(0, Box::new(VecStream::new(chain)));
        c.attach_thread(1, Box::new(VecStream::new(indep)));
        run(&mut c, &mut mem, 100_000)
    };
    let rr = mk(FetchPolicy::RoundRobin);
    let ic = mk(FetchPolicy::ICount);
    assert!(
        ic <= rr + 8,
        "ICOUNT must not lose to RR here: {ic} vs {rr}"
    );
}

#[test]
fn partitioned_fetch_feeds_two_threads_per_cycle() {
    // With 8 threads of pure independent work on an 8-wide cluster,
    // partitioned fetch sustains two streams per cycle and must not be
    // slower than single-thread round-robin fetch.
    let mk = |policy: FetchPolicy| {
        let mut c = Cluster::new(ClusterConfig::for_width(8, 8).with_fetch_policy(policy), 1);
        let mut mem = mem1();
        for t in 0..8 {
            let insts: Vec<DynInst> = (0..100)
                .map(|i| {
                    DynInst::alu(
                        ((t as u64) << 16) | (i * 4),
                        if i % 2 == 0 {
                            OpClass::IntAlu
                        } else {
                            OpClass::FpAdd
                        },
                        Some(ArchReg::Int(1 + (i % 8) as u8)),
                        [None, None],
                    )
                })
                .collect();
            c.attach_thread(t, Box::new(VecStream::new(insts)));
        }
        run(&mut c, &mut mem, 100_000)
    };
    let rr = mk(FetchPolicy::RoundRobin);
    let part = mk(FetchPolicy::Partitioned2);
    assert!(part <= rr + 16, "partitioned {part} vs rr {rr}");
}

#[test]
fn all_policies_commit_everything() {
    for policy in [
        FetchPolicy::RoundRobin,
        FetchPolicy::ICount,
        FetchPolicy::Partitioned2,
    ] {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 4).with_fetch_policy(policy), 1);
        let mut mem = mem1();
        for t in 0..4 {
            let insts: Vec<DynInst> = (0..150)
                .map(|i| {
                    DynInst::alu(
                        ((t as u64) << 16) | (i * 4),
                        OpClass::IntAlu,
                        Some(ArchReg::Int(1)),
                        [Some(ArchReg::Int(1)), None],
                    )
                })
                .collect();
            c.attach_thread(t, Box::new(VecStream::new(insts)));
        }
        run(&mut c, &mut mem, 100_000);
        for t in 0..4 {
            assert_eq!(c.thread_committed(t), 150, "{policy:?} thread {t}");
        }
    }
}

#[test]
fn tiny_store_buffer_throttles_store_bursts() {
    // A stream of stores to distinct lines (every one a cache miss):
    // with a 1-entry store buffer, commits serialize behind the misses.
    let mk = |buf: usize| {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 1).with_store_buffer(buf), 1);
        let mut mem = mem1();
        let insts: Vec<DynInst> = (0..100)
            .map(|i| DynInst::store(i * 4, 0x100_000 + i * 64, [None, None]))
            .collect();
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        run(&mut c, &mut mem, 1_000_000)
    };
    let roomy = mk(16);
    let tight = mk(1);
    assert!(
        tight > roomy * 3,
        "1-entry buffer must serialize misses: {tight} vs {roomy}"
    );
    // Everything still commits.
}

/// Every simulated-machine channel, each event reduced to a label: the
/// rename-pool snapshot by kind, anything else by its full rendering. The
/// host stopwatch's laps are kept apart, by phase only: they tell a
/// stepped cycle from one a stall span skipped.
#[derive(Default)]
struct Recorder {
    labels: Vec<String>,
    laps: Vec<HostPhase>,
}

impl Probe for Recorder {
    const WANTS: Wants = Wants::INST
        .union(Wants::CACHE)
        .union(Wants::CYCLE_STATS)
        .union(Wants::POOL)
        .union(Wants::SCHED)
        .union(Wants::HOST_PHASES);

    fn on(&mut self, ev: &Event<'_>) {
        match ev {
            Event::HostPhase { phase, .. } => self.laps.push(*phase),
            Event::RenamePools(_) => self.labels.push("pool".into()),
            other => self.labels.push(format!("{other:?}")),
        }
    }
}

/// The laps of a cycle that ran the five phases with no memory access.
const STEPPED: [HostPhase; 5] = [
    HostPhase::Complete,
    HostPhase::Commit,
    HostPhase::Issue,
    HostPhase::Fetch,
    HostPhase::Account,
];

/// The laps of a cycle a stall span skipped.
const SKIPPED: [HostPhase; 1] = [HostPhase::Account];

/// The bits of every accumulator, so equality is bit for bit.
fn stat_bits(s: &SlotStats) -> (u64, [u64; 7], u64, u64, u64) {
    (
        s.useful.to_bits(),
        s.wasted.map(f64::to_bits),
        s.cycles,
        s.slots,
        s.committed,
    )
}

/// Step once under a [`Recorder`]; returns the activity, the runtime
/// events and the probe labels.
fn step_recorded(
    c: &mut Cluster,
    mem: &mut MemorySystem,
    now: u64,
) -> (CycleActivity, Vec<ClusterEvent>, Vec<String>) {
    let (act, events, probe) = step_traced(c, mem, now);
    (act, events, probe.labels)
}

/// [`step_recorded`], keeping the host laps too.
fn step_traced(
    c: &mut Cluster,
    mem: &mut MemorySystem,
    now: u64,
) -> (CycleActivity, Vec<ClusterEvent>, Recorder) {
    let (mut events, mut probe) = (Vec::new(), Recorder::default());
    let act = c.step_probed(now, mem, 0, &mut events, &mut probe, 0);
    (act, events, probe)
}

/// A two-context cluster whose contexts park — context 0 at a barrier
/// after some work and a mispredict-prone branch run, context 1 by
/// exiting — then steps `k` cycles with nothing in flight and nothing
/// runnable: each must be exactly one sync-only `record_cycle`, report no
/// activity, and emit only the rename-pool snapshot. The first of them is
/// stepped and opens a stall span; every later one is skipped
/// (DESIGN §11). Resumed mid-span, after more than the completion ring's
/// span, the context steps again that very cycle and finishes normally.
#[test]
fn a_parked_cluster_cycle_is_exactly_a_sync_only_record_cycle() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 2), 1);
    let mut mem = mem1();
    let mut work = Vec::new();
    for i in 0..40u64 {
        work.push(DynInst::load(
            i * 16,
            ArchReg::Int(1),
            i * 4160,
            [None, None],
        ));
        work.push(DynInst::branch(
            i * 16 + 4,
            i % 3 == 0,
            0,
            [Some(ArchReg::Int(1)), None],
        ));
    }
    work.push(DynInst::sync(0x1000, SyncOp::Barrier(1)));
    work.extend((0..20).map(|i| alu(0x2000 + i * 4, 2, 2)));
    c.attach_thread(0, Box::new(VecStream::new(work)));
    c.attach_thread(1, Box::new(VecStream::new(vec![alu(0, 1, 1)])));
    let mut now = 0;
    while c.thread_state(0) != ThreadState::WaitingSync || c.thread_state(1) != ThreadState::Done {
        step_recorded(&mut c, &mut mem, now);
        now += 1;
        assert!(now < 50_000, "contexts never parked");
    }
    assert_eq!((c.inflight(0), c.inflight(1)), (0, 0));

    let k = 100; // longer than the completion ring's 64-cycle span
    let mut want = c.stats().clone();
    let mut sync_only = [0.0; 7];
    sync_only[Hazard::Sync.index()] = 2.0;
    for i in 0..k {
        want.record_cycle(4, 0, 0, &sync_only);
        let (act, events, probe) = step_traced(&mut c, &mut mem, now);
        assert_eq!(act, CycleActivity::default(), "cycle {now}");
        assert!(events.is_empty(), "cycle {now}: {events:?}");
        assert_eq!(probe.labels, ["pool"], "cycle {now}");
        let laps: &[HostPhase] = if i == 0 { &STEPPED } else { &SKIPPED };
        assert_eq!(probe.laps, laps, "cycle {now}");
        assert_eq!(stat_bits(c.stats()), stat_bits(&want), "cycle {now}");
        now += 1;
    }

    c.resume_thread(0);
    let committed = c.thread_committed(0);
    let (_, events, probe) = step_traced(&mut c, &mut mem, now);
    assert!(events.is_empty());
    assert_eq!(probe.laps, STEPPED, "a resume ends the span at once");
    assert!(
        probe.labels[0].starts_with(&format!("Fetch(FetchEvent {{ cycle: {now}, ")),
        "the resumed context fetches on the cycle it is resumed: {:?}",
        probe.labels
    );
    now += 1;
    loop {
        let (_, events, _) = step_recorded(&mut c, &mut mem, now);
        now += 1;
        if events.contains(&ClusterEvent::ThreadDone { thread: 0 }) {
            break;
        }
        assert!(now < 100_000, "resumed context never finished");
    }
    assert_eq!(c.thread_committed(0), committed + 20);
}

/// A context that fetched a sync marker into an empty window is
/// `Draining`: nothing is in flight, but it is not parked, and the very
/// next step reports it.
#[test]
fn a_draining_context_with_an_empty_window_still_reports() {
    let cases = [
        (
            vec![DynInst::sync(0, SyncOp::Barrier(7))],
            ClusterEvent::SyncReached {
                thread: 0,
                op: SyncOp::Barrier(7),
            },
            ThreadState::WaitingSync,
        ),
        (
            Vec::new(),
            ClusterEvent::ThreadDone { thread: 0 },
            ThreadState::Done,
        ),
    ];
    for (stream, report, parked) in cases {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
        let mut mem = mem1();
        c.attach_thread(0, Box::new(VecStream::new(stream)));
        let (_, events, _) = step_recorded(&mut c, &mut mem, 0);
        assert!(events.is_empty());
        assert_eq!(
            (c.thread_state(0), c.inflight(0)),
            (ThreadState::Draining, 0)
        );
        let (_, events, _) = step_recorded(&mut c, &mut mem, 1);
        assert_eq!(events, [report]);
        assert_eq!(c.thread_state(0), parked);
    }
}

/// A parked or finished context held for migration has nothing in flight
/// but is `Migrating`, no longer parked: the next step reports it drained.
#[test]
fn a_held_context_with_an_empty_window_still_reports_drained() {
    for (stream, parked) in [
        (
            vec![DynInst::sync(0, SyncOp::Barrier(2))],
            ThreadState::WaitingSync,
        ),
        (vec![alu(0, 1, 1)], ThreadState::Done),
    ] {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
        let mut mem = mem1();
        c.attach_thread(0, Box::new(VecStream::new(stream)));
        let mut now = 0;
        while c.thread_state(0) != parked {
            step_recorded(&mut c, &mut mem, now);
            now += 1;
            assert!(now < 1_000, "context never parked");
        }
        // A few parked cycles first.
        for _ in 0..5 {
            step_recorded(&mut c, &mut mem, now);
            now += 1;
        }
        assert!(
            c.hold_for_migration(0),
            "a parked context is already drained"
        );
        let (_, events, _) = step_recorded(&mut c, &mut mem, now);
        assert_eq!(events, [ClusterEvent::MigrationDrained { thread: 0 }]);
    }
}

/// A fetch that installs nothing can still change the cluster: a sync
/// marker or the end of the stream parks the context `Draining`, and the
/// next commit reports it. So that fetch opens no stall span, even when
/// it is all that moved — here on the first cycle after a resume ended
/// the span the parked context sat in, as a lock acquired right after a
/// barrier does. Missing it, the report waits for the wheel, forever.
#[test]
fn a_fetch_that_only_parks_a_context_opens_no_span() {
    let cases = [
        (
            vec![DynInst::sync(4, SyncOp::LockAcquire(3))],
            ClusterEvent::SyncReached {
                thread: 0,
                op: SyncOp::LockAcquire(3),
            },
        ),
        (Vec::new(), ClusterEvent::ThreadDone { thread: 0 }),
    ];
    for (tail, report) in cases {
        let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
        let mut mem = mem1();
        let mut stream = vec![DynInst::sync(0, SyncOp::Barrier(1))];
        stream.extend(tail);
        c.attach_thread(0, Box::new(VecStream::new(stream)));
        let mut now = 0;
        while c.thread_state(0) != ThreadState::WaitingSync {
            step_traced(&mut c, &mut mem, now);
            now += 1;
            assert!(now < 100, "never reached the barrier");
        }
        for _ in 0..10 {
            step_traced(&mut c, &mut mem, now);
            now += 1;
        }
        assert_eq!(step_traced(&mut c, &mut mem, now).2.laps, SKIPPED);
        now += 1;
        c.resume_thread(0);
        let (act, events, probe) = step_traced(&mut c, &mut mem, now);
        assert_eq!(
            (act, events.as_slice(), probe.labels.as_slice()),
            (CycleActivity::default(), &[][..], &["pool".to_string()][..]),
            "only the fetch stage moved"
        );
        assert_eq!(c.thread_state(0), ThreadState::Draining);
        let (_, events, probe) = step_traced(&mut c, &mut mem, now + 1);
        assert_eq!(probe.laps, STEPPED);
        assert_eq!(events, [report]);
    }
}

/// A completed store at the head of its context, held there by a full
/// store buffer, retires when a drain finishes — no completion-wheel
/// event — so it opens no stall span: every cycle it waits is stepped.
#[test]
fn a_store_held_by_a_full_store_buffer_opens_no_span() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1).with_store_buffer(1), 1);
    let mut mem = mem1();
    let stores = (0..2)
        .map(|i| DynInst::store(i * 4, 0x100_000 + i * 4096, [None, None]))
        .collect();
    c.attach_thread(0, Box::new(VecStream::new(stores)));
    let (mut now, mut held) = (0, 0);
    loop {
        let waiting = c.thread_committed(0) == 1;
        let (_, events, probe) = step_traced(&mut c, &mut mem, now);
        if waiting && c.thread_committed(0) == 1 {
            held += 1;
            assert_ne!(
                probe.laps, SKIPPED,
                "cycle {now}: skipped over a held store"
            );
        }
        now += 1;
        if events.contains(&ClusterEvent::ThreadDone { thread: 0 }) {
            break;
        }
        assert!(now < 10_000, "the held store never retired");
    }
    assert_eq!(c.thread_committed(0), 2);
    assert!(
        held > 20,
        "the first store's drain must hold the second: {held}"
    );
}

/// A ready entry that cannot issue — its unit is busy — keeps the ready
/// queue non-empty, so it opens no stall span: every cycle the second
/// divide waits for the one integer unit is stepped, and it issues the
/// cycle the unit frees. (A span opened over it would also trip the
/// every-skipped-cycle guard of test and debug builds.)
#[test]
fn a_ready_entry_blocked_on_a_unit_opens_no_span() {
    let mut c = Cluster::new(ClusterConfig::for_width(1, 1), 1);
    let mut mem = mem1();
    let div = |pc: u64, dest: u8| {
        DynInst::alu(pc, OpClass::IntDiv, Some(ArchReg::Int(dest)), [None, None])
    };
    c.attach_thread(0, Box::new(VecStream::new(vec![div(0, 1), div(4, 2)])));
    // Cycle 0 fetches the first divide, 1 issues it (the unit is busy for
    // its 8-cycle latency) and fetches the second, ready at once.
    let issue_of =
        |uid: u64, at: u64| format!("Issue(StageEvent {{ cycle: {at}, cluster: 0, uid: {uid} }})");
    let mut issued = Vec::new();
    for now in 0..=9 {
        let (_, _, probe) = step_traced(&mut c, &mut mem, now);
        for uid in [1, 2] {
            if probe.labels.contains(&issue_of(uid, now)) {
                issued.push((uid, now));
            }
        }
        assert_eq!(probe.laps, STEPPED, "cycle {now}");
    }
    assert_eq!(issued, [(1, 1), (2, 9)]);
}

#[test]
fn idle_cluster_accumulates_sync_slots() {
    let mut c = Cluster::new(ClusterConfig::for_width(4, 1), 1);
    let mut mem = mem1();
    let mut events = Vec::new();
    for now in 0..10 {
        c.step(now, &mut mem, 0, &mut events);
    }
    let s = c.stats();
    assert_eq!(s.useful, 0.0);
    assert_eq!(s.wasted[Hazard::Sync.index()], 40.0);
}
