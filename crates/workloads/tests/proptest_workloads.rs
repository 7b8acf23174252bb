//! Property-based tests of the workload generators: work conservation
//! across thread counts, stream well-formedness (balanced locks, matching
//! barrier sequences), and NUMA placement laws.

use csmt_isa::{InstStream, OpClass, SyncOp};
use csmt_workloads::addr::{Layout, SLICE_SPAN};
use csmt_workloads::{all_apps, build_streams, AppParams};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_threads() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16), Just(32)]
}

fn drain(stream: &mut Box<dyn InstStream + Send>) -> Vec<csmt_isa::DynInst> {
    let mut v = Vec::new();
    while let Some(i) = stream.next_inst() {
        v.push(i);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Total non-sync instruction count is (approximately) invariant in the
    /// thread count: the application's work does not grow or shrink when
    /// parallelized (serial sections and per-iteration loop overhead aside).
    #[test]
    fn work_is_thread_count_invariant(
        app_idx in 0usize..6,
        threads in arb_threads(),
    ) {
        let app = &all_apps()[app_idx];
        let count_work = |n: usize| -> u64 {
            let p = AppParams::new(n, (n / 8).max(1), 0.05, 7);
            build_streams(app, &p)
                .iter_mut()
                .map(|s| {
                    drain(s)
                        .iter()
                        .filter(|i| i.op != OpClass::Sync)
                        .count() as u64
                })
                .sum()
        };
        let w1 = count_work(1);
        let wn = count_work(threads);
        // Loop bodies are identical; only lock excursions (fmm) and
        // rounding of the serial/parallel split vary. Allow 15%.
        let ratio = wn as f64 / w1 as f64;
        prop_assert!((0.85..1.15).contains(&ratio),
            "{}: {} threads has ratio {ratio}", app.name, threads);
    }

    /// Lock acquires and releases are balanced and never nested, in every
    /// thread of every app at every thread count.
    #[test]
    fn locks_are_balanced_and_unnested(
        app_idx in 0usize..6,
        threads in arb_threads(),
        seed in 0u64..50,
    ) {
        let app = &all_apps()[app_idx];
        let p = AppParams::new(threads, 1, 0.05, seed);
        for (t, mut s) in build_streams(app, &p).into_iter().enumerate() {
            let mut depth = 0i64;
            let mut held: Option<u32> = None;
            for i in drain(&mut s) {
                match i.sync {
                    Some(SyncOp::LockAcquire(id)) => {
                        depth += 1;
                        prop_assert_eq!(depth, 1, "thread {} nests locks", t);
                        held = Some(id);
                    }
                    Some(SyncOp::LockRelease(id)) => {
                        depth -= 1;
                        prop_assert_eq!(depth, 0);
                        prop_assert_eq!(Some(id), held, "release of a different lock");
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(depth, 0, "thread {} ends holding a lock", t);
        }
    }

    /// All threads see the same barrier id sequence (the fork-join
    /// structure every live thread participates in).
    #[test]
    fn barrier_sequences_agree(
        app_idx in 0usize..6,
        threads in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let app = &all_apps()[app_idx];
        let p = AppParams::new(threads, 1, 0.05, 3);
        let seqs: Vec<Vec<u32>> = build_streams(app, &p)
            .into_iter()
            .map(|mut s| {
                drain(&mut s)
                    .iter()
                    .filter_map(|i| match i.sync {
                        Some(SyncOp::Barrier(id)) => Some(id),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for s in &seqs[1..] {
            prop_assert_eq!(s, &seqs[0]);
        }
        // Barrier ids are strictly increasing (each episode distinct).
        for w in seqs[0].windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    /// Memory addresses respect the NUMA layout: private-slice accesses of
    /// thread t land on pages homed at t's node (4-chip machine, block
    /// placement), except shared/neighbor regions.
    #[test]
    fn private_accesses_are_node_local(
        app_idx in 0usize..6,
    ) {
        // Only apps without neighbor/shared styles give a clean check;
        // verify the invariant on the private layout machinery itself for
        // every app's thread 0 slice.
        let _ = &all_apps()[app_idx];
        let page = csmt_mem::config::PAGE_SIZE;
        for n_nodes in [1usize, 2, 4] {
            for t in 0..8usize {
                let tpn = 8usize.div_ceil(n_nodes);
                let l = Layout::private_slice(t, n_nodes, tpn);
                for logical in [0u64, 8, 4096, 65536, SLICE_SPAN - 8] {
                    let phys = l.addr(logical);
                    let home = (phys / page) % n_nodes as u64;
                    prop_assert_eq!(home, l.node, "thread {} node {}", t, n_nodes);
                }
            }
        }
    }

    /// Streams are replayable: building twice with the same params yields
    /// identical instruction sequences.
    #[test]
    fn streams_are_deterministic(
        app_idx in 0usize..6,
        threads in prop_oneof![Just(1usize), Just(4)],
        seed in 0u64..100,
    ) {
        let app = &all_apps()[app_idx];
        let p = AppParams::new(threads, 1, 0.03, seed);
        let a: Vec<_> = build_streams(app, &p).into_iter().map(|mut s| drain(&mut s)).collect();
        let b: Vec<_> = build_streams(app, &p).into_iter().map(|mut s| drain(&mut s)).collect();
        prop_assert_eq!(a, b);
    }
}

/// The six apps produce materially different dynamic behaviour — no two
/// apps share the same instruction mix fingerprint (guards against one app
/// silently aliasing another after a refactor).
#[test]
fn apps_have_distinct_fingerprints() {
    let p = AppParams::new(4, 1, 0.05, 7);
    let mut prints: HashMap<String, &'static str> = HashMap::new();
    for app in all_apps() {
        let mut streams = build_streams(&app, &p);
        let insts = drain(&mut streams[0]);
        let mut mix = [0u64; 4]; // [alu, mem, branch, sync]
        for i in &insts {
            let k = match i.op {
                OpClass::Load | OpClass::Store => 1,
                OpClass::Branch => 2,
                OpClass::Sync => 3,
                _ => 0,
            };
            mix[k] += 1;
        }
        let fp = format!("{}:{}:{}:{}", mix[0] / 10, mix[1] / 10, mix[2] / 10, mix[3]);
        if let Some(other) = prints.insert(fp.clone(), app.name) {
            panic!("{} and {} share fingerprint {fp}", app.name, other);
        }
    }
}
