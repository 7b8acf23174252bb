//! Golden determinism digests for the pipeline refactor.
//!
//! Locks the exact behavior of the simulator — cycle counts, committed
//! instruction counts, the full serialized `RunResult` (SlotStats +
//! MemStats), and the complete probe event stream — for every Table 2
//! architecture on one application at a small scale, seed `0xC5317`.
//! Any behavioral drift in the cluster pipeline (however subtle) changes
//! at least one digest and fails this test loudly.
//!
//! The expected values (`csmt_verify::golden`, where the sweep cache key
//! absorbs them too) were captured on the pre-refactor monolithic
//! `cluster.rs` (PR 1 tree); the staged-pipeline refactor must reproduce
//! them bit for bit.
//!
//! To re-capture after an *intentional* behavior change:
//! `GOLDEN_PRINT=1 cargo test -q --test golden_determinism -- --nocapture`

use csmt_core::ArchKind;
use csmt_verify::golden::{EXPECTED, EXPECTED_FA4_4CHIP};
use csmt_verify::{EventDigest, Fnv64};
use csmt_workloads::{by_name, simulate_probed};

const SCALE: f64 = 0.2;
const SEED: u64 = 0xC5_317;
const APP: &str = "mgrid";

/// The seven distinct Table 2 configurations (SMT8 is an alias of FA8).
const ARCHS: [ArchKind; 7] = [
    ArchKind::Fa8,
    ArchKind::Fa4,
    ArchKind::Fa2,
    ArchKind::Fa1,
    ArchKind::Smt4,
    ArchKind::Smt2,
    ArchKind::Smt1,
];

#[test]
fn per_architecture_digests_are_bit_for_bit_stable() {
    // One more input the digests must not depend on: the environment.
    // The scheduling policy is a `RunSpec` field;
    // nothing `simulate_probed` reaches may read a variable (SMT2 under
    // hazard_pairing takes 4891 cycles instead of 4875). Checked
    // statically by the env-read ban in `crates/clippy.toml`.
    let app = by_name(APP).expect("paper app");
    let mem = csmt_mem::MemConfig::table3;
    let capture = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut failures = Vec::new();
    for (i, arch) in ARCHS.into_iter().enumerate() {
        let mut probe = EventDigest::new();
        let r = simulate_probed(&app, arch.chip(), 1, SCALE, SEED, mem(), &mut probe);
        let json = serde_json::to_string(&r).expect("RunResult serializes");
        let mut rd = Fnv64::new();
        rd.update(json.as_bytes());
        let got = (
            arch.name(),
            r.cycles,
            r.slots.committed,
            rd.finish(),
            probe.hash(),
        );
        if capture {
            println!(
                "    (\"{}\", {}, {}, 0x{:016x}, 0x{:016x}),",
                got.0, got.1, got.2, got.3, got.4
            );
            continue;
        }
        let want = EXPECTED[i];
        if got != want {
            failures.push(format!(
                "{}: got (cycles={}, committed={}, result=0x{:016x}, events=0x{:016x} [{} events]), \
                 want (cycles={}, committed={}, result=0x{:016x}, events=0x{:016x})",
                got.0, got.1, got.2, got.3, got.4, probe.events(), want.1, want.2, want.3, want.4
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "behavioral drift detected:\n{}",
        failures.join("\n")
    );
}

/// Pins the high-end (4-chip, CC-NUMA) machine, complementing the
/// single-chip sweep above: remote-memory latencies and inter-chip
/// placement. Its run moves no line cache to cache and invalidates
/// nothing; the ocean cells below pin those paths.
#[test]
fn high_end_four_chip_digest_is_bit_for_bit_stable() {
    let app = by_name(APP).expect("paper app");
    let mut probe = EventDigest::new();
    let r = simulate_probed(
        &app,
        ArchKind::Fa4.chip(),
        4,
        SCALE,
        SEED,
        csmt_mem::MemConfig::table3(),
        &mut probe,
    );
    let json = serde_json::to_string(&r).expect("RunResult serializes");
    let mut rd = Fnv64::new();
    rd.update(json.as_bytes());
    let got = (r.cycles, r.slots.committed, rd.finish(), probe.hash());
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "    FA4x4: ({}, {}, 0x{:016x}, 0x{:016x})",
            got.0, got.1, got.2, got.3
        );
        return;
    }
    assert_eq!(
        got,
        EXPECTED_FA4_4CHIP,
        "behavioral drift on the 4-chip high-end machine ({} events)",
        probe.events()
    );
}

/// Pins the coherence paths the mgrid goldens never take: ocean's
/// boundary-row sharing on four chips moves lines cache to cache,
/// invalidates sharers and upgrades clean copies, all of which read 0 on
/// mgrid. `(arch, cycles, committed, result digest, event digest)` at
/// scale 0.2, seed `0xC5317`.
#[test]
fn four_chip_coherence_digests_are_bit_for_bit_stable() {
    const OCEAN_4CHIP: [(&str, u64, u64, u64, u64); 2] = [
        (
            "FA4",
            4_415,
            36_200,
            0xe5ee_e194_b8a0_dcbe,
            0x1c14_75a5_e509_5776,
        ),
        (
            "SMT2",
            3_379,
            36_200,
            0x0434_ec08_7c22_68f3,
            0x5b4f_8da6_0fd0_690b,
        ),
    ];
    let app = by_name("ocean").expect("paper app");
    let capture = std::env::var_os("GOLDEN_PRINT").is_some();
    for (arch, want) in [ArchKind::Fa4, ArchKind::Smt2].into_iter().zip(OCEAN_4CHIP) {
        let mut probe = EventDigest::new();
        let mem = csmt_mem::MemConfig::table3();
        let r = simulate_probed(&app, arch.chip(), 4, SCALE, SEED, mem, &mut probe);
        let json = serde_json::to_string(&r).expect("RunResult serializes");
        let mut rd = Fnv64::new();
        rd.update(json.as_bytes());
        let got = (
            arch.name(),
            r.cycles,
            r.slots.committed,
            rd.finish(),
            probe.hash(),
        );
        let m = &r.mem;
        if capture {
            println!(
                "        (\"{}\", {}, {}, 0x{:016x}, 0x{:016x}), // remote_l2 {} invalidations {} upgrades {} mshr_merges {}",
                got.0, got.1, got.2, got.3, got.4, m.remote_l2, m.invalidations, m.upgrades, m.mshr_merges
            );
            continue;
        }
        for (name, n) in [
            ("remote_l2", m.remote_l2),
            ("invalidations", m.invalidations),
            ("upgrades", m.upgrades),
            ("mshr_merges", m.mshr_merges),
        ] {
            assert!(n > 0, "ocean on {} x4 never exercised {name}", got.0);
        }
        assert_eq!(
            got,
            want,
            "behavioral drift on ocean x4 ({} events)",
            probe.events()
        );
    }
}

/// Explicitly installing the default scheduling policy
/// (`Policy::Static`, what the name `"static"` selects) must reproduce
/// every golden digest bit for bit: installing the static policy is pure
/// plumbing, invisible to cycles, statistics, and the event stream alike.
#[test]
fn static_round_robin_reproduces_every_golden_digest() {
    use csmt_core::{Machine, Policy};
    use csmt_workloads::{build_streams, AppParams};

    let app = by_name(APP).expect("paper app");
    for (i, arch) in ARCHS.into_iter().enumerate() {
        let mut m = Machine::new(arch.chip(), 1, csmt_mem::MemConfig::table3(), SEED);
        m.set_scheduler(Policy::Static)
            .expect("static policy is valid everywhere");
        let n_threads = m.hw_thread_capacity();
        let params = AppParams::new(n_threads, 1, SCALE, SEED);
        m.attach_threads(build_streams(&app, &params));
        let mut probe = EventDigest::new();
        let r = m.run_probed(2_000_000_000, &mut probe);
        let json = serde_json::to_string(&r).expect("RunResult serializes");
        let mut rd = Fnv64::new();
        rd.update(json.as_bytes());
        let got = (
            arch.name(),
            r.cycles,
            r.slots.committed,
            rd.finish(),
            probe.hash(),
        );
        assert_eq!(
            got, EXPECTED[i],
            "explicit Policy::Static drifted from the golden digest"
        );
        assert_eq!(r.migrations, 0, "{}: static policy must not migrate", got.0);
    }
}

/// Folds every end-of-cycle `RenamePools` snapshot — the channel the
/// golden event digests do not want — into one digest.
struct SnapshotDigest {
    fnv: Fnv64,
    events: u64,
}

impl csmt_trace::Probe for SnapshotDigest {
    const WANTS: csmt_trace::Wants = csmt_trace::Wants::POOL;

    fn on(&mut self, ev: &csmt_trace::Event<'_>) {
        use std::fmt::Write as _;
        let _ = write!(self.fnv, "{ev:?};");
        self.events += 1;
    }
}

/// Pins the snapshot channel bit for bit, so a kernel change that keeps
/// the golden digests cannot quietly move what the rename-conservation
/// check reads. The three cells are a mostly quiet machine (FA4 ×4
/// swim), a 4-chip SMT2 and eight contexts on one cluster (SMT1). The
/// pins are the `POOL` half of the stream pinned while a window-occupancy
/// channel shared it.
#[test]
fn snapshot_channels_are_bit_for_bit_stable() {
    const CELLS: [(&str, ArchKind, usize, u64, u64); 3] = [
        ("swim", ArchKind::Fa4, 4, 0x2251_5870_9f82_3c37, 53_936),
        ("mgrid", ArchKind::Smt2, 4, 0x68c9_2ba1_b967_57fc, 12_072),
        ("tomcatv", ArchKind::Smt1, 1, 0x925f_15ce_3a05_a118, 4_746),
    ];
    let capture = std::env::var_os("GOLDEN_PRINT").is_some();
    for (app, arch, chips, want_hash, want_events) in CELLS {
        let spec = by_name(app).expect("paper app");
        let mut probe = SnapshotDigest {
            fnv: Fnv64::new(),
            events: 0,
        };
        let mem = csmt_mem::MemConfig::table3();
        simulate_probed(&spec, arch.chip(), chips, 0.1, SEED, mem, &mut probe);
        let got = (probe.fnv.finish(), probe.events);
        if capture {
            println!(
                "    {app} {}x{chips}: (0x{:016x}, {}),",
                arch.name(),
                got.0,
                got.1
            );
            continue;
        }
        assert_eq!(
            got,
            (want_hash, want_events),
            "{app} on {} x{chips}: snapshot stream drifted",
            arch.name()
        );
    }
}

/// The digests must not depend on whether a probe observes the run: the
/// unprobed path (`NullProbe` monomorphization) must produce the same
/// statistics as the probed one.
#[test]
fn probed_and_unprobed_runs_agree() {
    let app = by_name(APP).expect("paper app");
    for arch in [ArchKind::Smt2, ArchKind::Fa8] {
        let plain = csmt_workloads::simulate(&app, arch, 1, SCALE, SEED);
        let mut probe = EventDigest::new();
        let probed = simulate_probed(
            &app,
            arch.chip(),
            1,
            SCALE,
            SEED,
            csmt_mem::MemConfig::table3(),
            &mut probe,
        );
        assert_eq!(plain.cycles, probed.cycles, "{}", arch.name());
        assert_eq!(plain.slots, probed.slots, "{}", arch.name());
        assert_eq!(plain.mem, probed.mem, "{}", arch.name());
        assert!(probe.events() > 0);
    }
}

/// Every application's instruction streams, bit for bit: FNV-64 over
/// `{inst:?};` for each `DynInst` of `build_streams`, thread by thread,
/// plus the instruction count. The simulation goldens above see only
/// mgrid, and only through timing; these pins cover every generator
/// path (serial sections, locks, carried chains, both op mixes, NUMA
/// placement on four chips) at the source. Scale 0.02, seed `0xC5317`.
#[test]
fn every_apps_streams_are_bit_for_bit_stable() {
    use csmt_isa::InstStream as _;
    use csmt_workloads::{all_apps, build_streams, AppParams};
    use std::fmt::Write as _;

    const STREAM_PINS: [(&str, usize, usize, u64, u64); 18] = [
        ("swim", 8, 1, 5_055, 0x8be5_ae5e_259f_cf24),
        ("swim", 32, 4, 5_415, 0x7c01_8a8a_b3a3_0f65),
        ("swim", 1, 1, 4_950, 0xe1b2_e3b5_e92b_2658),
        ("tomcatv", 8, 1, 2_910, 0xead9_8ca4_6f44_1555),
        ("tomcatv", 32, 4, 3_150, 0x8ba0_3c03_6b96_2e9a),
        ("tomcatv", 1, 1, 2_840, 0xea4f_c542_79d0_c662),
        ("mgrid", 8, 1, 2_284, 0xf95d_26b2_fa1d_7084),
        ("mgrid", 32, 4, 2_668, 0x2899_6ef0_a430_f619),
        ("mgrid", 1, 1, 2_172, 0x68b6_4e76_e3c3_3f6a),
        ("vpenta", 8, 1, 3_756, 0x42cd_1d83_30bc_584c),
        ("vpenta", 32, 4, 4_044, 0x70f1_53a1_5379_f3de),
        ("vpenta", 1, 1, 3_672, 0x79db_59ac_4d9a_9d93),
        ("fmm", 8, 1, 2_138, 0x33e0_4f67_90d5_7441),
        ("fmm", 32, 4, 2_420, 0xba5b_a896_161a_9c36),
        ("fmm", 1, 1, 2_042, 0xdd60_9956_70c3_2c94),
        ("ocean", 8, 1, 3_695, 0x60b1_f0f1_e96a_7a91),
        ("ocean", 32, 4, 4_055, 0x1a9b_9447_9a8f_2024),
        ("ocean", 1, 1, 3_590, 0x1feb_1a2d_bcd7_ab23),
    ];
    let capture = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut got = Vec::new();
    for app in all_apps() {
        for (threads, chips) in [(8, 1), (32, 4), (1, 1)] {
            let params = AppParams::new(threads, chips, 0.02, SEED);
            let mut h = Fnv64::new();
            let mut n = 0u64;
            for mut s in build_streams(&app, &params) {
                while let Some(inst) = s.next_inst() {
                    let _ = write!(h, "{inst:?};");
                    n += 1;
                }
            }
            got.push((app.name, threads, chips, n, h.finish()));
        }
    }
    if capture {
        for (app, threads, chips, n, hash) in &got {
            println!("        ({app:?}, {threads}, {chips}, {n}, 0x{hash:016x}),");
        }
        return;
    }
    assert_eq!(
        got, STREAM_PINS,
        "an application's instruction streams drifted"
    );
}
