//! End-to-end observability contract: attaching probes to a full
//! simulation must not perturb it, the heartbeat stream must reconcile
//! exactly with the run's final statistics, the O3PipeView trace must be
//! well-formed for Konata, and `RunResult` must serialize with full
//! slot and memory statistics.

use clustered_smt::prelude::*;

const SCALE: f64 = 0.02;
const SEED: u64 = 42;

fn app() -> AppSpec {
    by_name("vpenta").expect("paper app")
}

#[test]
fn null_probe_run_is_identical_to_plain_simulate() {
    let plain = simulate(&app(), ArchKind::Smt2, 1, SCALE, SEED);
    let probed = simulate_probed(
        &app(),
        ArchKind::Smt2.chip(),
        1,
        SCALE,
        SEED,
        MemConfig::table3(),
        &mut NullProbe,
    );
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.slots, probed.slots);
    assert_eq!(plain.mem, probed.mem);
}

#[test]
fn attached_probes_do_not_perturb_the_simulation() {
    let plain = simulate(&app(), ArchKind::Fa4, 1, SCALE, SEED);
    let mut sink = Vec::new();
    let mut probe = (
        IntervalSampler::new(&mut sink, 500),
        PipeviewProbe::new(std::io::sink()),
    );
    let probed = simulate_probed(
        &app(),
        ArchKind::Fa4.chip(),
        1,
        SCALE,
        SEED,
        MemConfig::table3(),
        &mut probe,
    );
    probe.0.finish().unwrap();
    probe.1.finish().unwrap();
    drop(probe);
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.slots, probed.slots);
    assert!(!sink.is_empty(), "sampler produced no heartbeats");
}

#[test]
fn heartbeats_reconcile_with_final_slot_stats() {
    let mut buf = Vec::new();
    let r = {
        let mut sampler = IntervalSampler::new(&mut buf, 200);
        let r = simulate_probed(
            &app(),
            ArchKind::Smt2.chip(),
            1,
            SCALE,
            SEED,
            MemConfig::table3(),
            &mut sampler,
        );
        sampler.finish().unwrap();
        r
    };
    let recs: Vec<serde_json::Value> = String::from_utf8(buf)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("heartbeat line is valid JSON"))
        .collect();
    assert!(
        recs.len() >= 2,
        "expected several intervals, got {}",
        recs.len()
    );

    // Per interval: the §4.1 fractions are a distribution (sum 1 ± 1e-9).
    for rec in &recs {
        if rec["slots"].as_u64() == Some(0) {
            continue;
        }
        let mut sum = rec["useful_frac"].as_f64().unwrap();
        for h in Hazard::ALL {
            sum += rec["wasted_frac"][h.label()].as_f64().unwrap();
        }
        assert!((sum - 1.0).abs() < 1e-9, "interval fractions sum to {sum}");
    }

    // Across intervals: the raw deltas telescope to the run's final
    // totals — nothing double-counted, nothing dropped.
    let sum_u64 = |key: &str| recs.iter().map(|r| r[key].as_u64().unwrap()).sum::<u64>();
    assert_eq!(sum_u64("cycles"), r.cycles);
    assert_eq!(sum_u64("slots"), r.slots.slots);
    assert_eq!(sum_u64("committed"), r.slots.committed);
    let useful: f64 = recs
        .iter()
        .map(|x| x["useful_slots"].as_f64().unwrap())
        .sum();
    assert!((useful - r.slots.useful).abs() < 1e-6);
    for h in Hazard::ALL {
        let wasted: f64 = recs
            .iter()
            .map(|x| x["wasted_slots"][h.label()].as_f64().unwrap())
            .sum();
        assert!(
            (wasted - r.slots.wasted[h.index()]).abs() < 1e-6,
            "{}: heartbeats {wasted} vs final {}",
            h.label(),
            r.slots.wasted[h.index()]
        );
    }
    assert_eq!(sum_u64("accesses"), r.mem.accesses);
}

#[test]
fn pipeview_trace_is_well_formed_and_monotonic() {
    let mut buf = Vec::new();
    {
        let mut probe = PipeviewProbe::new(&mut buf);
        simulate_probed(
            &app(),
            ArchKind::Smt2.chip(),
            1,
            SCALE,
            SEED,
            MemConfig::table3(),
            &mut probe,
        );
        probe.finish().unwrap();
    }
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 7 * 100,
        "expected a real trace, got {} lines",
        lines.len()
    );
    assert!(lines.len().is_multiple_of(7), "records are 7 lines each");

    let tick = |l: &str| l.split(':').nth(2).unwrap().parse::<u64>().unwrap();
    let mut committed = 0u64;
    let mut squashed = 0u64;
    for rec in lines.chunks(7) {
        assert!(rec[0].starts_with("O3PipeView:fetch:"));
        for (line, stage) in rec[1..].iter().zip([
            "decode", "rename", "dispatch", "issue", "complete", "retire",
        ]) {
            assert!(
                line.starts_with(&format!("O3PipeView:{stage}:")),
                "bad line {line}"
            );
        }
        // Stage timestamps never decrease through the pipeline.
        let seq = [
            tick(rec[0]),
            tick(rec[1]),
            tick(rec[2]),
            tick(rec[3]),
            tick(rec[4]),
            tick(rec[5]),
        ];
        assert!(
            seq.windows(2).all(|w| w[0] <= w[1]),
            "non-monotonic record: {rec:?}"
        );
        let retire = tick(rec[6]);
        if retire == 0 {
            squashed += 1;
        } else {
            assert!(retire >= seq[5], "retire before complete: {rec:?}");
            committed += 1;
        }
    }
    assert!(committed > 0, "no committed instructions traced");
    // vpenta branches mispredict sometimes, so wrong-path squashes exist.
    assert!(squashed > 0, "no squashed instructions traced");
}

#[test]
fn run_result_serializes_with_full_statistics() {
    let r = simulate(&app(), ArchKind::Fa8, 1, SCALE, SEED);
    let v: serde_json::Value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(v["cycles"].as_u64(), Some(r.cycles));
    assert_eq!(v["slots"]["slots"].as_u64(), Some(r.slots.slots));
    assert_eq!(v["slots"]["committed"].as_u64(), Some(r.slots.committed));
    for h in Hazard::ALL {
        let got = v["slots"]["wasted"][h.index()].as_f64().unwrap();
        assert!(
            (got - r.slots.wasted[h.index()]).abs() < 1e-9,
            "{}",
            h.label()
        );
    }
    assert_eq!(v["mem"]["accesses"].as_u64(), Some(r.mem.accesses));
    assert_eq!(v["mem"]["l1_hits"].as_u64(), Some(r.mem.l1_hits));
    assert_eq!(v["mem"]["tlb_misses"].as_u64(), Some(r.mem.tlb_misses));
}

/// FNV-64 of the bytes a probe writes over one real cell: SMT2 mgrid at
/// scale 0.1 on one chip.
fn cell_output_fnv(write: impl FnOnce(&mut Vec<u8>)) -> (u64, usize) {
    let mut buf = Vec::new();
    write(&mut buf);
    let mut fnv = clustered_smt::verify::Fnv64::new();
    fnv.update(&buf);
    (fnv.finish(), buf.len())
}

fn run_mgrid_smt2(probe: &mut impl Probe) {
    let app = by_name("mgrid").expect("paper app");
    simulate_probed(
        &app,
        ArchKind::Smt2.chip(),
        1,
        0.1,
        SEED,
        MemConfig::table3(),
        probe,
    );
}

/// The heartbeat JSONL and the O3PipeView trace, byte for byte: a
/// rewrite of either writer or of the event stream they read must leave
/// both files as they were.
#[test]
fn heartbeat_and_pipeview_bytes_are_pinned() {
    let heartbeat = cell_output_fnv(|buf| {
        let mut sampler = IntervalSampler::new(buf, 1000);
        run_mgrid_smt2(&mut sampler);
        sampler.finish().unwrap();
    });
    let pipeview = cell_output_fnv(|buf| {
        let mut probe = PipeviewProbe::new(buf);
        run_mgrid_smt2(&mut probe);
        probe.finish().unwrap();
    });
    assert_eq!(
        heartbeat,
        (0xb724_9aaf_696b_3c8b, 1910),
        "heartbeat JSONL (fnv, bytes)"
    );
    assert_eq!(
        pipeview,
        (0x426e_20fe_02a6_1db8, 2_508_466),
        "O3PipeView trace (fnv, bytes)"
    );
}
