//! A/B cost of the observability layer (csmt-trace): the same SMT2 run
//! with (a) the default [`csmt_trace::NullProbe`] — the path every figure
//! bench takes, which must monomorphize to the pre-probe code —
//! (b) a counting probe taking every event, and (c) an interval sampler
//! writing heartbeats to a sink. (a) is the number that must not regress:
//! the acceptance bar is ≤2% over historical figure-bench timings, and
//! since `simulate` *is* the NullProbe instantiation, any probe cost that
//! leaks into it shows up here first.

use criterion::{criterion_group, criterion_main, Criterion};
use csmt_core::ArchKind;
use csmt_trace::{Event, IntervalSampler, NullProbe, Probe, Wants};
use csmt_workloads::{by_name, simulate, simulate_probed};
use std::hint::black_box;
use std::time::Duration;

const SCALE: f64 = 0.02;

/// Counts every event kind — the cheapest probe that still forces all
/// event construction and dispatch to happen.
#[derive(Default)]
struct CountingProbe {
    insts: u64,
    cache: u64,
    cycles: u64,
}

impl Probe for CountingProbe {
    const WANTS: Wants = Wants::INST.union(Wants::CACHE).union(Wants::CYCLE_STATS);

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        match ev {
            Event::Cache(_) => self.cache += 1,
            Event::CycleEnd { .. } => self.cycles += 1,
            _ => self.insts += 1,
        }
    }
}

fn fast(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

fn bench_probe_overhead(c: &mut Criterion) {
    let app = by_name("mgrid").expect("paper app");
    let chip = ArchKind::Smt2.chip();
    let mem = csmt_mem::MemConfig::table3;

    let mut g = c.benchmark_group("probe_overhead");
    fast(&mut g);
    g.bench_function("null_probe", |b| {
        b.iter(|| black_box(simulate(&app, ArchKind::Smt2, 1, SCALE, 7)));
    });
    g.bench_function("explicit_null_probe", |b| {
        // Must be identical to `null_probe`: same monomorphization.
        b.iter(|| {
            black_box(simulate_probed(
                &app,
                chip,
                1,
                SCALE,
                7,
                mem(),
                &mut NullProbe,
            ))
        });
    });
    g.bench_function("counting_probe", |b| {
        b.iter(|| {
            let mut p = CountingProbe::default();
            let r = simulate_probed(&app, chip, 1, SCALE, 7, mem(), &mut p);
            black_box((r.cycles, p.insts, p.cache, p.cycles))
        });
    });
    g.bench_function("interval_sampler_sink", |b| {
        b.iter(|| {
            let mut p = IntervalSampler::new(std::io::sink(), 1000);
            let r = simulate_probed(&app, chip, 1, SCALE, 7, mem(), &mut p);
            p.finish().unwrap();
            black_box(r.cycles)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_probe_overhead);
criterion_main!(benches);
