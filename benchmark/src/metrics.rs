//! The metric tables — the single list of names, units and directions
//! (`BENCHMARK.json` repeats it for the driver; a test keeps the two
//! equal).

/// An end-to-end metric: what a user of the reproduction pays.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports all of these from its untraced passes. A
/// sample is one timed pass; host time unless said otherwise.
pub const END_TO_END: [EndToEnd; 5] = [
    // Median wall-clock of one pass.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Median process CPU (utime+stime, all threads) of one pass.
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // 10^3 simulated committed instructions delivered per host second,
    // over all timed passes.
    EndToEnd {
        name: "sim_kips",
        unit: "kinst/s",
        better: "higher",
        bound: 0.25,
    },
    // VmHWM at workload exit (one process per workload).
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    // Median of three to fifteen full set-ups (four seconds of them):
    // grid build, cold cache fill (sweep_warm), warm-up pass.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str, &str); 91] = [
    // Span self-times of the traced pass (cache_store: of the traced
    // cold fill) and the tracing overhead.
    ("workloads.build_streams.self_ms", "ms", "lower"),
    ("core.machine_new.self_ms", "ms", "lower"),
    ("core.attach_threads.self_ms", "ms", "lower"),
    ("core.run.self_ms", "ms", "lower"),
    ("metrics.finish.self_ms", "ms", "lower"),
    ("sweep.key.self_ms", "ms", "lower"),
    ("sweep.cache_load.self_ms", "ms", "lower"),
    ("sweep.cache_store.self_ms", "ms", "lower"),
    ("sweep.engine_run.self_ms", "ms", "lower"),
    ("bench.render_figure.self_ms", "ms", "lower"),
    ("harness.digest.self_ms", "ms", "lower"),
    ("trace.span_share_sum", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    // csmt-cpu phases through the public HostProfiler probe.
    ("cpu.phase.complete_share", "ratio", "lower"),
    ("cpu.phase.commit_share", "ratio", "lower"),
    ("cpu.phase.issue_share", "ratio", "lower"),
    ("cpu.phase.fetch_share", "ratio", "lower"),
    ("cpu.phase.account_share", "ratio", "lower"),
    ("mem.phase.memory_share", "ratio", "lower"),
    ("core.phase.cycle_end_share", "ratio", "lower"),
    ("cpu.phase.calls", "count", "lower"),
    ("metrics.host_profiler.overhead_frac", "ratio", "lower"),
    // csmt-isa / csmt-workloads.
    ("isa.stream_next_ns", "ns", "lower"),
    ("workloads.build_streams_us", "us", "lower"),
    // csmt-cpu direct.
    ("cpu.cluster_step_ns.smt1_full_window", "ns", "lower"),
    ("cpu.cluster_step_ns.smt2_cluster", "ns", "lower"),
    ("cpu.cluster_step_ns.stalled", "ns", "lower"),
    ("cpu.bpred_ns", "ns", "lower"),
    // csmt-mem direct.
    ("mem.access_ns.l1_hit", "ns", "lower"),
    ("mem.access_ns.l2_hit", "ns", "lower"),
    ("mem.access_ns.local_mem", "ns", "lower"),
    ("mem.access_ns.remote_l2", "ns", "lower"),
    ("mem.access_ns.remote_mem", "ns", "lower"),
    ("mem.access_ns.write_upgrade", "ns", "lower"),
    ("mem.access.class_purity", "ratio", "higher"),
    ("mem.tlb_ns", "ns", "lower"),
    ("mem.directory_ns", "ns", "lower"),
    ("mem.cache_tag_ns", "ns", "lower"),
    // csmt-core direct.
    ("core.cycle_ns.membound_stepped", "ns", "lower"),
    ("core.cycle_ns.membound_ff", "ns", "lower"),
    ("core.ff_over_stepped", "x", "higher"),
    ("core.cycle_ns.active_serial", "ns", "lower"),
    ("core.cycle_ns.active_parallel", "ns", "lower"),
    ("core.par_over_serial", "x", "higher"),
    ("core.sched_overhead_frac.barrier", "ratio", "lower"),
    ("core.sched_overhead_frac.hazard_pairing", "ratio", "lower"),
    ("core.cell_ms.p50", "ms", "lower"),
    ("core.cell_ms.p95", "ms", "lower"),
    ("core.ns_per_cycle", "ns", "lower"),
    ("core.ns_per_inst", "ns", "lower"),
    // csmt-trace / csmt-metrics / csmt-verify: marginal wall over NullProbe.
    ("trace.probe_overhead_frac.sampler", "ratio", "lower"),
    ("trace.probe_overhead_frac.pipeview", "ratio", "lower"),
    ("metrics.probe_overhead_frac.metrics", "ratio", "lower"),
    ("verify.probe_overhead_frac.invariant", "ratio", "lower"),
    ("verify.events", "count", "lower"),
    // csmt-sweep direct.
    ("sweep.key_ns", "ns", "lower"),
    ("sweep.cache_load_us", "us", "lower"),
    ("sweep.cache_store_us", "us", "lower"),
    ("sweep.entry_bytes", "bytes", "lower"),
    ("sweep.pool_dispatch_us", "us", "lower"),
    ("sweep.pool_speedup_2w", "x", "higher"),
    ("sweep.hits", "count", "higher"),
    ("sweep.misses", "count", "lower"),
    ("sweep.hit_ratio", "ratio", "higher"),
    // The library's defaults: one pass of the figs_pooled grids with no
    // CSMT_* set (pool at host parallelism, threaded parallel step), and
    // that over a pass under figs_pooled's pinned environment.
    ("bench.figs_default_env_s", "s", "lower"),
    ("bench.default_env_over_pinned", "x", "lower"),
    // Simulated counters of the workload's grid (simulated time: they
    // repeat exactly; a simulator-speed change must leave every one
    // identical).
    ("sim.cycles", "cycles", "lower"),
    ("sim.committed", "count", "higher"),
    ("sim.ipc", "inst/cycle", "higher"),
    ("sim.slots.useful_frac", "ratio", "higher"),
    ("sim.slots.structural_frac", "ratio", "lower"),
    ("sim.slots.memory_frac", "ratio", "lower"),
    ("sim.slots.data_frac", "ratio", "lower"),
    ("sim.slots.control_frac", "ratio", "lower"),
    ("sim.slots.sync_frac", "ratio", "lower"),
    ("sim.slots.fetch_frac", "ratio", "lower"),
    ("sim.slots.other_frac", "ratio", "lower"),
    ("mem.l1_hit_rate", "ratio", "higher"),
    ("mem.l2_hits", "count", "higher"),
    ("mem.remote_frac", "ratio", "lower"),
    ("mem.contention_wait", "cycles", "lower"),
    ("mem.mshr_merges", "count", "higher"),
    ("mem.tlb_misses", "count", "lower"),
    ("mem.writebacks", "count", "lower"),
    ("mem.invalidations", "count", "lower"),
    ("cpu.mispredict_rate", "ratio", "lower"),
    ("core.avg_running_threads", "threads", "higher"),
    ("core.barrier_episodes", "count", "lower"),
    ("core.lock_acquisitions", "count", "lower"),
    ("model.smt2_vs_best_fa_pct", "%", "higher"),
    ("model.paper_gap_pp", "pp", "lower"),
];

/// Unit of the metric `name` in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use serde_json::Value;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(v["paths"].as_array().unwrap().len(), 1);
        assert_eq!(v["paths"][0], "benchmark");
        assert_eq!(
            v["run_seconds"].as_u64(),
            Some(crate::RUN_SECONDS),
            "run_seconds"
        );

        let workloads = v["workloads"].as_array().unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (w, s) in workloads.iter().zip(&SPECS) {
            assert_eq!(w["name"], s.name);
            assert_eq!(w["why"], s.why);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }

        let e2e = v["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j["name"], m.name);
            assert_eq!(j["unit"], m.unit);
            assert_eq!(j["better"], m.better);
            assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = v["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j["name"], m.0);
            assert_eq!(j["unit"], m.1);
            assert_eq!(j["better"], m.2);
            assert!(m.1.len() <= 16);
        }
    }

    #[test]
    fn release_profile_equals_the_roots() {
        // The harness must measure the code users build.
        fn profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest).expect(manifest);
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap().trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(own, root);
    }
}
