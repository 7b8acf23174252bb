//! # csmt-sweep — design-space sweep engine
//!
//! Serve (arch × chips × app × seed × knob) sweeps as cheap, cacheable
//! queries. The engine has three parts (DESIGN.md §16):
//!
//! * [`pool`] — a bounded job pool with in-order result streaming (the
//!   crate's registered concurrency seam);
//! * [`cache`] — a content-addressed on-disk [`RunResult`] cache keyed
//!   by [`key`], an FNV-1a digest of everything that determines a run's
//!   result, doubling as the resume checkpoint;
//! * [`SweepEngine`] — runs a grid of [`RunSpec`]s through both: each
//!   cell is a cache hit (file read) or a simulation-plus-store, and the
//!   assembled output is byte-identical either way, at any worker count.
//!
//! It also holds what the front doors above it share: [`cli`], the one
//! argv parser, and [`jsonl_line`], the one per-cell export line.
//!
//! ```
//! use csmt_core::ArchKind;
//! use csmt_sweep::SweepEngine;
//! use csmt_workloads::RunSpec;
//!
//! let app = csmt_workloads::by_name("mgrid").unwrap();
//! let cells = [RunSpec::new(&app, ArchKind::Smt2, 1, 0.02, 42)];
//! let out = SweepEngine::new(1, None).run_specs(&cells);
//! assert_eq!(out.results.len(), 1);
//! assert_eq!(out.hits, 0);
//! ```

pub mod cache;
pub mod cli;
pub mod pool;

pub use cache::{ResultCache, CACHE_SCHEMA};
pub use cli::{arch_by_name, fail, sched_flag, Cli};

use csmt_core::{ArchKind, RunResult};
use csmt_verify::digest::Fnv64;
use csmt_verify::golden::{EXPECTED, EXPECTED_FA4_4CHIP};
use csmt_workloads::{AppSpec, RunSpec};
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// The deterministic JSONL line of one completed cell (`csmt-sweep --out`,
/// `csmt-study --out`): what ran, its [`key`], and the full result.
#[must_use]
pub fn jsonl_line(spec: &RunSpec<'_>, result: &RunResult) -> String {
    Value::Object(vec![
        ("app".into(), spec.workload.to_string().to_value()),
        ("arch".into(), spec.chip.kind().name().to_value()),
        ("chips".into(), spec.n_chips.to_value()),
        ("seed".into(), spec.seed.to_value()),
        ("scale".into(), spec.scale.to_value()),
        ("sched".into(), spec.sched.to_value()),
        ("key".into(), format!("{:016x}", key(spec)).to_value()),
        ("result".into(), result.to_value()),
    ])
    .to_string()
}

/// The content-addressed cache key of a run: an FNV-1a digest over the
/// [`CACHE_SCHEMA`] tag, the pinned golden digests (a backstop to the
/// schema bump: re-capturing one changes every key) and the `Debug` form
/// of the [`RunSpec`] that is simulated — by construction every field of
/// it: the **full** `ChipConfig` (not just the arch name), machine size,
/// the full `MemConfig`, the workload (full `AppSpec`s; for a job set
/// also its order, batch index and batch size), seed, scale (`{:?}` of an
/// `f64` round-trips, so distinct bits print distinctly) and the
/// scheduling policy name.
#[must_use]
pub fn key(spec: &RunSpec<'_>) -> u64 {
    key_under(spec, CACHE_SCHEMA, &EXPECTED, EXPECTED_FA4_4CHIP)
}

/// [`key`] under an explicit schema tag and golden tables (the
/// sensitivity tests perturb them).
fn key_under(
    spec: &RunSpec<'_>,
    schema: &str,
    table2: &[(&str, u64, u64, u64, u64)],
    (c, i, r, e): (u64, u64, u64, u64),
) -> u64 {
    let mut h = Fnv64::new();
    h.update(schema.as_bytes());
    for (arch, cycles, committed, result, events) in
        table2.iter().copied().chain([("FA4x4", c, i, r, e)])
    {
        h.update(arch.as_bytes());
        for v in [cycles, committed, result, events] {
            h.update(&v.to_le_bytes());
        }
    }
    let _ = write!(h, "{spec:?}");
    h.finish()
}

/// The positional Table-2 × Table-3 × one-application subset of
/// [`RunSpec`], kept only because the frozen `benchmark/` crate
/// literal-constructs it (a frozen-harness shim, DESIGN.md §3).
/// Everything it does is [`spec`](SweepCell::spec) plus the `RunSpec`
/// function of the same name.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Application to run.
    pub app: AppSpec,
    /// Architecture (Table 2 configuration).
    pub arch: ArchKind,
    /// Machine size in chips.
    pub n_chips: usize,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Work scale (1.0 = full figure quality).
    pub scale: f64,
    /// Thread-to-cluster scheduling policy name
    /// (`csmt_core::sched::POLICY_NAMES`).
    pub sched: String,
}

impl SweepCell {
    /// The run this cell describes (borrows `app` and `sched`).
    #[must_use]
    pub fn spec(&self) -> RunSpec<'_> {
        RunSpec {
            sched: &self.sched,
            ..RunSpec::new(&self.app, self.arch, self.n_chips, self.scale, self.seed)
        }
    }

    /// [`key`] of [`spec`](SweepCell::spec).
    #[must_use]
    pub fn key(&self) -> u64 {
        key(&self.spec())
    }

    /// [`RunSpec::run`] of [`spec`](SweepCell::spec) (ignoring any cache).
    #[must_use]
    pub fn simulate(&self) -> RunResult {
        self.spec().run()
    }
}

/// What a sweep produced: per-cell results in grid order plus the
/// cache-traffic split. `hits + misses == results.len()`; the split is
/// run-specific bookkeeping and must never be mixed into deterministic
/// aggregate output.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per input cell, in input order.
    pub results: Vec<RunResult>,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells simulated (and stored, when a cache is attached).
    pub misses: usize,
}

/// The batch engine: a worker count and an optional result cache.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    cache: Option<ResultCache>,
}

impl SweepEngine {
    /// An engine with an explicit worker count (`<= 1` = run inline)
    /// and cache.
    #[must_use]
    pub fn new(threads: usize, cache: Option<ResultCache>) -> Self {
        SweepEngine {
            threads: threads.max(1),
            cache,
        }
    }

    /// The engine the environment asks for: `CSMT_SWEEP_THREADS`
    /// workers (default: host parallelism) and the `CSMT_SWEEP_CACHE`
    /// directory (default: no cache).
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "frozen benchmark/ calls SweepEngine::from_env(); the function and this expect go together with the other frozen-harness shims (DESIGN.md §3)"
    )]
    pub fn from_env() -> Self {
        let threads = std::env::var("CSMT_SWEEP_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        SweepEngine::new(threads, ResultCache::from_env())
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Run every spec, streaming `sink(i, &result)` in ascending grid
    /// order as results complete (see [`pool::run_jobs`]): each is loaded
    /// by its [`key`] or simulated and stored. The stream and the returned
    /// results are byte-identical whatever the worker count and whichever
    /// cells were cache hits.
    ///
    /// # Panics
    /// On a `sched` name outside `POLICY_NAMES` — a typo is an error, never
    /// a result cached under the typo's key.
    pub fn run_streaming<S>(&self, specs: &[RunSpec<'_>], mut sink: S) -> SweepOutcome
    where
        S: FnMut(usize, &RunResult) + Send,
    {
        let job = |i: usize| {
            let spec = &specs[i];
            let Some(cache) = &self.cache else {
                return (spec.run(), false);
            };
            let key = key(spec);
            if let Some(r) = cache.load(key) {
                return (r, true);
            }
            let r = spec.run();
            cache.store(key, &r);
            (r, false)
        };
        let pairs = pool::run_jobs(
            specs.len(),
            self.threads,
            job,
            |i, pair: &(RunResult, bool)| {
                sink(i, &pair.0);
            },
        );
        let hits = pairs.iter().filter(|(_, hit)| *hit).count();
        SweepOutcome {
            misses: pairs.len() - hits,
            hits,
            results: pairs.into_iter().map(|(r, _)| r).collect(),
        }
    }

    /// [`run_streaming`](SweepEngine::run_streaming) without a sink.
    pub fn run_specs(&self, specs: &[RunSpec<'_>]) -> SweepOutcome {
        self.run_streaming(specs, |_, _| {})
    }

    /// [`run_specs`](SweepEngine::run_specs) over [`SweepCell::spec`]s.
    pub fn run(&self, cells: &[SweepCell]) -> SweepOutcome {
        self.run_specs(&cells.iter().map(SweepCell::spec).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_mem::MemConfig;
    use csmt_workloads::by_name;

    fn spec(app: &AppSpec, arch: ArchKind, seed: u64) -> RunSpec<'_> {
        RunSpec::new(app, arch, 1, 0.02, seed)
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("csmt_sweep_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(dir).unwrap()
    }

    fn json(r: &RunResult) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn uncached_engine_matches_direct_simulation() {
        let app = by_name("vpenta").unwrap();
        let c = spec(&app, ArchKind::Smt2, 42);
        let out = SweepEngine::new(1, None).run_specs(std::slice::from_ref(&c));
        assert_eq!((out.hits, out.misses), (0, 1));
        assert_eq!(json(&out.results[0]), json(&c.run()));
    }

    #[test]
    fn a_cell_is_its_spec() {
        // The frozen positional struct adds nothing to its lowering: same
        // key, same result, same engine output, bit for bit.
        let cell = SweepCell {
            app: by_name("vpenta").unwrap(),
            arch: ArchKind::Smt2,
            n_chips: 1,
            seed: 42,
            scale: 0.02,
            sched: "barrier".to_string(),
        };
        assert_eq!(cell.key(), key(&cell.spec()));
        let engine = SweepEngine::new(1, None);
        let by_spec = json(&engine.run_specs(&[cell.spec()]).results[0]);
        assert_eq!(json(&cell.simulate()), by_spec);
        assert_eq!(json(&engine.run(&[cell]).results[0]), by_spec);
    }

    #[test]
    fn schema_tag_and_every_golden_bit_reach_the_key() {
        let app = by_name("mgrid").unwrap();
        let c = spec(&app, ArchKind::Smt2, 42);
        let (table2, fa4) = (EXPECTED, EXPECTED_FA4_4CHIP);
        assert_eq!(key(&c), key_under(&c, CACHE_SCHEMA, &table2, fa4));
        assert_ne!(key(&c), key_under(&c, "csmt-sweep-v0-test", &table2, fa4));
        // Re-capturing any golden — here one bit of SMT1's event digest,
        // then one cycle of the 4-chip run — changes every key.
        let mut recaptured = table2;
        recaptured[6].4 ^= 1;
        assert_ne!(key(&c), key_under(&c, CACHE_SCHEMA, &recaptured, fa4));
        let fa4_recaptured = (fa4.0 + 1, fa4.1, fa4.2, fa4.3);
        assert_ne!(
            key(&c),
            key_under(&c, CACHE_SCHEMA, &table2, fa4_recaptured)
        );
    }

    #[test]
    fn warm_run_is_all_hits_and_byte_identical() {
        // Beyond the Table-2 x Table-3 x one-app cells the figures use: a
        // memory-ablation cell and a two-batch job set are keyed, stored
        // and served like any other — and every f64 field (useful, wasted,
        // avg_running_threads) survives the JSON round trip exactly.
        let app = by_name("mgrid").unwrap();
        let mix = [by_name("vpenta").unwrap(), by_name("swim").unwrap()];
        let mut cells = vec![
            spec(&app, ArchKind::Fa2, 7),
            RunSpec {
                mem: MemConfig {
                    banks: 1,
                    ..MemConfig::table3()
                },
                ..spec(&app, ArchKind::Smt2, 7)
            },
        ];
        let fa2 = ArchKind::Fa2.chip();
        cells.extend(RunSpec::job_batches(&mix, 4, fa2, 1, 0.02, 7, "static"));
        assert_eq!(cells.len(), 4);
        let cache = tmp_cache("warm");
        let cold = SweepEngine::new(1, Some(cache.clone())).run_specs(&cells);
        assert_eq!((cold.hits, cold.misses), (0, 4));
        let warm = SweepEngine::new(1, Some(cache.clone())).run_specs(&cells);
        assert_eq!((warm.hits, warm.misses), (4, 0));
        for ((cell, a), b) in cells.iter().zip(&cold.results).zip(&warm.results) {
            assert_eq!(json(a), json(b));
            assert_eq!(json(b), json(&cell.run()));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn pooled_run_matches_serial_run_including_stream_order() {
        let app = by_name("swim").unwrap();
        let cells: Vec<RunSpec> = [ArchKind::Fa8, ArchKind::Fa1, ArchKind::Smt2, ArchKind::Smt1]
            .into_iter()
            .map(|a| spec(&app, a, 3))
            .collect();
        let mut serial_stream = Vec::new();
        let serial = SweepEngine::new(1, None)
            .run_streaming(&cells, |i, r| serial_stream.push((i, r.cycles)));
        // Host may have 1 CPU: force a real pool.
        let mut pooled_stream = Vec::new();
        let pooled = SweepEngine::new(4, None)
            .run_streaming(&cells, |i, r| pooled_stream.push((i, r.cycles)));
        assert_eq!(serial_stream, pooled_stream);
        for (a, b) in serial.results.iter().zip(&pooled.results) {
            assert_eq!(json(a), json(b));
        }
    }

    #[test]
    fn cached_results_round_trip_bit_for_bit() {
        // f64 fields (useful, wasted, avg_running_threads) survive the
        // JSON round trip exactly: compare full serializations.
        let app = by_name("fmm").unwrap();
        let c = spec(&app, ArchKind::Smt4, 9);
        let cache = tmp_cache("roundtrip");
        let fresh = c.run();
        cache.store(key(&c), &fresh);
        let loaded = cache.load(key(&c)).expect("hit");
        assert_eq!(json(&fresh), json(&loaded));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn dynamic_policy_results_cache_under_their_own_key() {
        let app = by_name("ocean").unwrap();
        let stat = spec(&app, ArchKind::Smt2, 5);
        let with_sched = |sched| RunSpec {
            sched,
            ..stat.clone()
        };
        let dynamic = with_sched("barrier");
        assert_ne!(key(&stat), key(&dynamic));
        // And the sched name reaches the simulation: committed work is
        // conserved but the policies are distinguishable in the key.
        assert_eq!(stat.run().slots.committed, dynamic.run().slots.committed);
        // A typo'd name is an error before anything is simulated or
        // stored — never the static result cached under the typo's key.
        let typo = with_sched("hazard");
        let cache = tmp_cache("typo");
        let engine = SweepEngine::new(1, Some(cache.clone()));
        let err = std::panic::catch_unwind(|| engine.run_specs(std::slice::from_ref(&typo)))
            .expect_err("unknown policy must not simulate");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("unknown scheduling policy \"hazard\" (valid policies: static, barrier, hazard_pairing)")
        );
        assert!(cache.load(key(&typo)).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
