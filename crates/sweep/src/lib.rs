//! # csmt-sweep — design-space sweep engine
//!
//! ROADMAP item 1: serve huge (arch × chips × app × seed × knob) sweeps
//! as cheap, cacheable queries. The engine has three parts (DESIGN.md
//! §16):
//!
//! * [`pool`] — a bounded work-stealing job pool with in-order result
//!   streaming (the crate's registered concurrency seam);
//! * [`cache`] — a content-addressed on-disk [`RunResult`] cache keyed
//!   by an FNV-1a digest of everything that determines a cell's result,
//!   doubling as the resume checkpoint;
//! * [`SweepEngine`] — runs a grid of [`SweepCell`]s through both: each
//!   cell is a cache hit (file read) or a simulation-plus-store, and the
//!   assembled output is byte-identical either way, at any worker count.
//!
//! ```
//! use csmt_core::ArchKind;
//! use csmt_sweep::{SweepCell, SweepEngine};
//!
//! let cells = vec![SweepCell {
//!     app: csmt_workloads::by_name("mgrid").unwrap(),
//!     arch: ArchKind::Smt2,
//!     n_chips: 1,
//!     seed: 42,
//!     scale: 0.02,
//!     sched: "static".to_string(),
//! }];
//! let out = SweepEngine::new(1, None).run(&cells);
//! assert_eq!(out.results.len(), 1);
//! assert_eq!(out.hits, 0);
//! ```

pub mod cache;
pub mod pool;

pub use cache::{ResultCache, CACHE_SCHEMA};

use csmt_core::{ArchKind, RunResult};
use csmt_mem::MemConfig;
use csmt_verify::digest::Fnv64;
use csmt_workloads::{AppSpec, RunSpec};

/// One sweep grid cell: everything that determines one simulation's
/// result, and therefore everything the cache key digests.
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
    /// The cell's content-addressed cache key: an FNV-1a digest over
    /// the [`CACHE_SCHEMA`] tag and every input the simulation result
    /// depends on — the **full** `ChipConfig` (not just the arch name),
    /// machine size, the Table-3 memory configuration, the full
    /// `AppSpec`, seed, scale (as exact bits), and the scheduling
    /// policy name.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key_with_schema(CACHE_SCHEMA)
    }

    /// [`key`](SweepCell::key) under an explicit schema tag (exposed so
    /// the sensitivity tests can prove a schema bump invalidates
    /// everything).
    #[must_use]
    pub fn key_with_schema(&self, schema: &str) -> u64 {
        let mut h = Fnv64::new();
        for part in [
            schema.to_string(),
            format!("{:?}", self.arch.chip()),
            self.n_chips.to_string(),
            format!("{:?}", MemConfig::table3()),
            format!("{:?}", self.app),
            self.seed.to_string(),
            self.scale.to_bits().to_string(),
            self.sched.clone(),
        ] {
            h.update(part.as_bytes());
            h.update(b";");
        }
        h.finish()
    }

    /// Simulate the cell (ignoring any cache).
    ///
    /// # Panics
    /// On a `sched` name outside `POLICY_NAMES` — a typo is an error, never
    /// a result cached under the typo's key.
    #[must_use]
    pub fn simulate(&self) -> RunResult {
        RunSpec {
            sched: &self.sched,
            ..RunSpec::new(&self.app, self.arch, self.n_chips, self.scale, self.seed)
        }
        .run()
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
        reason = "frozen benchmark/ calls SweepEngine::from_env(); ROADMAP item 1 deletes the function and this expect together"
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

    /// Run every cell, streaming `sink(i, &result)` in ascending cell
    /// order as results complete (see [`pool::run_jobs`]). The stream
    /// and the returned results are byte-identical whatever the worker
    /// count and whichever cells were cache hits.
    pub fn run_streaming<S>(&self, cells: &[SweepCell], mut sink: S) -> SweepOutcome
    where
        S: FnMut(usize, &RunResult) + Send,
    {
        let job = |i: usize| {
            let cell = &cells[i];
            if let Some(cache) = &self.cache {
                let key = cell.key();
                if let Some(r) = cache.load(key) {
                    return (r, true);
                }
                let r = cell.simulate();
                cache.store(key, &r);
                return (r, false);
            }
            (cell.simulate(), false)
        };
        let pairs = pool::run_jobs(
            cells.len(),
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
    pub fn run(&self, cells: &[SweepCell]) -> SweepOutcome {
        self.run_streaming(cells, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_workloads::by_name;

    fn cell(app: &str, arch: ArchKind, seed: u64) -> SweepCell {
        SweepCell {
            app: by_name(app).unwrap(),
            arch,
            n_chips: 1,
            seed,
            scale: 0.02,
            sched: "static".to_string(),
        }
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("csmt_sweep_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(dir).unwrap()
    }

    #[test]
    fn uncached_engine_matches_direct_simulation() {
        let c = cell("vpenta", ArchKind::Smt2, 42);
        let direct = c.simulate();
        let out = SweepEngine::new(1, None).run(std::slice::from_ref(&c));
        assert_eq!(out.hits, 0);
        assert_eq!(out.misses, 1);
        assert_eq!(
            serde_json::to_string(&out.results[0]).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
    }

    #[test]
    fn warm_run_is_all_hits_and_byte_identical() {
        let cells: Vec<SweepCell> = [ArchKind::Fa2, ArchKind::Smt2]
            .into_iter()
            .map(|a| cell("mgrid", a, 7))
            .collect();
        let cache = tmp_cache("warm");
        let cold = SweepEngine::new(1, Some(cache.clone())).run(&cells);
        assert_eq!((cold.hits, cold.misses), (0, 2));
        let warm = SweepEngine::new(1, Some(cache.clone())).run(&cells);
        assert_eq!((warm.hits, warm.misses), (2, 0));
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn pooled_run_matches_serial_run_including_stream_order() {
        let cells: Vec<SweepCell> = [ArchKind::Fa8, ArchKind::Fa1, ArchKind::Smt2, ArchKind::Smt1]
            .into_iter()
            .map(|a| cell("swim", a, 3))
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
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn cached_results_round_trip_bit_for_bit() {
        // f64 fields (useful, wasted, avg_running_threads) survive the
        // JSON round trip exactly: compare full serializations.
        let c = cell("fmm", ArchKind::Smt4, 9);
        let cache = tmp_cache("roundtrip");
        let fresh = c.simulate();
        cache.store(c.key(), &fresh);
        let loaded = cache.load(c.key()).expect("hit");
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&loaded).unwrap()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn dynamic_policy_results_cache_under_their_own_key() {
        let stat = cell("ocean", ArchKind::Smt2, 5);
        let dyn_cell = SweepCell {
            sched: "barrier".to_string(),
            ..stat.clone()
        };
        assert_ne!(stat.key(), dyn_cell.key());
        // And the sched name reaches the simulation: committed work is
        // conserved but the policies are distinguishable in the key.
        let a = stat.simulate();
        let b = dyn_cell.simulate();
        assert_eq!(a.slots.committed, b.slots.committed);
        // A typo'd name is an error before anything is simulated or
        // stored — never the static result cached under the typo's key.
        let typo = SweepCell {
            sched: "hazard".to_string(),
            ..stat
        };
        let cache = tmp_cache("typo");
        let engine = SweepEngine::new(1, Some(cache.clone()));
        let err = std::panic::catch_unwind(|| engine.run(std::slice::from_ref(&typo)))
            .expect_err("unknown policy must not simulate");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("unknown scheduling policy \"hazard\" (valid policies: static, barrier, hazard_pairing)")
        );
        assert!(cache.load(typo.key()).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
