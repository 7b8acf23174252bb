//! Content-addressed on-disk result cache.
//!
//! Every sweep cell's [`RunResult`] is stored as one JSON file named by
//! the cell's content digest (see [`crate::key`]): a cell
//! that was ever computed — by any process, any sweep shape, any worker
//! count — is a file read forever after. Entries self-verify: the file
//! carries a schema tag, its own key, and an FNV-1a digest of the result
//! payload, so corrupt, truncated, or foreign files are silently treated
//! as misses and recomputed, never trusted.
//!
//! Writes are atomic (`<key>.<pid>.tmp` + rename into place) so a killed
//! sweep can never leave a half-written entry behind — which is exactly
//! what makes the cache double as the resume checkpoint: restarting a
//! sweep re-enumerates the grid and only the missing cells simulate.

use csmt_core::RunResult;
use csmt_cpu::SlotStats;
use csmt_mem::MemStats;
use csmt_verify::digest::Fnv64;
use serde::{Serialize, Value};
use std::io;
use std::path::PathBuf;

/// Cache schema version tag, part of every cache key **and** stored in
/// every entry. Bump it whenever the simulator's observable behavior
/// changes or the entry format changes: old entries then simply stop
/// matching — stale results can never be served. [`crate::key`] also
/// absorbs the golden digests, but only as a backstop: they pin mgrid on
/// the Table-2 chips under Table 3 and the static policy, so a change
/// confined to any other cacheable path (another application, a fetch
/// policy, predictor or memory variant, a dynamic policy, a job mix)
/// re-captures nothing and is invalidated by the bump alone.
pub const CACHE_SCHEMA: &str = "csmt-sweep-v1";

/// Directory of content-addressed `RunResult` entries, one JSON file per
/// cache key. See the module docs for the entry format and guarantees.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Propagates the `create_dir_all` failure if `dir` cannot be made.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache selected by the `CSMT_SWEEP_CACHE` environment knob,
    /// or `None` when the knob is unset (caching disabled). An unusable
    /// directory is reported on stderr and treated as disabled rather
    /// than aborting the sweep.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the other half of SweepEngine::from_env, which frozen benchmark/ calls; ROADMAP item 1 deletes both functions with their expects"
    )]
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var_os("CSMT_SWEEP_CACHE")?;
        match Self::new(PathBuf::from(dir)) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("warning: CSMT_SWEEP_CACHE unusable ({e}); caching disabled");
                None
            }
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    #[must_use]
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Load the entry for `key`, verifying schema, key, and payload
    /// digest. Any mismatch — missing file, bad JSON, truncation,
    /// foreign schema, flipped byte — is a miss (`None`).
    #[must_use]
    pub fn load(&self, key: u64) -> Option<RunResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry: Value = serde_json::from_str(&text).ok()?;
        if entry.get("schema")?.as_str()? != CACHE_SCHEMA {
            return None;
        }
        if entry.get("key")?.as_str()? != format!("{key:016x}") {
            return None;
        }
        let result = entry.get("result")?;
        if entry.get("payload_digest")?.as_str()? != payload_digest(result) {
            return None;
        }
        result_from_value(result)
    }

    /// Store `result` under `key`, atomically: the entry is rendered to
    /// a process-private temp file in the cache directory and renamed
    /// into place, so readers only ever see complete entries. Best
    /// effort — an I/O failure costs a future recompute, not the sweep.
    pub fn store(&self, key: u64, result: &RunResult) {
        if let Err(e) = self.try_store(key, result) {
            eprintln!("warning: cache store of {key:016x} failed ({e})");
        }
    }

    fn try_store(&self, key: u64, result: &RunResult) -> io::Result<()> {
        let value = result.to_value();
        let entry = Value::Object(vec![
            ("schema".into(), CACHE_SCHEMA.to_value()),
            ("key".into(), format!("{key:016x}").to_value()),
            ("payload_digest".into(), payload_digest(&value).to_value()),
            ("result".into(), value),
        ]);
        let mut body = String::new();
        entry.render(&mut body);
        body.push('\n');
        let tmp = self
            .dir
            .join(format!("{key:016x}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }
}

/// FNV-1a digest of the compact rendering of a result subtree, as the
/// 16-hex-digit string stored in (and checked against) every entry.
#[must_use]
pub fn payload_digest(result: &Value) -> String {
    let mut body = String::new();
    result.render(&mut body);
    let mut h = Fnv64::new();
    h.update(body.as_bytes());
    format!("{:016x}", h.finish())
}

/// Rebuild a [`RunResult`] from its serialized [`Value`] tree (the
/// vendored serde stand-in only derives `Serialize`, so deserialization
/// is by hand). Returns `None` on any missing or mistyped field. The
/// vendored renderer/parser round-trips `f64` bit-exactly (shortest
/// round-trip `{:?}` out, `str::parse::<f64>` in), so a cached result
/// is bit-for-bit the result of the original simulation.
#[must_use]
pub fn result_from_value(v: &Value) -> Option<RunResult> {
    let slots = v.get("slots")?;
    let mem = v.get("mem")?;
    let wasted_v = slots.get("wasted")?.as_array()?;
    let mut wasted = [0.0f64; 7];
    if wasted_v.len() != wasted.len() {
        return None;
    }
    for (slot, value) in wasted.iter_mut().zip(wasted_v) {
        *slot = value.as_f64()?;
    }
    Some(RunResult {
        arch: v.get("arch")?.as_str()?.to_string(),
        chips: usize::try_from(v.get("chips")?.as_u64()?).ok()?,
        threads: usize::try_from(v.get("threads")?.as_u64()?).ok()?,
        cycles: v.get("cycles")?.as_u64()?,
        slots: SlotStats {
            useful: slots.get("useful")?.as_f64()?,
            wasted,
            cycles: slots.get("cycles")?.as_u64()?,
            slots: slots.get("slots")?.as_u64()?,
            committed: slots.get("committed")?.as_u64()?,
        },
        mem: MemStats {
            l1_hits: mem.get("l1_hits")?.as_u64()?,
            l2_hits: mem.get("l2_hits")?.as_u64()?,
            local_mem: mem.get("local_mem")?.as_u64()?,
            remote_mem: mem.get("remote_mem")?.as_u64()?,
            remote_l2: mem.get("remote_l2")?.as_u64()?,
            mshr_merges: mem.get("mshr_merges")?.as_u64()?,
            tlb_misses: mem.get("tlb_misses")?.as_u64()?,
            accesses: mem.get("accesses")?.as_u64()?,
            writes: mem.get("writes")?.as_u64()?,
            writebacks: mem.get("writebacks")?.as_u64()?,
            invalidations: mem.get("invalidations")?.as_u64()?,
            upgrades: mem.get("upgrades")?.as_u64()?,
            contention_wait: mem.get("contention_wait")?.as_u64()?,
        },
        avg_running_threads: v.get("avg_running_threads")?.as_f64()?,
        branch_lookups: v.get("branch_lookups")?.as_u64()?,
        branch_mispredicts: v.get("branch_mispredicts")?.as_u64()?,
        barrier_episodes: v.get("barrier_episodes")?.as_u64()?,
        lock_acquisitions: v.get("lock_acquisitions")?.as_u64()?,
        // Serialization omits the migration counters when zero (golden
        // JSON stability) — absence means zero, not malformed.
        migrations: v.get("migrations").map_or(Some(0), Value::as_u64)?,
        migration_wait_cycles: v
            .get("migration_wait_cycles")
            .map_or(Some(0), Value::as_u64)?,
    })
}
