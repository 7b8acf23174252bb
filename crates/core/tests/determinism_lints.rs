//! Self-test of the determinism lints (DESIGN.md §14). csmt-core sits in
//! the strict tier and links isa, mem, cpu and trace, so this file is
//! linted against the real `crates/clippy.toml`. Every ban has one seeded
//! violation here under its own `#[expect]`: deleting or misspelling an
//! entry leaves that expectation unfulfilled, and `cargo clippy
//! --all-targets -- -D warnings` fails. One item per rule id of §14's
//! table, then the four spellings a token scan passes. Nothing runs.
#![allow(dead_code, reason = "linted, never executed")]

use csmt_isa::fxhash::FxHashMap;
use csmt_trace::{Event, Probe};
use std::collections::{HashMap, HashSet};
use std::sync::{atomic, mpsc};

fn wall_clock() {
    #[expect(clippy::disallowed_methods, reason = "fixture: wall-clock")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: wall-clock")]
    let _ = std::time::SystemTime::now();
}

fn env_read() {
    #[expect(clippy::disallowed_methods, reason = "fixture: env-read")]
    let _ = std::env::var("FIXTURE_KNOB");
    #[expect(clippy::disallowed_methods, reason = "fixture: env-read")]
    let _ = std::env::var_os("FIXTURE_KNOB");
    #[expect(clippy::disallowed_methods, reason = "fixture: env-read")]
    let _ = std::env::vars();
    #[expect(clippy::disallowed_methods, reason = "fixture: env-read")]
    let _ = std::env::vars_os();
}

fn concurrency_calls<'scope>(s: &'scope std::thread::Scope<'scope, '_>) {
    #[expect(clippy::disallowed_methods, reason = "fixture: concurrency")]
    let _ = std::thread::spawn(|| ());
    #[expect(clippy::disallowed_methods, reason = "fixture: concurrency")]
    std::thread::scope(|_| ());
    #[expect(clippy::disallowed_methods, reason = "fixture: concurrency")]
    let _ = std::thread::Builder::new().spawn(|| ());
    #[expect(clippy::disallowed_methods, reason = "fixture: concurrency")]
    let _ = std::thread::Builder::new().spawn_scoped(s, || ());
}

struct ConcurrencyTypes {
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    mutex: std::sync::Mutex<u64>,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    rwlock: std::sync::RwLock<u64>,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    condvar: std::sync::Condvar,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    tx: mpsc::Sender<u64>,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    sync_tx: mpsc::SyncSender<u64>,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    rx: mpsc::Receiver<u64>,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    bool: atomic::AtomicBool,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    i8: atomic::AtomicI8,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    i16: atomic::AtomicI16,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    i32: atomic::AtomicI32,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    i64: atomic::AtomicI64,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    isize: atomic::AtomicIsize,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    u8: atomic::AtomicU8,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    u16: atomic::AtomicU16,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    u32: atomic::AtomicU32,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    u64: atomic::AtomicU64,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    usize: atomic::AtomicUsize,
    #[expect(clippy::disallowed_types, reason = "fixture: concurrency")]
    ptr: atomic::AtomicPtr<u64>,
}

fn map_iter(m: &mut HashMap<u32, u32>, owned: [HashMap<u32, u32>; 2], s: &mut HashSet<u32>) {
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.iter_mut();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.keys();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.values();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.values_mut();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = m.drain();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    m.retain(|_, v| *v > 0);
    let [a, b] = owned;
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = a.into_keys();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = b.into_values();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = s.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    let _ = s.drain();
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter")]
    s.retain(|k| *k > 0);
    #[expect(clippy::iter_over_hash_type, reason = "fixture: map-iter")]
    for _ in &*m {}
}

fn float_accum(weights: &FxHashMap<u64, f64>) -> f64 {
    #[expect(clippy::disallowed_methods, reason = "fixture: float-accum")]
    weights.values().sum::<f64>()
}

fn probe_gate<P: Probe>(probe: &mut P, ev: &Event<'_>) {
    #[expect(clippy::disallowed_methods, reason = "fixture: probe-gate")]
    probe.on(ev);
}

/// What a lexical scan passes as clean: an alias, a glob import, a
/// rebinding and a UFCS call.
fn evasions<P: Probe>(m: &FxHashMap<u64, u32>, probe: &mut P, ev: &Event<'_>) {
    use std::env::*;
    use std::time::Instant as Clock;
    #[expect(clippy::disallowed_methods, reason = "fixture: wall-clock, aliased")]
    let _ = Clock::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: env-read, glob import")]
    let _ = var_os("FIXTURE_KNOB");
    let n = m;
    #[expect(clippy::disallowed_methods, reason = "fixture: map-iter, rebound")]
    let _ = n.iter();
    #[expect(clippy::iter_over_hash_type, reason = "fixture: map-iter, rebound")]
    for _ in n {}
    #[expect(clippy::disallowed_methods, reason = "fixture: probe-gate, UFCS")]
    csmt_trace::Probe::on(probe, ev);
}
