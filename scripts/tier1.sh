#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before merging.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings (carries the determinism bans: crates/**/clippy.toml, DESIGN.md §14)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> frozen benchmark/ crate still builds against this API"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test (root package: tier-1)"
cargo test -q

echo "==> golden digests with a scheduling knob left in the shell (nothing below the binaries reads it)"
CSMT_SCHED=hazard_pairing cargo test -q --test golden_determinism

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> machine_step bench smoke (whole Machine on a memory-bound load chain, then mgrid under each per-instruction probe; test mode)"
cargo bench -p csmt-bench --bench machine_step -- --test

echo "==> cluster_step bench smoke (Cluster::step driven directly: no Machine)"
cargo bench -p csmt-bench --bench cluster_step -- --test

echo "==> csmt-report smoke (low-end SMT2 + high-end FA4, top-down accounting)"
cargo run -q --release -p csmt-bench --bin csmt-report -- SMT2 mgrid 0.1 1 >/dev/null
cargo run -q --release -p csmt-bench --bin csmt-report -- FA4 mgrid 0.1 4 >/dev/null

echo "==> csmt-lint (Table 2 configs + workload streams)"
cargo run -q --release -p csmt-verify --bin csmt-lint

echo "==> invariant golden run (all architectures x all scheduling policies under InvariantProbe)"
cargo test -q -p csmt-verify --test golden_invariants

echo "==> figures smoke (every row of the Fig 4/5/7/8 table)"
cargo run -q --release -p csmt-bench --bin figures -- all 0.02 >/dev/null

echo "==> fig9 dynamic-allocation smoke (all policies vs SMT2/FA4)"
cargo run -q --release -p csmt-bench --bin fig9_dynamic_alloc -- --smoke >/dev/null

echo "==> EXPERIMENTS.md tables reproduce from their binaries"
scripts/check_experiments.sh

echo "==> csmt-sweep smoke (tiny grid, cold then warm: cache hits + identical output)"
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
SWEEP_ARGS=(--archs FA2,SMT2 --apps vpenta,mgrid --scales 0.02 --cache "$SWEEP_TMP/cache")
cargo run -q --release -p csmt-sweep --bin csmt-sweep -- \
  "${SWEEP_ARGS[@]}" --out "$SWEEP_TMP/cold.jsonl" --summary "$SWEEP_TMP/cold.json" \
  | tee "$SWEEP_TMP/cold.log"
grep -q " 0 hits, 4 misses" "$SWEEP_TMP/cold.log"
cargo run -q --release -p csmt-sweep --bin csmt-sweep -- \
  "${SWEEP_ARGS[@]}" --out "$SWEEP_TMP/warm.jsonl" --summary "$SWEEP_TMP/warm.json" \
  | tee "$SWEEP_TMP/warm.log"
grep -q " 4 hits, 0 misses" "$SWEEP_TMP/warm.log"
cmp "$SWEEP_TMP/cold.jsonl" "$SWEEP_TMP/warm.jsonl"
cmp "$SWEEP_TMP/cold.json" "$SWEEP_TMP/warm.json"

echo "==> study + mix cells are sweep cells (ablation_study, fig9 cold then warm under one cache: same stdout, no new entries)"
export CSMT_SWEEP_CACHE="$SWEEP_TMP/study-cache"
for run in cold warm; do
  cargo run -q --release -p csmt-bench --bin ablation_study -- 0.02 >"$SWEEP_TMP/ablation.$run"
  cargo run -q --release -p csmt-bench --bin fig9_dynamic_alloc -- --smoke >"$SWEEP_TMP/fig9.$run"
  find "$CSMT_SWEEP_CACHE" -name '*.json' | wc -l >"$SWEEP_TMP/entries.$run"
done
unset CSMT_SWEEP_CACHE
cmp "$SWEEP_TMP/ablation.cold" "$SWEEP_TMP/ablation.warm"
cmp "$SWEEP_TMP/fig9.cold" "$SWEEP_TMP/fig9.warm"
cmp "$SWEEP_TMP/entries.cold" "$SWEEP_TMP/entries.warm"
[ "$(cat "$SWEEP_TMP/entries.cold")" -gt 0 ]

# Miri needs a nightly toolchain with the miri component; run it when
# available (CI installs it), skip gracefully on stable-only setups.
if cargo miri --version >/dev/null 2>&1; then
  echo "==> cargo miri (csmt-isa, csmt-core unit tests)"
  cargo miri test -p csmt-isa -p csmt-core --lib
else
  echo "==> cargo miri: not installed, skipping (CI runs it)"
fi

echo "tier1: all green"
