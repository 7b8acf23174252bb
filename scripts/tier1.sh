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

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> machine_step bench smoke (whole Machine on a memory-bound load chain, then mgrid under each per-instruction probe; test mode)"
cargo bench -p csmt-bench --bench machine_step -- --test

echo "==> cluster_step bench smoke (Cluster::step driven directly: no Machine)"
cargo bench -p csmt-bench --bench cluster_step -- --test

SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT

echo "==> csmt-report smoke (low-end SMT2 + high-end FA4, top-down accounting; then checked, with every artifact)"
cargo run -q --release -p csmt-bench --bin csmt-report -- SMT2 mgrid 0.1 1 >/dev/null
cargo run -q --release -p csmt-bench --bin csmt-report -- FA4 mgrid 0.1 4 --sched hazard_pairing >/dev/null
cargo run -q --release -p csmt-bench --bin csmt-report -- FA2,SMT2 mgrid 0.05 1 --verify --out "$SWEEP_TMP/report" >/dev/null
for f in report.json heartbeat_SMT2.jsonl pipeview_SMT2.trace metrics_SMT2_mgrid.json metrics_FA2_mgrid.json; do
  [ -s "$SWEEP_TMP/report/$f" ]
done

echo "==> csmt-lint (scheduler policies x Table 2 archs + workload streams)"
cargo run -q --release -p csmt-verify --bin csmt-lint

echo "==> invariant golden run (all architectures x all scheduling policies under InvariantProbe)"
cargo test -q -p csmt-verify --test golden_invariants

echo "==> csmt-study CLI smoke (Fig 4 at 0.02, JSONL export; every study cold then warm is crates/bench/tests/studies.rs)"
cargo run -q --release -p csmt-bench --bin csmt-study -- fig4 0.02 --out "$SWEEP_TMP/fig4.jsonl" >/dev/null
[ "$(wc -l <"$SWEEP_TMP/fig4.jsonl")" -eq 30 ]

echo "==> docs drift gate (citations, path:line, README runs; EXPERIMENTS.md tables reproduce from their binaries)"
scripts/check_experiments.sh

echo "==> the docs drift gate exits 1 on each seeded fault, naming the file that holds it"
FAULTS="$SWEEP_TMP/faults"
mkdir -p "$FAULTS"
expect_fault() {
  local file="$1" status=0
  shift
  scripts/check_experiments.sh "$@" >"$FAULTS/out" 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF "$file" "$FAULTS/out"; then
    cat "$FAULTS/out"
    echo "tier1: the docs gate exited $status on the fault in $file, want 1 naming it" >&2
    exit 1
  fi
}
# The roadmap's name and a retired section number are built at run time:
# written out here, they would trip the gate on this file.
printf '// %s item 9\n' "ROAD""MAP" >"$FAULTS/roadmap.rs"
expect_fault "$FAULTS/roadmap.rs" --also "$FAULTS/roadmap.rs"
printf '// DESIGN.md §%s\n' 15 >"$FAULTS/retired.rs"
expect_fault "$FAULTS/retired.rs" --also "$FAULTS/retired.rs"
cp DESIGN.md "$FAULTS/DESIGN.md"
echo "See \`README.md:$(($(wc -l <README.md) + 1))\`." >>"$FAULTS/DESIGN.md"
expect_fault "$FAULTS/DESIGN.md" --design "$FAULTS/DESIGN.md"
echo 'cargo run --release -p csmt-bench --bin csmt-study nosuchstudy' >"$FAULTS/README.md"
expect_fault "$FAULTS/README.md" --readme "$FAULTS/README.md"

echo "==> csmt-sweep smoke (tiny grid, cold then warm: cache hits + identical output)"
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

# Miri needs a nightly toolchain with the miri component; run it when
# available (CI installs it), skip gracefully on stable-only setups.
if cargo miri --version >/dev/null 2>&1; then
  echo "==> cargo miri (csmt-isa, csmt-core unit tests)"
  cargo miri test -p csmt-isa -p csmt-core --lib
else
  echo "==> cargo miri: not installed, skipping (CI runs it)"
fi

echo "tier1: all green"
