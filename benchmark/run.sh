#!/usr/bin/env bash
# Build the benchmark harness (release, offline) and run it.
#
#   benchmark/run.sh                      all five workloads, untraced -> benchmark/out/results.json
#   benchmark/run.sh --trace              all five, traced (per-layer)  -> results.trace.json, trace.json
#   benchmark/run.sh --smoke              one short traced pass of everything (< 20 s, for CI)
#   benchmark/run.sh --compare A B        compare two results.json
#   benchmark/run.sh --record-expected    regenerate benchmark/expected.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one workload; last stdout line is the result JSON
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: stdout carries only the harness's report.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/csmt-benchmark" "$@"
