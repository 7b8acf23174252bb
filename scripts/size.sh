#!/usr/bin/env bash
# The "least code" trajectory as one JSON object on stdout: Rust lines
# (every line of every *.rs file) per crate and for the top-level trees,
# plus the counts a simplicity PR moves — bins, bench targets, CSMT_*
# knobs, command-line flags, run entry points, config fields,
# determinism-lint exceptions, probe channels, event variants, the
# per-instruction in-flight mirrors probes keep, and the line counts of
# the three documents a reader starts from.
#
#   scripts/size.sh                 (run at the parent and at the change;
#                                    CHANGES.md records both)
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of all *.rs files under the directories given (0 if none exist;
# a crate's "tests" count includes its fixtures/).
rs_lines() {
  local total=0 d
  for d in "$@"; do
    [ -d "$d" ] || continue
    total=$((total + $(find "$d" -name '*.rs' -exec cat {} + | wc -l)))
  done
  echo "$total"
}

# Fields (public or private) inside `pub struct $1 { ... }` in file $2.
struct_fields() {
  awk -v open="pub struct $1 {" '
    $0 == open { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    (pub(\([a-z]+\))? )?[a-z_0-9]+:/ { n++ }
    END { print n + 0 }' "$2"
}

# Variants of `pub enum Event<'a> { ... }` in the probe vocabulary: one
# line each that opens at four spaces with a capital.
event_variants() {
  awk '
    /^pub enum Event</ { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    [A-Z]/ { n++ }
    END { print n + 0 }' crates/trace/src/probe.rs
}

# Lines in the files given that match the extended regex $1.
count() {
  local re="$1"
  shift
  cat "$@" | grep -cE "$re" || true
}

# `#[expect(…)]` / `#![expect(…)]` attributes under crates/*/src that name a
# `clippy::disallowed_*` lint: the determinism contract's exception sites
# (DESIGN.md §14; the self-test fixture lives under tests/ and is not counted).
lint_exceptions() {
  find crates/*/src -name '*.rs' -exec cat {} + | awk '
    /#!?\[expect\(/ { inside = 1; hit = 0 }
    inside && /clippy::disallowed_/ { hit = 1 }
    inside && /\)\]/ { n += hit; inside = 0 }
    END { print n + 0 }'
}

# The `("--name", takes_value)` flags the binaries declare to `Cli::parse`
# (grep -o: one line may declare several).
cli_flags() {
  find crates/*/src/bin -name '*.rs' -exec cat {} + |
    grep -oE '\("--[a-z][a-z-]*", (true|false)\)' | wc -l
}

crates="" bins=""
total_bins=0 crates_total=0
for dir in crates/*/; do
  name="$(basename "$dir")"
  src=$(rs_lines "$dir/src")
  tests=$(rs_lines "$dir/tests" "$dir/fixtures")
  benches=$(rs_lines "$dir/benches")
  crates_total=$((crates_total + src + tests + benches))
  crates+="${crates:+, }\"$name\": {\"src\": $src, \"tests\": $tests, \"benches\": $benches}"
  if [ -d "$dir/src/bin" ]; then
    n=$(find "$dir/src/bin" -name '*.rs' | wc -l)
    bins+="${bins:+, }\"$name\": $n"
    total_bins=$((total_bins + n))
  fi
done

cat <<EOF
{
  "rust_lines": {
    "crates": {$crates},
    "crates_total": $crates_total,
    "tests": $(rs_lines tests),
    "src": $(rs_lines src),
    "examples": $(rs_lines examples),
    "vendor": $(rs_lines vendor),
    "benchmark_src": $(rs_lines benchmark/src)
  },
  "bins": {"total": $total_bins, $bins},
  "bench_targets": $(find crates/*/benches -name '*.rs' | wc -l),
  "env_knobs": $(count '^        "CSMT_[A-Z_]+=' crates/bench/src/lib.rs),
  "cli_flags": $(cli_flags),
  "run_entry_points": $(count '^ *pub fn ' crates/workloads/src/runner.rs crates/workloads/src/multiprogram.rs),
  "config_fields": {
    "ClusterConfig": $(struct_fields ClusterConfig crates/cpu/src/config.rs),
    "ChipConfig": $(struct_fields ChipConfig crates/core/src/configs.rs),
    "MemConfig": $(struct_fields MemConfig crates/mem/src/config.rs)
  },
  "lint_exceptions": $(lint_exceptions),
  "probe_channels": $(count '^    pub const [A-Z_]+: Wants = Wants\(1 << ' crates/trace/src/probe.rs),
  "event_variants": $(event_variants),
  "inflight_mirrors": $(find crates/*/src -name '*.rs' -exec cat {} + | grep -cE '^ +[a-z_]+: (Vec<)?InflightRing<' || true),
  "doc_lines": {"DESIGN": $(wc -l <DESIGN.md), "README": $(wc -l <README.md), "EXPERIMENTS": $(wc -l <EXPERIMENTS.md)}
}
EOF
