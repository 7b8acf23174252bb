#!/usr/bin/env bash
# EXPERIMENTS.md drift gate: every
#
#   `cargo run --release [-p <pkg>] --bin <bin> [args]`
#
# line in EXPERIMENTS.md that is followed (within its section) by a
# ```text block is run as written (plus -q --offline), and every
# non-empty line of the block must appear in the binary's stdout, in
# order and byte-for-byte. A block may quote only part of the output;
# it may not quote a number the binary no longer prints.
#
# Exit: 0 all blocks reproduce, 1 naming the section and the first
# missing line.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# A typo'd argument or a path the program cannot read is an error, not a
# different experiment (0.5 was meant) and not a panic: exit 2 with a
# diagnosis on stderr.
must_exit_2() {
  local want="$1" pkg="$2" status=0
  shift 2
  echo "==> $* must exit 2"
  cargo run -q --release --offline -p "$pkg" --bin "$@" \
    >/dev/null 2>"$TMP/typo.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -qF -- "$want" "$TMP/typo.err"; then
    echo "check_experiments: $* exited $status, want 2 and a diagnosis:" >&2
    cat "$TMP/typo.err" >&2
    exit 1
  fi
}
must_exit_2 'argument 2 "O.1" is not a valid' csmt-bench csmt-study -- fetch_policies O.1
must_exit_2 'argument 2 "O.1" is not a valid' csmt-bench csmt-study -- fig9 O.1
must_exit_2 'unknown study "nosuchstudy" (valid studies: fig1, fig4,' csmt-bench csmt-study -- nosuchstudy
must_exit_2 '--sched does not apply to fig9 (it applies to fig4,' csmt-bench csmt-study -- fig9 --sched barrier
must_exit_2 'unexpected argument 3 "7" (see --help)' csmt-bench csmt-study -- fetch_policies 0.5 7
must_exit_2 'unknown application "nosuchapp" (valid applications: swim,' csmt-bench csmt-report -- SMT2 nosuchapp
must_exit_2 'unknown flag "--from" (see --help)' csmt-bench csmt-report -- --from heartbeat.jsonl
must_exit_2 '/dev/null/out: Not a directory' csmt-bench csmt-report -- SMT2 mgrid 0.02 1 --out /dev/null/out
must_exit_2 '/dev/null/out.jsonl: Not a directory' csmt-bench csmt-study -- fig4 0.02 --out /dev/null/out.jsonl
must_exit_2 'argument 1 "abc" is not a valid f64' csmt-verify csmt-lint -- abc
must_exit_2 'unexpected argument 3 "7"' csmt-verify csmt-lint -- 0.02 8 7

# One block: run $cmd, require $TMP/want's non-empty lines in its stdout.
check_block() {
  local section="$1" cmd="$2"
  echo "==> $cmd"
  # shellcheck disable=SC2086  # the documented command line is split on purpose
  cargo run -q --offline ${cmd#cargo run } >"$TMP/got"
  awk -v section="$section" -v cmd="$cmd" -v wantfile="$TMP/want" '
    BEGIN {
      while ((getline l < wantfile) > 0) if (l != "") want[++n] = l
      i = 1
    }
    i <= n && $0 == want[i] { i++ }
    END {
      if (i <= n) {
        printf "check_experiments: %s\n  `%s` does not print, after the lines before it:\n  %s\n", \
          section, cmd, want[i] > "/dev/stderr"
        exit 1
      }
    }' "$TMP/got"
}

section="" cmd="" in_block=0 checked=0
while IFS= read -r line; do
  if [ "$in_block" -eq 1 ]; then
    if [ "$line" = '```' ]; then
      in_block=0
      check_block "$section" "$cmd"
      checked=$((checked + 1))
      cmd=""
    else
      printf '%s\n' "$line" >>"$TMP/want"
    fi
  elif [[ "$line" == '#'* ]]; then
    section="$line" cmd=""
  elif [[ "$line" =~ ^\`(cargo\ run\ --release\ (-p\ [a-z-]+\ )?--bin\ [^\`]+)\`$ ]]; then
    cmd="${BASH_REMATCH[1]}"
  elif [ "$line" = '```text' ] && [ -n "$cmd" ]; then
    in_block=1
    : >"$TMP/want"
  fi
done <EXPERIMENTS.md

echo "check_experiments: $checked blocks reproduce"
