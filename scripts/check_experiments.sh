#!/usr/bin/env bash
# Docs drift gate. It fails (exit 1, naming the file and line) when a
# document no longer says what the code is:
#
#  1. the name of the roadmap file (upper case) appears outside the
#     planning notes at the root (every *.md there but DESIGN.md, README.md
#     and EXPERIMENTS.md) and the frozen benchmark/ — its item numbers
#     change meaning at every re-planning, so code and docs cite DESIGN.md
#     sections instead;
#  2. a `DESIGN §N` / `DESIGN.md §N` citation in a .rs, .toml, .md or .sh
#     file outside those notes names a section DESIGN.md no longer has (a
#     `## N.` heading);
#  3. a `path:line` in DESIGN.md or README.md names a missing file or a
#     line past its end;
#  4. a `cargo run … --bin` line of README.md fails to run at scale 0.02
#     (appended for csmt-study, substituted for csmt-report's scale and
#     csmt-sweep's --scales; /tmp/ paths go to a throwaway directory);
#  5. a typo'd argument or unreadable path is not an exit-2 diagnosis;
#  6. EXPERIMENTS.md drifts: every
#
#       `cargo run --release [-p <pkg>] --bin <bin> [args]`
#
#     line there that is followed (within its section) by a ```text block
#     is run as written (plus -q --offline), and every non-empty line of
#     the block must appear in the binary's stdout, in order and
#     byte-for-byte. A block may quote only part of the output; it may not
#     quote a number the binary no longer prints.
#
#   scripts/check_experiments.sh [--design <file>] [--readme <file>] [--also <file>]...
#
# --design / --readme check another file in place of DESIGN.md / README.md
# and --also adds a file to checks 1-2; cargo still runs from the repo, so
# nothing is rebuilt. Exit: 0 all checks pass, 1 naming the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

DESIGN=DESIGN.md README=README.md ALSO=()
while [ $# -gt 0 ]; do
  case "$1" in
    --design) DESIGN="$2" ;;
    --readme) README="$2" ;;
    --also) ALSO+=("$2") ;;
    *) echo "check_experiments: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "check_experiments: $*" >&2
  exit 1
}

# The files checks 1 and 2 read: everything git tracks or would track but
# the planning notes and benchmark/, with DESIGN.md / README.md replaced by
# the files given.
FILES=()
while IFS= read -r f; do
  case "$f" in
    DESIGN.md) f="$DESIGN" ;;
    README.md) f="$README" ;;
    EXPERIMENTS.md | */*) ;;
    *.md) continue ;;
  esac
  case "$f" in benchmark/*) continue ;; esac
  if [ -f "$f" ]; then FILES+=("$f"); fi
done < <(git ls-files --cached --others --exclude-standard | sort -u)
FILES+=("${ALSO[@]}")

echo "==> no roadmap item numbers outside the planning notes"
word="ROAD""MAP" # in two halves, so that this file passes the check
if grep -nIHF -- "$word" "${FILES[@]}" >"$TMP/hits"; then
  fail "$(head -1 "$TMP/hits")
  cites the roadmap file; cite a DESIGN.md section instead"
fi

echo "==> every DESIGN section citation names a section $DESIGN has"
grep -oE '^## [0-9]+\.' "$DESIGN" | tr -dc '0-9\n' >"$TMP/sections"
for f in "${FILES[@]}"; do
  case "$f" in *.rs | *.toml | *.md | *.sh) ;; *) continue ;; esac
  grep -noHE 'DESIGN(\.md)? §[0-9]+' "$f" || true
done >"$TMP/cites"
while IFS= read -r cite; do
  n="${cite##*§}"
  grep -qx "$n" "$TMP/sections" ||
    fail "${cite%%:DESIGN*}: cites §$n, which $DESIGN does not have"
done <"$TMP/cites"

echo "==> every path:line in $DESIGN and $README is in range"
for doc in "$DESIGN" "$README"; do
  grep -noE '[A-Za-z0-9_./-]+\.(rs|toml|md|sh|json|yml|lock):[0-9]+(-[0-9]+)?' "$doc" \
    >"$TMP/refs" || true
  while IFS= read -r ref; do
    at="${ref%%:*}" ref="${ref#*:}"
    path="${ref%:*}" line="${ref##*[:-]}"
    [ -f "$path" ] || fail "$doc:$at: \`$ref\` names no file"
    [ "$line" -ge 1 ] && [ "$line" -le "$(wc -l <"$path")" ] ||
      fail "$doc:$at: \`$ref\` is past the end of $path ($(wc -l <"$path") lines)"
  done <"$TMP/refs"
done

# Every run below shares one throwaway result cache: a cell two commands
# share (the Fig 4 grid inside Fig 5's, say) is simulated once. Cold or
# warm, a study's stdout is byte-identical (crates/bench/tests/studies.rs).
export CSMT_SWEEP_CACHE="$TMP/cache"

echo "==> every cargo run --bin line of $README runs at scale 0.02"
mkdir -p "$TMP/run"
awk '
  { line = (cont ? line " " : "") $0; if (!cont) at = NR }
  /\\$/ { sub(/\\$/, "", line); cont = 1; next }
  { cont = 0 }
  line ~ /cargo run .*--bin / { print at "\t" line }
' "$README" >"$TMP/readme_runs"
while IFS=$'\t' read -r at line; do
  read -r -a words <<<"${line%%  #*}"                 # the trailing comment
  cmd="${words[*]}"
  cmd="cargo run${cmd#*cargo run}"                    # an env prefix: the cache is exported
  cmd="${cmd//\/tmp\//$TMP/}"                         # outputs go to the throwaway dir
  case "$cmd" in
    *"--bin csmt-study"*) cmd="$cmd 0.02" ;;
    *"--bin csmt-report"*)
      cmd="$(sed -E 's/ [0-9]+\.[0-9]+( |$)/ 0.02\1/' <<<"$cmd")" ;;
    *"--bin csmt-sweep"*)
      cmd="$(sed -E 's/--scales [^ ]+/--scales 0.02/' <<<"$cmd")" ;;
  esac
  echo "    $cmd"
  status=0
  # shellcheck disable=SC2086  # the documented command line is split on purpose
  (cd "$TMP/run" && cargo run -q --offline --manifest-path "$ROOT/Cargo.toml" ${cmd#cargo run }) \
    >/dev/null 2>"$TMP/run.err" || status=$?
  if [ "$status" -ne 0 ]; then
    cat "$TMP/run.err" >&2
    fail "$README:$at: \`$cmd\` exited $status"
  fi
done <"$TMP/readme_runs"

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
    cat "$TMP/typo.err" >&2
    fail "$* exited $status, want 2 and a diagnosis"
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

echo "check_experiments: docs in range, $(wc -l <"$TMP/readme_runs") README runs, $checked blocks reproduce"
