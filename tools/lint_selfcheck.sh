#!/bin/sh
# Lint self-check, run by `dune build @lint-selfcheck`.
#
# Two halves:
#   1. psi_lint --selfcheck over tools/lint_fixtures — a corpus of
#      seeded-bad snippets where every violating line carries a
#      `(* lint-expect: RULE *)` annotation. The run fails unless every
#      expected (file, line, rule) is reported (MISS) and nothing
#      unexpected is (EXTRA), so both false negatives and false
#      positives in the analyses break the build. It also fails if a
#      compiler warning or alert shows in psi_lint's output.
#   2. Schema validation of the machine output: `--json` must emit a
#      versioned lint_header as its first line and a versioned summary
#      with per-phase timings as its last, matching the trace_header
#      convention used by the Obs JSONL exports.
#
# Usage: lint_selfcheck.sh path/to/psi_lint.exe workspace_root
set -eu

LINT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
ROOT=$2
# Scratch space under the action's working directory, not under dune's
# per-build TMPDIR, which another dune process running at the same time
# may remove.
dir=$(mktemp -d "$PWD/smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "lint_selfcheck: $1" >&2
  exit 1
}

echo "== lint selfcheck: seeded fixtures =="
# The corpus includes source the compiler warns about; none of its
# warnings or alerts may reach psi_lint's output.
"$LINT" --root "$ROOT" --selfcheck "$ROOT/tools/lint_fixtures" >"$dir/selfcheck.out" 2>&1 \
  || { cat "$dir/selfcheck.out"; fail "seeded fixtures"; }
cat "$dir/selfcheck.out"
if grep -q -e "Warning" -e "Alert" "$dir/selfcheck.out"; then
  fail "compiler warnings reached psi_lint's output"
fi

echo
echo "== lint selfcheck: JSON schema =="
"$LINT" --root "$ROOT" --baseline "$ROOT/tools/lint_baseline.txt" \
  --json "$dir/lint.jsonl" lib bin

head -n 1 "$dir/lint.jsonl" | grep -q '"type":"lint_header"' \
  || fail "first JSON line is not a lint_header"
head -n 1 "$dir/lint.jsonl" | grep -q '"version":1' \
  || fail "lint_header carries no schema version"
head -n 1 "$dir/lint.jsonl" | grep -q '"rules":\[' \
  || fail "lint_header carries no rule catalog"
tail -n 1 "$dir/lint.jsonl" | grep -q '"type":"summary"' \
  || fail "last JSON line is not a summary"
tail -n 1 "$dir/lint.jsonl" | grep -q '"version":1' \
  || fail "summary carries no schema version"
tail -n 1 "$dir/lint.jsonl" | grep -q '"phases":{' \
  || fail "summary carries no per-phase timings"
for phase in lex parse resolve taint classify; do
  tail -n 1 "$dir/lint.jsonl" | grep -q "\"$phase\":" \
    || fail "summary phases missing \"$phase\""
done

echo "lint_selfcheck: ok"
