#!/bin/sh
# Perf-regression gate, run by `dune build @bench-gate`.
#
# One run of the bench harness's --check over the committed BENCH.json.
# It diffs fresh readings against the file, then injects a 2x slowdown
# into the same readings, taken as their own baseline, and requires
# every floor and ceiling row to fail: that shows the rows were really
# compared, without measuring twice. main.exe exits 3 only when no
# floor or ceiling row of the file could be compared (it was taken on a
# box with another core count); the exact rows and the self-test still
# gate then.
#
# Usage: bench_gate.sh path/to/main.exe BENCH.json
set -eu

bench=$1
file=$2

echo "== bench gate: $file =="
status=0
"$bench" --check "$file" || status=$?
case $status in
  0) ;;
  3) echo "bench gate: no floor/ceiling row compared on this box; exact rows and self-test passed" ;;
  *) exit 1 ;;
esac
