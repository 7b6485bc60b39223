#!/bin/sh
# Perf-regression gate, run by `dune build @bench-gate`.
#
# Two passes of the bench harness's --check over the committed
# BENCH.json: the first must pass, the second injects a synthetic 2x
# slowdown and must fail, which shows the floor and ceiling rows were
# really compared. main.exe exits 3 only when no floor or ceiling row
# could be compared (the file was taken on a box with another core
# count); the exact rows still gate then.
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
  3) echo "bench gate: no floor/ceiling row compared on this box; exact rows passed" ;;
  *) exit 1 ;;
esac

echo
echo "== bench gate: injected 2x slowdown (must fail) =="
status=0
"$bench" --check "$file" --inject-slowdown 2 || status=$?
case $status in
  1) echo "bench gate: injected regression correctly detected" ;;
  3) echo "bench gate: injection not exercised on this box" ;;
  *)
    echo "bench gate: --inject-slowdown 2 exited $status instead of failing" >&2
    exit 1
    ;;
esac
