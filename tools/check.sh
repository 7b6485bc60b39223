#!/bin/sh
# Tier-1 gate: everything builds, every test passes, no build artifacts
# are tracked, every example exits 0, the telemetry, two-process
# network, and cross-party tracing smoke tests run end to end, psi_lint reports no new findings,
# and the gated rows of the committed BENCH.json hold on a fresh run.
set -eu
cd "$(dirname "$0")/.."

tracked_artifacts=$(git ls-files | grep -E '^_build/|\.install$|^\.merlin$' || true)
if [ -n "$tracked_artifacts" ]; then
  echo "error: build artifacts are tracked by git:" >&2
  echo "$tracked_artifacts" >&2
  exit 1
fi

dune build
dune runtest
dune build @examples
dune build @obs-smoke
dune build @net-smoke
dune build @service-smoke
dune build @par-smoke
dune build @cache-smoke
dune build @shard-smoke
dune build @trace-smoke
dune build @lint
dune build @lint-selfcheck
dune build @bench-gate

# API docs must stay warning-free; odoc is optional in minimal images.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: odoc not installed, skipping @doc" >&2
fi

echo "check.sh: all green"
