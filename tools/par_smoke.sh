#!/bin/sh
# Parallel-parity smoke test: the batch-encryption engine must be
# invisible in every output. Run the same intersection at --jobs 1,
# --jobs 2, and --jobs 4 and require the *entire* output — results and
# wire-traffic accounting — to be byte-identical: the pool changes
# wall-clock only, never results or leakage.
#
# Usage: par_smoke.sh path/to/psi_demo.exe
set -eu

BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
# Scratch space under the action's working directory, not under dune's
# per-build TMPDIR, which another dune process running at the same time
# may remove.
dir=$(mktemp -d "$PWD/smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

cat > "$dir/s.csv" <<'EOF'
id:int,email:text
1,alice@example.org
2,bob@example.org
3,carol@example.org
4,dave@example.org
5,erin@example.org
6,frank@example.org
7,grace@example.org
EOF

cat > "$dir/r.csv" <<'EOF'
id:int,email:text
10,bob@example.org
11,mallory@example.org
12,carol@example.org
13,erin@example.org
14,grace@example.org
EOF

for jobs in 1 2 4; do
  "$BIN" intersect --group test64 --jobs "$jobs" \
    --csv-s "$dir/s.csv" --csv-r "$dir/r.csv" --attr email \
    > "$dir/out.$jobs"
done

for jobs in 2 4; do
  if ! cmp -s "$dir/out.1" "$dir/out.$jobs"; then
    echo "par_smoke: output differs between --jobs 1 and --jobs $jobs" >&2
    diff "$dir/out.1" "$dir/out.$jobs" >&2 || true
    exit 1
  fi
done

echo "par_smoke: ok (--jobs 1/2/4 outputs byte-identical)"
