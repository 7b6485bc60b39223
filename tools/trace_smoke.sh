#!/bin/sh
# Cross-party tracing smoke test: run the intersection protocol between
# two real OS processes (psi_demo net) with --trace-out on both sides,
# merge the two JSONL streams with psi_trace, and check that
#   - the merge finds exactly one trace shared by exactly two parties,
#   - no span event is orphaned (parent id missing from its stream), and
#   - the --chrome export produces a loadable trace-event document.
#
# Usage: trace_smoke.sh path/to/psi_demo.exe path/to/psi_trace.exe
set -eu

DEMO=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
TRACE=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
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
EOF

cat > "$dir/r.csv" <<'EOF'
id:int,email:text
10,bob@example.org
11,mallory@example.org
12,carol@example.org
13,erin@example.org
EOF

# Listener (sender role) on an ephemeral port; it prints the bound port.
# --max-conns 1: serve the one connection below, then exit (the wait
# relies on it).
# Create the file the port is polled from before the background
# redirect does, or the first poll can race it and fail.
: > "$dir/s.out"
"$DEMO" net --group test64 --listen 0 --max-conns 1 --csv "$dir/s.csv" \
  --attr email --trace-out "$dir/s.jsonl" > "$dir/s.out" 2>&1 &
spid=$!

port=
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' "$dir/s.out")
  [ -n "$port" ] && break
  i=$((i + 1))
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "trace_smoke: listener never reported a port" >&2
  cat "$dir/s.out" >&2
  kill "$spid" 2>/dev/null || true
  exit 1
fi

"$DEMO" net --group test64 --connect "127.0.0.1:$port" --csv "$dir/r.csv" \
  --attr email --trace-out "$dir/r.jsonl" > "$dir/r.out" 2>&1
wait "$spid"

for f in s r; do
  if [ ! -s "$dir/$f.jsonl" ]; then
    echo "trace_smoke: $f side wrote no trace JSONL" >&2
    exit 1
  fi
done

"$TRACE" "$dir/s.jsonl" "$dir/r.jsonl" --chrome "$dir/trace.json" \
  > "$dir/merge.out"

fail() {
  echo "trace_smoke: $1" >&2
  cat "$dir/merge.out" >&2
  exit 1
}

grep -q '^traces: 1$' "$dir/merge.out" \
  || fail "expected exactly one shared trace id"
grep -q '^parties: 2 ' "$dir/merge.out" \
  || fail "expected exactly two parties in the merge"
grep -q '^orphan spans: 0$' "$dir/merge.out" \
  || fail "expected zero orphan spans"

# The two streams must carry the same handshake-derived trace id.
s_tid=$(sed -n 's/.*"type":"trace_header".*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$dir/s.jsonl")
r_tid=$(sed -n 's/.*"type":"trace_header".*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$dir/r.jsonl")
if [ -z "$s_tid" ] || [ "$s_tid" != "$r_tid" ]; then
  echo "trace_smoke: trace ids disagree (sender=$s_tid receiver=$r_tid)" >&2
  exit 1
fi

grep -q '"traceEvents"' "$dir/trace.json" \
  || fail "--chrome output is not a trace-event document"

echo "trace_smoke: ok (port $port, trace $s_tid)"
