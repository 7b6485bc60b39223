#!/bin/sh
# Two-process smoke test: run the intersection protocol between two real
# OS processes over a loopback socket (psi_demo net) and check that
#   - the receiver's intersection matches the in-process run,
#   - both sides report the same total payload byte count, and
#   - that total equals the in-process run's wire traffic (both run the
#     config handshake, then the protocol; byte counts exclude the
#     socket's framing prefix).
#
# Usage: net_smoke.sh path/to/psi_demo.exe
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
EOF

cat > "$dir/r.csv" <<'EOF'
id:int,email:text
10,bob@example.org
11,mallory@example.org
12,carol@example.org
13,erin@example.org
EOF

# Reference: same protocol, same tables, in one process.
"$BIN" intersect --group test64 --csv-s "$dir/s.csv" --csv-r "$dir/r.csv" \
  --attr email > "$dir/ref.out"

# Listener (sender role) on an ephemeral port; it prints the bound port.
# The listener now loops until signalled; --max-conns 1 restores the
# serve-one-then-exit behaviour this script relies on.
# Create the file the port is polled from before the background
# redirect does, or the first poll can race it and fail.
: > "$dir/s.out"
"$BIN" net --group test64 --listen 0 --max-conns 1 --csv "$dir/s.csv" \
  --attr email > "$dir/s.out" 2>&1 &
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
  echo "net_smoke: listener never reported a port" >&2
  cat "$dir/s.out" >&2
  kill "$spid" 2>/dev/null || true
  exit 1
fi

"$BIN" net --group test64 --connect "127.0.0.1:$port" --csv "$dir/r.csv" \
  --attr email > "$dir/r.out" 2>&1
wait "$spid"

# The receiver's result lines (everything before the traffic report) must
# match the in-process run's result lines.
sed -n '/^|V_S|/,/^wire traffic/p' "$dir/r.out" | grep -v '^wire traffic' > "$dir/net_result"
sed -n '/^|V_S|/,/^wire traffic/p' "$dir/ref.out" | grep -v '^wire traffic' > "$dir/ref_result"
if ! cmp -s "$dir/net_result" "$dir/ref_result"; then
  echo "net_smoke: networked intersection differs from in-process run" >&2
  diff "$dir/ref_result" "$dir/net_result" >&2 || true
  exit 1
fi

# Both sides must agree on the total payload bytes moved.
s_total=$(sed -n 's/.*(total \([0-9]*\)).*/\1/p' "$dir/s.out")
r_total=$(sed -n 's/.*(total \([0-9]*\)).*/\1/p' "$dir/r.out")
if [ -z "$s_total" ] || [ "$s_total" != "$r_total" ]; then
  echo "net_smoke: byte totals disagree (sender=$s_total receiver=$r_total)" >&2
  exit 1
fi

# ... and the in-process session moves exactly the same bytes.
ref_total=$(sed -n 's/^wire traffic: \([0-9]*\) bytes$/\1/p' "$dir/ref.out")
if [ "$r_total" != "$ref_total" ]; then
  echo "net_smoke: networked total $r_total differs from in-process $ref_total" >&2
  exit 1
fi

echo "net_smoke: ok (port $port, $s_total bytes each way combined)"
