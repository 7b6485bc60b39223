#!/bin/sh
# Sharded two-process smoke test: run the intersection protocol between
# two real OS processes over a loopback socket with --buckets 8 (each
# side spilling its partition to its own --spill-dir) and check that
#   - the receiver's intersection values match the unsharded in-process
#     run (sharded = monolithic, across processes), and
#   - the single-process sharded run agrees too (same engine, one proc).
#
# Usage: shard_smoke.sh path/to/psi_demo.exe
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
8,heidi@example.org
EOF

cat > "$dir/r.csv" <<'EOF'
id:int,email:text
10,bob@example.org
11,mallory@example.org
12,carol@example.org
13,erin@example.org
14,heidi@example.org
EOF

# Reference: unsharded, in one process.
"$BIN" intersect --group test64 --csv-s "$dir/s.csv" --csv-r "$dir/r.csv" \
  --attr email > "$dir/ref.out"

# Single-process sharded run: stdout must be byte-identical to the
# reference apart from the wire-traffic line (sharding re-tags frames
# and adds the resume exchange, so byte counts legitimately differ).
"$BIN" intersect --group test64 --buckets 8 --spill-dir "$dir/spill" \
  --csv-s "$dir/s.csv" --csv-r "$dir/r.csv" --attr email > "$dir/sharded.out"
grep -v '^wire traffic' "$dir/ref.out" > "$dir/ref.trimmed"
grep -v '^wire traffic' "$dir/sharded.out" > "$dir/sharded.trimmed"
if ! cmp -s "$dir/ref.trimmed" "$dir/sharded.trimmed"; then
  echo "shard_smoke: sharded run differs from unsharded run" >&2
  diff "$dir/ref.out" "$dir/sharded.out" >&2 || true
  exit 1
fi

# The spill directory must contain the committed partition state.
if [ ! -f "$dir/spill/op0-sender.spillmeta" ] || \
   [ ! -f "$dir/spill/op0-receiver.spillmeta" ]; then
  echo "shard_smoke: expected spill meta files under $dir/spill" >&2
  ls "$dir/spill" >&2 || true
  exit 1
fi

# Two-process sharded run over a loopback socket, one spill dir per
# process (the parties never share a disk).
# Create the file the port is polled from before the background
# redirect does, or the first poll can race it and fail.
: > "$dir/s.out"
"$BIN" net --group test64 --buckets 8 --spill-dir "$dir/spill-s" \
  --listen 0 --max-conns 1 --csv "$dir/s.csv" --attr email \
  > "$dir/s.out" 2>&1 &
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
  echo "shard_smoke: listener never reported a port" >&2
  cat "$dir/s.out" >&2
  kill "$spid" 2>/dev/null || true
  exit 1
fi

"$BIN" net --group test64 --buckets 8 --spill-dir "$dir/spill-r" \
  --connect "127.0.0.1:$port" --csv "$dir/r.csv" --attr email \
  > "$dir/r.out" 2>&1
wait "$spid"

# The intersection values the networked sharded receiver prints must be
# exactly the unsharded reference's (the sharded net header reports
# |V_R| only — the value lines are the parity check).
grep '@example.org$' "$dir/r.out" | sort > "$dir/net_values"
grep '@example.org$' "$dir/ref.out" | sort > "$dir/ref_values"
if ! cmp -s "$dir/net_values" "$dir/ref_values"; then
  echo "shard_smoke: networked sharded intersection differs from reference" >&2
  diff "$dir/ref_values" "$dir/net_values" >&2 || true
  exit 1
fi

count=$(wc -l < "$dir/ref_values")
echo "shard_smoke: ok (port $port, $count matching value(s), 8 buckets)"
