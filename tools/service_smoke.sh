#!/bin/sh
# Service smoke test: boot a real psid daemon on ephemeral ports, run
# three concurrent client sessions over loopback sockets, check that
#   - every client gets the correct result and a distinct session id,
#   - wrong credentials are refused with the typed exit code,
#   - /metrics (scraped with psid scrape) reflects the sessions served,
#   - SIGTERM drains: "psid: drained" on stdout and a clean exit, and
#   - the tenant's encrypted-work cache was flushed under its own dir.
#
# Usage: service_smoke.sh path/to/psid.exe path/to/psi_demo.exe
set -eu

PSID=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
DEMO=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
# Scratch space under the action's working directory, not under dune's
# per-build TMPDIR, which another dune process running at the same time
# may remove.
dir=$(mktemp -d "$PWD/smoke.XXXXXX")
spid=
trap 'rm -rf "$dir"; [ -n "$spid" ] && kill "$spid" 2>/dev/null || true' EXIT

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

# Create the file the port is polled from before the background
# redirect does, or the first poll can race it and fail.
: > "$dir/psid.out"
"$PSID" serve --group test64 --port 0 --metrics-port 0 --seed smoke \
  --tenant hospital:s3cret:"$dir/s.csv" --cache-root "$dir/cache" \
  > "$dir/psid.out" 2> "$dir/psid.err" &
spid=$!

port=
mport=
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/^psid: listening on port \([0-9]*\)$/\1/p' "$dir/psid.out")
  mport=$(sed -n 's/^psid: metrics on port \([0-9]*\)$/\1/p' "$dir/psid.out")
  [ -n "$port" ] && [ -n "$mport" ] && break
  i=$((i + 1))
  sleep 0.1
done
if [ -z "$port" ] || [ -z "$mport" ]; then
  echo "service_smoke: daemon never reported its ports" >&2
  cat "$dir/psid.out" "$dir/psid.err" >&2
  exit 1
fi

# Three concurrent sessions: two intersections and a size. Distinct
# client seeds give distinct nonces, hence distinct session ids.
client() { # $1 = seed, $2 = op, $3 = out
  "$DEMO" service --group test64 --connect "127.0.0.1:$port" \
    --tenant hospital --secret s3cret --seed "$1" \
    --csv "$dir/r.csv" --attr email --op "$2" > "$3" 2>&1
}
client c1 intersection "$dir/c1.out" &
p1=$!
client c2 size "$dir/c2.out" &
p2=$!
client c3 intersection "$dir/c3.out" &
p3=$!
wait "$p1"; wait "$p2"; wait "$p3"

for out in c1.out c3.out; do
  if ! grep -q '^|V_R| = 4, |V_S ∩ V_R| = 3$' "$dir/$out"; then
    echo "service_smoke: bad intersection in $out" >&2
    cat "$dir/$out" >&2
    exit 1
  fi
done
grep -q '^size = 3$' "$dir/c2.out" || {
  echo "service_smoke: bad size result" >&2
  cat "$dir/c2.out" >&2
  exit 1
}
sids=$(sed -n 's/^session \([0-9a-f]*\)$/\1/p' "$dir"/c?.out | sort -u | wc -l)
if [ "$sids" -ne 3 ]; then
  echo "service_smoke: expected 3 distinct session ids, got $sids" >&2
  exit 1
fi

# Wrong secret must be a typed refusal (exit 4), not a hang or crash.
if "$DEMO" service --group test64 --connect "127.0.0.1:$port" \
    --tenant hospital --secret wrong --seed c4 \
    --csv "$dir/r.csv" --attr email --op size > "$dir/c4.out" 2>&1; then
  echo "service_smoke: wrong secret was accepted" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 4 ]; then
    echo "service_smoke: wrong secret exited $rc, want 4" >&2
    cat "$dir/c4.out" >&2
    exit 1
  fi
fi

# The metrics endpoint must reflect what just happened.
"$PSID" scrape --port "$mport" > "$dir/metrics.out"
for want in \
  'service_sessions 3' \
  'service_ops 3' \
  'service_denied 1' \
  'service_admitted 4' \
  'service_busy_rejects 0' \
  'service_tenant_hospital_sessions 3'; do
  if ! grep -q "^$want\$" "$dir/metrics.out"; then
    echo "service_smoke: /metrics missing \"$want\"" >&2
    cat "$dir/metrics.out" >&2
    exit 1
  fi
done

# Graceful drain: SIGTERM, clean exit, the drained line, and a flushed
# per-tenant cache.
kill -TERM "$spid"
if ! wait "$spid"; then
  echo "service_smoke: psid exited non-zero after SIGTERM" >&2
  cat "$dir/psid.err" >&2
  exit 1
fi
grep -q '^psid: drained$' "$dir/psid.out" || {
  echo "service_smoke: no drained line on stdout" >&2
  cat "$dir/psid.out" >&2
  exit 1
}
if [ ! -f "$dir/cache/hospital/ecache.psi" ]; then
  echo "service_smoke: tenant cache was not flushed" >&2
  find "$dir/cache" >&2 || true
  exit 1
fi

echo "service_smoke: ok (port $port, metrics $mport, 3 sessions, 1 denied)"
