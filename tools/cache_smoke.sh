#!/bin/sh
# Incremental-cache smoke test: the persistent element cache must be
# invisible in every output and visible in every counter. For each of
# the four protocols: run cold against a 200-row pair of tables, mutate
# 1% of the receiver's rows (2 of 200), run warm against the same cache
# directory, and require
#   - the warm stdout to be byte-identical to a cold run (fresh cache
#     directory) over the mutated tables — the cache changes the
#     compute schedule, never the transcript;
#   - the warm stdout to be byte-identical to the plain uncached CLI
#     path's as well, wire-traffic line included (both run one session:
#     config handshake, then the protocol);
#   - the warm ecache counters to match the delta exactly: 2 added,
#     2 removed, 398 unchanged (200 sender + 198 receiver) — and for
#     the intersection the full 3-lookups-per-element law:
#     misses = 3*|delta| = 6, hits = 3*(200+200) - 6 = 1194;
#   - the warm rerun to append to the cache file: the cold run's file is
#     a byte-prefix of the warm run's;
#   - a run over empty tables, which opens and closes the cache without
#     a look-up, to leave the cache file byte-identical;
#   - after a byte in the middle of the cache file is flipped and the
#     snapshot is cut short, a rerun to be cold and its stdout to be
#     byte-identical to the cold reference — damaged state falls back
#     to recomputing, never to a wrong answer.
#
# Usage: cache_smoke.sh path/to/psi_demo.exe
set -eu

BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
# Scratch space under the action's working directory, not under dune's
# per-build TMPDIR, which another dune process running at the same time
# may remove.
dir=$(mktemp -d "$PWD/smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

{
  echo "id:int,email:text"
  i=1
  while [ "$i" -le 200 ]; do
    echo "$i,user$i@example.org"
    i=$((i + 1))
  done
} > "$dir/s.csv"

{
  echo "id:int,email:text"
  i=101
  while [ "$i" -le 300 ]; do
    echo "$i,user$i@example.org"
    i=$((i + 1))
  done
} > "$dir/r.csv"

echo "id:int,email:text" > "$dir/empty.csv"

# 1% churn: replace the receiver's last two attribute values.
sed -e 's/^299,user299@example.org$/299,user1299@example.org/' \
    -e 's/^300,user300@example.org$/300,user1300@example.org/' \
    "$dir/r.csv" > "$dir/r2.csv"

for op in intersection size equijoin join-size; do
  cdir="$dir/cache-$op"

  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/s.csv" --csv-r "$dir/r.csv" \
    --cache "$cdir" --delta \
    > "$dir/$op.cold.out" 2> "$dir/$op.cold.err"
  cp "$cdir/ecache.psi" "$dir/$op.cold.psi"

  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/s.csv" --csv-r "$dir/r2.csv" \
    --cache "$cdir" --delta \
    > "$dir/$op.warm.out" 2> "$dir/$op.warm.err"

  # Reference 1: a cold run (fresh cache directory) over the same
  # mutated inputs. Warm and cold must be byte-identical.
  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/s.csv" --csv-r "$dir/r2.csv" \
    --cache "$cdir-ref" --delta \
    > "$dir/$op.ref.out" 2> "$dir/$op.ref.err"

  if ! cmp -s "$dir/$op.warm.out" "$dir/$op.ref.out"; then
    echo "cache_smoke: $op warm output differs from cold reference" >&2
    diff "$dir/$op.warm.out" "$dir/$op.ref.out" >&2 || true
    exit 1
  fi

  # Reference 2: the plain uncached CLI path over the same inputs. It
  # runs the same session, so its whole stdout — the wire-traffic line
  # included — must match.
  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/s.csv" --csv-r "$dir/r2.csv" \
    > "$dir/$op.plain.out"

  if ! cmp -s "$dir/$op.warm.out" "$dir/$op.plain.out"; then
    echo "cache_smoke: $op warm output differs from the uncached CLI path" >&2
    diff "$dir/$op.warm.out" "$dir/$op.plain.out" >&2 || true
    exit 1
  fi

  if ! grep -q 'cold=false' "$dir/$op.warm.err"; then
    echo "cache_smoke: $op warm run did not reuse the snapshot" >&2
    cat "$dir/$op.warm.err" >&2
    exit 1
  fi

  if ! grep -q 'added=2 removed=2 unchanged=398' "$dir/$op.warm.err"; then
    echo "cache_smoke: $op warm delta accounting is wrong (want 2/2/398)" >&2
    cat "$dir/$op.warm.err" >&2
    exit 1
  fi

  # A clean warm flush appends: the cold run's bytes stay as they were.
  if ! cmp -s -n "$(wc -c < "$dir/$op.cold.psi")" "$dir/$op.cold.psi" "$cdir/ecache.psi"; then
    echo "cache_smoke: $op warm run did not append to the cold run's cache file" >&2
    exit 1
  fi

  # Opening and closing the cache without a look-up writes nothing.
  cp "$cdir/ecache.psi" "$dir/$op.warm.psi"
  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/empty.csv" --csv-r "$dir/empty.csv" \
    --cache "$cdir" --delta > /dev/null 2>&1
  if ! cmp -s "$dir/$op.warm.psi" "$cdir/ecache.psi"; then
    echo "cache_smoke: $op run without a look-up changed the cache file" >&2
    exit 1
  fi

  # Damage the state the warm run left: flip the middle byte of the
  # cache file and cut the snapshot to half its length.
  size=$(wc -c < "$cdir/ecache.psi")
  mid=$((size / 2))
  byte=$(od -An -tu1 -j "$mid" -N1 "$cdir/ecache.psi" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 255)))" |
    dd of="$cdir/ecache.psi" bs=1 seek="$mid" conv=notrunc 2>/dev/null
  snap=$(wc -c < "$cdir/session.snap")
  head -c $((snap / 2)) "$cdir/session.snap" > "$dir/snap.cut"
  mv "$dir/snap.cut" "$cdir/session.snap"

  "$BIN" intersect --group test64 --op "$op" --attr email \
    --csv-s "$dir/s.csv" --csv-r "$dir/r2.csv" \
    --cache "$cdir" --delta \
    > "$dir/$op.damaged.out" 2> "$dir/$op.damaged.err"

  if ! cmp -s "$dir/$op.damaged.out" "$dir/$op.ref.out"; then
    echo "cache_smoke: $op output over damaged state differs from cold reference" >&2
    diff "$dir/$op.damaged.out" "$dir/$op.ref.out" >&2 || true
    exit 1
  fi

  if ! grep -q 'cold=true' "$dir/$op.damaged.err"; then
    echo "cache_smoke: $op run over a cut snapshot did not go cold" >&2
    cat "$dir/$op.damaged.err" >&2
    exit 1
  fi
done

# The intersection's warm counters obey the exact per-element law:
# every element costs 3 lookups (hash-to-group, own encryption, partner
# re-encryption), so a 2-element receiver delta is 6 misses and the
# remaining 3*(200+200) - 6 = 1194 lookups all hit.
if ! grep -q 'hits=1194 misses=6' "$dir/intersection.warm.err"; then
  echo "cache_smoke: intersection warm counters do not match the delta" >&2
  echo "  want: hits=1194 misses=6 (3 lookups/element, |delta|=2)" >&2
  cat "$dir/intersection.warm.err" >&2
  exit 1
fi

echo "cache_smoke: ok (4 ops warm == cold byte-identically; counters match |delta|; warm runs append; no look-up, no write; damaged state recomputes)"
