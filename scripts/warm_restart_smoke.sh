#!/bin/sh
# Warm-restart smoke test over the real wire: seed a snapshot directory
# with a stale format-1 file, start tuning_server with --snapshot-dir
# (it must evict that file), tune once (cold build, persisted on build),
# kill the server, start a fresh process on the same directory, and
# tune again.
# The second answer must be byte-identical to the first (dac_request
# prints every double as its IEEE-754 bit pattern, so `cmp` is the
# whole comparison) and must be served as a model-cache hit on the
# FIRST post-restart request — the warm restart actually warmed.
#
# Along the way every persisted file must pass `dac_snap verify --deep`
# (bit-identity across walks + re-encode idempotence on disk bytes).
#
# Usage: scripts/warm_restart_smoke.sh [BUILD_DIR]   (default: build)
# Exit: 0 on success, nonzero with a message on any failed invariant.

set -u

build_dir=${1:-build}
server="$build_dir/examples/tuning_server"
request="$build_dir/tools/dac_request"
snap="$build_dir/tools/dac_snap"
stale="$(dirname "$0")/../tests/persist/data/v1_gbrt.dacsnap"

for bin in "$server" "$request" "$snap"; do
    if [ ! -x "$bin" ]; then
        echo "warm_restart_smoke: $bin not built" >&2
        exit 1
    fi
done
if [ ! -f "$stale" ]; then
    echo "warm_restart_smoke: $stale missing" >&2
    exit 1
fi

workdir=$(mktemp -d /tmp/dac-warm-smoke-XXXXXX) || exit 1
snapdir="$workdir/snapshots"
port=$((20000 + $$ % 20000))
server_pid=""

cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

start_server() {
    "$server" 2 --port="$port" --snapshot-dir="$snapdir" \
        >"$workdir/$1.log" 2>&1 &
    server_pid=$!
}

stop_server() {
    kill -TERM "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
    server_pid=""
}

# --- Upgrade: a format-1 snapshot is stale; the cold start evicts it.
mkdir -p "$snapdir" && cp "$stale" "$snapdir/v1_gbrt.dacsnap" || exit 1

# --- Cold run: build, answer, persist-on-build, drain. -------------
start_server cold
if ! "$request" --port="$port" --workload=TS --size=40 \
    >"$workdir/cold.out"; then
    echo "warm_restart_smoke: cold request failed" >&2
    cat "$workdir/cold.log" >&2
    exit 1
fi
grep -q '^cacheHit 0$' "$workdir/cold.out" || {
    echo "warm_restart_smoke: cold request was not a cold build" >&2
    exit 1
}
stop_server

grep -q 'evicted stale snapshot v1_gbrt.dacsnap' "$workdir/cold.log" || {
    echo "warm_restart_smoke: cold start did not evict the v1 snapshot" >&2
    cat "$workdir/cold.log" >&2
    exit 1
}
if [ -e "$snapdir/v1_gbrt.dacsnap" ]; then
    echo "warm_restart_smoke: stale v1 snapshot still on disk" >&2
    exit 1
fi

count=$(ls "$snapdir"/*.dacsnap 2>/dev/null | wc -l)
if [ "$count" -lt 1 ]; then
    echo "warm_restart_smoke: no snapshot persisted" >&2
    cat "$workdir/cold.log" >&2
    exit 1
fi

# Every persisted file must survive the deep verifier.
for file in "$snapdir"/*.dacsnap; do
    "$snap" verify "$file" --deep >/dev/null || {
        echo "warm_restart_smoke: $file failed deep verify" >&2
        exit 1
    }
done

# --- Warm run: a NEW process must answer identically, from cache. ---
start_server warm
if ! "$request" --port="$port" --workload=TS --size=40 \
    >"$workdir/warm.out"; then
    echo "warm_restart_smoke: warm request failed" >&2
    cat "$workdir/warm.log" >&2
    exit 1
fi
grep -q '^cacheHit 1$' "$workdir/warm.out" || {
    echo "warm_restart_smoke: first post-restart request missed the cache" >&2
    cat "$workdir/warm.out" >&2
    exit 1
}
stop_server

# The answers must agree bit for bit (cacheHit is the only line
# allowed to differ).
grep -v '^cacheHit ' "$workdir/cold.out" >"$workdir/cold.cmp"
grep -v '^cacheHit ' "$workdir/warm.out" >"$workdir/warm.cmp"
if ! cmp -s "$workdir/cold.cmp" "$workdir/warm.cmp"; then
    echo "warm_restart_smoke: post-restart answer differs:" >&2
    diff "$workdir/cold.cmp" "$workdir/warm.cmp" >&2
    exit 1
fi

echo "warm restart OK: stale v1 snapshot evicted, $count snapshot(s)," \
    "first post-restart request hit the restored cache, answer" \
    "byte-identical"
exit 0
