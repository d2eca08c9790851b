#!/usr/bin/env bash
# End-to-end smoke of the cbwsd simulation service and cbwsctl client:
#
#   1. start cbwsd on an ephemeral port (discovered via -addr-file)
#      with the golden manifest's 400k/100k instruction window;
#   2. sweep a small workload × prefetcher matrix — including one
#      learned-prefetcher scheme (pythia) — and require every served
#      cell hash to match golden/seed.json: the daemon must be
#      byte-identical to the checked-in seed;
#   3. repeat the sweep and require a 100% cache-hit rate, checked both
#      by cbwsctl -require-cached and by the expvar counter deltas;
#   4. SIGTERM the daemon and require a clean drain (exit status 0);
#   5. restart a daemon over the same cache directory: it must load
#      every record (none quarantined), serve the sweep 100% cached
#      and golden, and report each cell under its own names.
#
# Run from the repository root: ./scripts/service_smoke.sh
set -euo pipefail

WORKLOADS="stencil-default,fft-simlarge"
# "pythia" exercises a learned-prefetcher cell end to end: the roster
# growth must leave job keys, cache replay, and golden hashes unchanged
# for the pre-existing schemes while serving the new ones.
PREFETCHERS="none,cbws,pythia"
CELLS=6

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "service-smoke: building cbwsd and cbwsctl"
go build -o "$tmp/cbwsd" ./cmd/cbwsd
go build -o "$tmp/cbwsctl" ./cmd/cbwsctl

# The prefetcher roster rides inside request/response payloads as plain
# strings, so growing it must not move the wire shape: regenerating the
# wirecompat manifest has to be a no-op against the committed file.
echo "service-smoke: api/v1 wire shape must be unchanged by the roster"
go run ./cmd/cbwslint -write-compat ./api/v1 >/dev/null
git diff --exit-code -- api/v1/compat.json || {
    echo "service-smoke: api/v1/compat.json changed; the roster growth moved the wire shape" >&2
    exit 1
}

mkdir -p "$tmp/cache"
# start_daemon launches cbwsd over $tmp/cache and sets daemon_pid and url.
start_daemon() {
    rm -f "$tmp/addr"
    "$tmp/cbwsd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -cache-dir "$tmp/cache" \
        -n 400000 -warmup 100000 2>"$tmp/cbwsd.log" &
    daemon_pid=$!

    for _ in $(seq 1 100); do
        [ -s "$tmp/addr" ] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "service-smoke: cbwsd died on startup:" >&2
            cat "$tmp/cbwsd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [ -s "$tmp/addr" ] || { echo "service-smoke: cbwsd never published its address" >&2; exit 1; }
    url="http://$(cat "$tmp/addr")"
    echo "service-smoke: cbwsd on $url"
}
start_daemon

# expvar_counter NAME prints the daemon's current cbwsd.NAME value.
expvar_counter() {
    curl -sf "$url/debug/vars" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

echo "service-smoke: sweep $WORKLOADS x $PREFETCHERS against golden/seed.json"
"$tmp/cbwsctl" -server "$url" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json

hits_before="$(expvar_counter cache_hits)"
misses_before="$(expvar_counter cache_misses)"

echo "service-smoke: repeat sweep must be 100% cache hits"
"$tmp/cbwsctl" -server "$url" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json \
    -require-cached

hits_after="$(expvar_counter cache_hits)"
misses_after="$(expvar_counter cache_misses)"
if [ "$misses_after" -ne "$misses_before" ]; then
    echo "service-smoke: repeat sweep caused $((misses_after - misses_before)) cache misses, want 0" >&2
    exit 1
fi
if [ "$((hits_after - hits_before))" -ne "$CELLS" ]; then
    echo "service-smoke: repeat sweep scored $((hits_after - hits_before)) cache hits, want $CELLS" >&2
    exit 1
fi

# stop_daemon sends SIGTERM and requires a clean drain.
stop_daemon() {
    kill -TERM "$daemon_pid"
    drain_status=0
    wait "$daemon_pid" || drain_status=$?
    daemon_pid=""
    if [ "$drain_status" -ne 0 ]; then
        echo "service-smoke: cbwsd exited $drain_status after SIGTERM, want 0:" >&2
        cat "$tmp/cbwsd.log" >&2
        exit 1
    fi
}

echo "service-smoke: SIGTERM, expecting a clean drain"
stop_daemon
entries="$(ls "$tmp/cache" | grep -c '\.json$' || true)"
if [ "$entries" -ne "$CELLS" ]; then
    echo "service-smoke: $entries record files persisted, want $CELLS" >&2
    exit 1
fi

echo "service-smoke: restart over the same cache: every cell cached, names intact"
start_daemon
if [ "$(expvar_counter cache_entries)" -ne "$CELLS" ] || [ "$(expvar_counter cache_quarantined)" -ne 0 ]; then
    echo "service-smoke: restart loaded $(expvar_counter cache_entries) records, quarantined $(expvar_counter cache_quarantined); want $CELLS, 0" >&2
    exit 1
fi
"$tmp/cbwsctl" -server "$url" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json \
    -require-cached
view="$("$tmp/cbwsctl" -server "$url" submit -workload stencil-default -prefetcher pythia)"
case "$view" in
*"  stencil-default/pythia  done (cached)") ;;
*)
    echo "service-smoke: restarted daemon reports \"$view\", want stencil-default/pythia done (cached)" >&2
    exit 1
    ;;
esac
stop_daemon
echo "service-smoke: PASS (drained cleanly, $entries records reloaded after restart)"
