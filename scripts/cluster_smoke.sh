#!/usr/bin/env bash
# End-to-end smoke of a sharded cbwsd cluster with the federated result
# cache, driven by the ring-aware cbwsctl and the cbwsload harness:
#
#   1. boot 3 peered cbwsd workers on distinct ports (every worker gets
#      the same full -peers list and filters itself out);
#   2. sweep the golden sub-matrix through the fleet and require every
#      served cell hash to match golden/seed.json — a sharded cluster
#      must be byte-identical to the single-daemon seed;
#   3. replay the sweep with -require-cached: ring routing is stable,
#      so every cell is a cache hit on its owner;
#   4. sweep against ONE worker only: cells owned by its siblings must
#      arrive via peer-fetch (peer_fetch_hits moves) without a single
#      new simulation anywhere in the fleet;
#   5. replay a hot-key cbwsload mix against the warm fleet: the report
#      must show a 100% cache-hit ratio and the fleet-wide
#      jobs_simulated counter must not move;
#   6. SIGKILL one worker and repeat the golden sweep with the dead
#      worker still listed: the client must fail over and finish;
#   7. SIGTERM the survivors and require clean drains;
#   8. restart the SIGKILLed worker alone over its cache directory: it
#      must load every record it computed or peer-fetched, none
#      quarantined.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
set -euo pipefail

WORKLOADS="stencil-default,fft-simlarge"
PREFETCHERS="none,cbws"
CELLS=4
NWORKERS=3

tmp="$(mktemp -d)"
declare -a pids=() urls=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "cluster-smoke: building cbwsd, cbwsctl, cbwsload"
go build -o "$tmp/cbwsd" ./cmd/cbwsd
go build -o "$tmp/cbwsctl" ./cmd/cbwsctl
go build -o "$tmp/cbwsload" ./cmd/cbwsload

# Peer lists must be complete before any worker starts, so ports are
# picked up front (probing for free ones) instead of using -addr :0.
pick_ports() {
    local picked=()
    while [ "${#picked[@]}" -lt "$NWORKERS" ]; do
        local p=$(( (RANDOM % 20000) + 20000 ))
        local dup=0
        for q in "${picked[@]:-}"; do [ "$q" = "$p" ] && dup=1; done
        [ "$dup" = 1 ] && continue
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            picked+=("$p")
        else
            exec 3>&- 3<&- || true
        fi
    done
    echo "${picked[@]}"
}
read -r -a ports <<<"$(pick_ports)"

peer_list=""
for p in "${ports[@]}"; do
    peer_list="${peer_list:+$peer_list,}http://127.0.0.1:$p"
done

for i in $(seq 0 $((NWORKERS - 1))); do
    port="${ports[$i]}"
    mkdir -p "$tmp/cache$i"
    "$tmp/cbwsd" -addr "127.0.0.1:$port" -addr-file "$tmp/addr$i" \
        -cache-dir "$tmp/cache$i" -peers "$peer_list" \
        -n 400000 -warmup 100000 2>"$tmp/cbwsd$i.log" &
    pids[$i]=$!
    urls[$i]="http://127.0.0.1:$port"
done

for i in $(seq 0 $((NWORKERS - 1))); do
    for _ in $(seq 1 100); do
        [ -s "$tmp/addr$i" ] && break
        if ! kill -0 "${pids[$i]}" 2>/dev/null; then
            echo "cluster-smoke: worker $i died on startup:" >&2
            cat "$tmp/cbwsd$i.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [ -s "$tmp/addr$i" ] || { echo "cluster-smoke: worker $i never came up" >&2; exit 1; }
    grep -q "peering with $((NWORKERS - 1)) sibling" "$tmp/cbwsd$i.log" || {
        echo "cluster-smoke: worker $i did not filter itself from the peer list:" >&2
        cat "$tmp/cbwsd$i.log" >&2
        exit 1
    }
done
fleet="$(IFS=,; echo "${urls[*]}")"
echo "cluster-smoke: $NWORKERS workers up: $fleet"

# expvar_counter URL NAME prints one worker's cbwsd.NAME value.
expvar_counter() {
    curl -sf "$1/debug/vars" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2
}
# fleet_counter NAME sums a counter across all live workers.
fleet_counter() {
    local sum=0 v
    for u in "${urls[@]}"; do
        v="$(expvar_counter "$u" "$1" || echo 0)"
        sum=$((sum + ${v:-0}))
    done
    echo "$sum"
}

echo "cluster-smoke: sharded sweep $WORKLOADS x $PREFETCHERS against golden/seed.json"
"$tmp/cbwsctl" -server "$fleet" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json

echo "cluster-smoke: replay must be 100% cache hits (stable ring routing)"
"$tmp/cbwsctl" -server "$fleet" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json \
    -require-cached

echo "cluster-smoke: single-worker sweep must peer-fetch, not simulate"
phits_before="$(expvar_counter "${urls[0]}" peer_fetch_hits)"
sim_before="$(fleet_counter jobs_simulated)"
"$tmp/cbwsctl" -server "${urls[0]}" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json
phits_after="$(expvar_counter "${urls[0]}" peer_fetch_hits)"
sim_after="$(fleet_counter jobs_simulated)"
if [ "$phits_after" -le "$phits_before" ]; then
    echo "cluster-smoke: peer_fetch_hits never moved ($phits_before -> $phits_after)" >&2
    exit 1
fi
if [ "$sim_after" -ne "$sim_before" ]; then
    echo "cluster-smoke: single-worker sweep simulated $((sim_after - sim_before)) jobs, want 0 (federated cache)" >&2
    exit 1
fi
echo "cluster-smoke: worker 0 peer-fetched $((phits_after - phits_before)) cells, fleet simulated 0"

echo "cluster-smoke: hot-key cbwsload replay against the warm fleet"
sim_before="$(fleet_counter jobs_simulated)"
"$tmp/cbwsload" -servers "$fleet" \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" \
    -requests 60 -concurrency 6 -hot-frac 1 -hot-set "$CELLS" -seed 7 \
    -report "$tmp/load.json" 2>"$tmp/cbwsload.log"
grep -q '"cache_hit_ratio": 1' "$tmp/load.json" || {
    echo "cluster-smoke: hot replay was not 100% cache hits:" >&2
    cat "$tmp/load.json" >&2
    exit 1
}
grep -q '"retries_429"' "$tmp/load.json" || {
    echo "cluster-smoke: load report is missing retry counts" >&2
    exit 1
}
sim_after="$(fleet_counter jobs_simulated)"
if [ "$sim_after" -ne "$sim_before" ]; then
    echo "cluster-smoke: hot replay simulated $((sim_after - sim_before)) jobs, want 0" >&2
    exit 1
fi
echo "cluster-smoke: 60 hot submissions, 0 simulations, ratio 1.0"

# Worker 1 peer-fetches every cell it does not own, so its cache holds
# the whole sub-matrix when it is killed (checked on restart below).
"$tmp/cbwsctl" -server "${urls[1]}" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json >/dev/null

echo "cluster-smoke: SIGKILL worker 1, sweep must fail over and stay golden"
kill -9 "${pids[1]}"
wait "${pids[1]}" 2>/dev/null || true
pids[1]=""
urls=("${urls[0]}" "${urls[2]}")
"$tmp/cbwsctl" -server "$fleet" sweep \
    -workloads "$WORKLOADS" -prefetchers "$PREFETCHERS" -golden golden/seed.json \
    2>"$tmp/failover.log" || {
    echo "cluster-smoke: sweep with a dead worker failed:" >&2
    cat "$tmp/failover.log" >&2
    exit 1
}

echo "cluster-smoke: SIGTERM survivors, expecting clean drains"
for i in 0 2; do
    kill -TERM "${pids[$i]}"
    status=0
    wait "${pids[$i]}" || status=$?
    pids[$i]=""
    if [ "$status" -ne 0 ]; then
        echo "cluster-smoke: worker $i exited $status after SIGTERM, want 0:" >&2
        cat "$tmp/cbwsd$i.log" >&2
        exit 1
    fi
    ls "$tmp/cache$i" | grep -q '\.json$' || {
        echo "cluster-smoke: worker $i left no result records" >&2
        exit 1
    }
done

echo "cluster-smoke: restart the SIGKILLed worker: every record loads, none quarantined"
records="$(ls "$tmp/cache1" | grep -c '\.json$' || true)"
rm -f "$tmp/addr1"
"$tmp/cbwsd" -addr 127.0.0.1:0 -addr-file "$tmp/addr1" -cache-dir "$tmp/cache1" \
    -n 400000 -warmup 100000 2>"$tmp/cbwsd1-restart.log" &
pids[1]=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/addr1" ] && break
    sleep 0.1
done
[ -s "$tmp/addr1" ] || { echo "cluster-smoke: restarted worker 1 never came up" >&2; exit 1; }
url1="http://$(cat "$tmp/addr1")"
if [ "$records" -ne "$CELLS" ] || [ "$(expvar_counter "$url1" cache_entries)" -ne "$records" ] ||
    [ "$(expvar_counter "$url1" cache_quarantined)" -ne 0 ]; then
    echo "cluster-smoke: restarted worker 1 loaded $(expvar_counter "$url1" cache_entries) of $records records, quarantined $(expvar_counter "$url1" cache_quarantined)" >&2
    exit 1
fi
kill -TERM "${pids[1]}"
wait "${pids[1]}" || { echo "cluster-smoke: restarted worker 1 did not drain cleanly" >&2; exit 1; }
pids[1]=""
echo "cluster-smoke: PASS (sharded sweep golden, federated cache, failover, clean drains, crash reload)"
