#!/usr/bin/env bash
# End-to-end smoke of the cbwsd streaming simulation mode:
#
#   1. start one cbwsd on an ephemeral port with a per-tenant quota of
#      one concurrent stream;
#   2. admission control: tenant-a's second concurrent open must be
#      rejected 429 with a Retry-After header, while tenant-b — a
#      different quota account on the same daemon — opens fine at the
#      same moment;
#   3. byte-identity: stream a tracegen-captured stencil-default trace
#      through cbwsctl at the daemon's full instruction budget; the
#      finalized record must land under the closed-job content address,
#      so the equivalent closed submit afterwards is a pure cache hit
#      (zero new misses) serving byte-identical result bytes;
#   4. SIGTERM drain with open streams: a fully-received but unclosed
#      stream is finalized into a persisted cache record, a half-fed
#      stream is canceled, and the daemon still exits 0;
#   5. a daemon restarted over the same cache loads every record, the
#      full-budget and the short stream's alike, with none quarantined,
#      and serves the closed job cached under its own names.
#
# Run from the repository root: ./scripts/streaming_smoke.sh
set -euo pipefail

N=400000
WARMUP=100000

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "streaming-smoke: building cbwsd, cbwsctl, tracegen"
go build -o "$tmp/cbwsd" ./cmd/cbwsd
go build -o "$tmp/cbwsctl" ./cmd/cbwsctl
go build -o "$tmp/tracegen" ./cmd/tracegen

echo "streaming-smoke: capturing stencil-default traces"
"$tmp/tracegen" -workload stencil-default -n "$N" -o "$tmp/full.cbwt" >/dev/null
"$tmp/tracegen" -workload stencil-default -n 100000 -o "$tmp/short.cbwt" >/dev/null

mkdir -p "$tmp/cache"
# start_daemon launches cbwsd over $tmp/cache and sets daemon_pid and url.
start_daemon() {
    rm -f "$tmp/addr"
    "$tmp/cbwsd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -cache-dir "$tmp/cache" \
        -n "$N" -warmup "$WARMUP" -tenant-streams 1 2>"$tmp/cbwsd.log" &
    daemon_pid=$!

    for _ in $(seq 1 100); do
        [ -s "$tmp/addr" ] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "streaming-smoke: cbwsd died on startup:" >&2
            cat "$tmp/cbwsd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [ -s "$tmp/addr" ] || { echo "streaming-smoke: cbwsd never published its address" >&2; exit 1; }
    url="http://$(cat "$tmp/addr")"
    echo "streaming-smoke: cbwsd on $url"
}
start_daemon

# expvar_counter NAME prints the daemon's current cbwsd.NAME value.
expvar_counter() {
    curl -sf "$url/debug/vars" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

# open_stream TENANT: POST an open request, print "HTTPCODE ID RETRYAFTER".
open_stream() {
    local out code body id retry
    out="$tmp/open-resp"
    code="$(curl -s -o "$out" -D "$tmp/open-hdr" -w '%{http_code}' \
        -H 'Content-Type: application/json' \
        -d "{\"tenant\":\"$1\",\"workload\":\"stencil-default\",\"prefetcher\":\"cbws\"}" \
        "$url/v1/streams")"
    id="$(grep -o '"id": *"[^"]*"' "$out" | head -1 | sed 's/.*"\([^"]*\)"$/\1/' || true)"
    retry="$(grep -i '^retry-after:' "$tmp/open-hdr" | tr -dc '0-9' || true)"
    echo "$code ${id:-none} ${retry:-none}"
}

echo "streaming-smoke: tenant quota: second concurrent open must be 429 + Retry-After"
read -r code_a1 id_a1 _ <<<"$(open_stream tenant-a)"
if [ "$code_a1" != "201" ]; then
    echo "streaming-smoke: tenant-a first open got $code_a1, want 201" >&2
    exit 1
fi
read -r code_a2 _ retry_a2 <<<"$(open_stream tenant-a)"
if [ "$code_a2" != "429" ] || [ "$retry_a2" = "none" ]; then
    echo "streaming-smoke: tenant-a over-quota open got $code_a2 (Retry-After: $retry_a2), want 429 with Retry-After" >&2
    exit 1
fi
read -r code_b1 id_b1 _ <<<"$(open_stream tenant-b)"
if [ "$code_b1" != "201" ]; then
    echo "streaming-smoke: tenant-b open got $code_b1 while tenant-a was over quota, want 201" >&2
    exit 1
fi
rejected="$(expvar_counter streams_rejected_429)"
if [ "$rejected" -lt 1 ]; then
    echo "streaming-smoke: streams_rejected_429 is $rejected, want >= 1" >&2
    exit 1
fi
curl -sf -X DELETE "$url/v1/streams/$id_a1" >/dev/null
curl -sf -X DELETE "$url/v1/streams/$id_b1" >/dev/null
echo "streaming-smoke: quota rejection OK (tenant-b unaffected)"

echo "streaming-smoke: streaming $N-instruction trace, expecting closed-job key adoption"
misses_before="$(expvar_counter cache_misses)"
"$tmp/cbwsctl" -server "$url" stream -tenant tenant-a \
    -workload stencil-default -prefetcher cbws \
    -n "$N" -warmup "$WARMUP" -f "$tmp/full.cbwt" >"$tmp/stream.out"
stream_key="$(awk '{print $1}' "$tmp/stream.out")"
[ -n "$stream_key" ] || { echo "streaming-smoke: no stream result key in: $(cat "$tmp/stream.out")" >&2; exit 1; }
"$tmp/cbwsctl" -server "$url" result -o "$tmp/stream-record.json" "$stream_key"

echo "streaming-smoke: equivalent closed job must be served from cache"
"$tmp/cbwsctl" -server "$url" submit -workload stencil-default -prefetcher cbws -wait \
    >"$tmp/submit.out"
submit_key="$(awk '{print $1}' "$tmp/submit.out")"
misses_after="$(expvar_counter cache_misses)"
if [ "$submit_key" != "$stream_key" ]; then
    echo "streaming-smoke: closed-job key $submit_key != stream key $stream_key" >&2
    exit 1
fi
if [ "$misses_after" -ne "$misses_before" ]; then
    echo "streaming-smoke: closed job after stream caused $((misses_after - misses_before)) cache misses, want 0" >&2
    exit 1
fi
"$tmp/cbwsctl" -server "$url" result -o "$tmp/submit-record.json" "$submit_key"
cmp "$tmp/stream-record.json" "$tmp/submit-record.json"
echo "streaming-smoke: stream and closed-job results byte-identical under $stream_key"

# send_chunks ID DIR: POST every chunk file in DIR in order, honoring
# 429/413 backpressure the way the Go client does.
send_chunks() {
    local id="$1" dir="$2" piece code
    for piece in "$dir"/*; do
        for _ in $(seq 1 100); do
            code="$(curl -s -o /dev/null -w '%{http_code}' \
                --data-binary "@$piece" \
                -H 'Content-Type: application/octet-stream' \
                "$url/v1/streams/$id/chunks")"
            case "$code" in
            200) break ;;
            429 | 413) sleep 0.1 ;;
            *)
                echo "streaming-smoke: chunk POST got $code" >&2
                return 1
                ;;
            esac
        done
        [ "$code" = "200" ] || { echo "streaming-smoke: chunk never accepted" >&2; return 1; }
    done
}

echo "streaming-smoke: SIGTERM drain must finalize a complete stream and cancel a half-fed one"
# Stream 1: the whole short trace (terminator included, under the
# daemon's instruction budget) but never closed — drain must finalize
# it into a cache record.
read -r code id_fin _ <<<"$(open_stream tenant-a)"
[ "$code" = "201" ] || { echo "streaming-smoke: finalize-stream open got $code" >&2; exit 1; }
mkdir -p "$tmp/pieces-full"
split -b 49152 "$tmp/short.cbwt" "$tmp/pieces-full/p"
send_chunks "$id_fin" "$tmp/pieces-full"
# Stream 2: only the first piece (mid-trace, no terminator) — drain
# must cancel it.
read -r code id_cancel _ <<<"$(open_stream tenant-b)"
[ "$code" = "201" ] || { echo "streaming-smoke: cancel-stream open got $code" >&2; exit 1; }
mkdir -p "$tmp/pieces-half"
cp "$(ls "$tmp/pieces-full"/* | head -1)" "$tmp/pieces-half/p"
send_chunks "$id_cancel" "$tmp/pieces-half"

records_before="$(ls "$tmp/cache" | grep -c '\.json$' || true)"
kill -TERM "$daemon_pid"
drain_status=0
wait "$daemon_pid" || drain_status=$?
daemon_pid=""
if [ "$drain_status" -ne 0 ]; then
    echo "streaming-smoke: cbwsd exited $drain_status after SIGTERM, want 0:" >&2
    cat "$tmp/cbwsd.log" >&2
    exit 1
fi
records_after="$(ls "$tmp/cache" | grep -c '\.json$' || true)"
# The delta is drain-finalized streams only: exactly one (the complete
# stream; the half-fed one must not leave a record).
if [ "$((records_after - records_before))" -ne 1 ]; then
    echo "streaming-smoke: drain persisted $((records_after - records_before)) new records, want exactly 1" >&2
    ls "$tmp/cache" >&2
    exit 1
fi

echo "streaming-smoke: restart over the same cache must load every record"
start_daemon
if [ "$(expvar_counter cache_entries)" -ne "$records_after" ] || [ "$(expvar_counter cache_quarantined)" -ne 0 ]; then
    echo "streaming-smoke: restart loaded $(expvar_counter cache_entries) records, quarantined $(expvar_counter cache_quarantined); want $records_after, 0" >&2
    exit 1
fi
view="$("$tmp/cbwsctl" -server "$url" submit -workload stencil-default -prefetcher cbws)"
case "$view" in
"$stream_key  stencil-default/cbws  done (cached)") ;;
*)
    echo "streaming-smoke: restarted daemon reports \"$view\", want $stream_key stencil-default/cbws done (cached)" >&2
    exit 1
    ;;
esac
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "streaming-smoke: restarted cbwsd did not drain cleanly" >&2; exit 1; }
daemon_pid=""
echo "streaming-smoke: PASS (quota 429, byte-identical stream result, finalize-or-cancel drain, records reload)"
