#!/usr/bin/env bash
# End-to-end smoke of the CBWC corpus pipeline:
#
#   1. pack two kernels at the golden manifest's 400k window with
#      tracegen pack, twice each — the repacked files must be
#      byte-identical (content-address determinism);
#   2. capture one kernel as a CBWT stream and convert it with
#      tracegen pack -i — the converted corpus must be byte-identical
#      to the directly packed one;
#   3. run the full figures golden matrix with -corpus-dir so the two
#      packed kernels replay from the corpus while the rest generate
#      live, and require the manifest to match golden/seed.json byte
#      for byte — corpus replay must be invisible to results.
#
# Run from the repository root: ./scripts/corpus_smoke.sh
set -euo pipefail

N=400000
WARM=100000
KERNELS="stencil-default fft-simlarge"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "corpus-smoke: building tracegen and figures"
go build -o "$tmp/tracegen" ./cmd/tracegen
go build -o "$tmp/figures" ./cmd/figures

mkdir -p "$tmp/corpus"
for wl in $KERNELS; do
    echo "corpus-smoke: packing $wl at $N instructions"
    "$tmp/tracegen" pack -workload "$wl" -n "$N" -o "$tmp/corpus/$wl.cbwc" \
        | tee "$tmp/pack-$wl.out"
    "$tmp/tracegen" pack -workload "$wl" -n "$N" -o "$tmp/repack-$wl.cbwc" >/dev/null
    cmp "$tmp/corpus/$wl.cbwc" "$tmp/repack-$wl.cbwc" || {
        echo "corpus-smoke: repacking $wl produced different bytes" >&2
        exit 1
    }
    "$tmp/tracegen" info "$tmp/corpus/$wl.cbwc" >/dev/null
done

echo "corpus-smoke: CBWT -> CBWC conversion must reproduce the direct pack"
"$tmp/tracegen" -workload stencil-default -n "$N" -o "$tmp/stencil.cbwt" >/dev/null
"$tmp/tracegen" pack -i "$tmp/stencil.cbwt" -o "$tmp/converted.cbwc" >/dev/null
cmp "$tmp/corpus/stencil-default.cbwc" "$tmp/converted.cbwc" || {
    echo "corpus-smoke: CBWT conversion produced different bytes than direct pack" >&2
    exit 1
}

echo "corpus-smoke: golden matrix with corpus replay"
"$tmp/figures" -n "$N" -warmup "$WARM" -corpus-dir "$tmp/corpus" \
    -golden "$tmp/golden-corpus.json"
cmp "$tmp/golden-corpus.json" golden/seed.json || {
    echo "corpus-smoke: corpus replay diverged from golden/seed.json" >&2
    exit 1
}

echo "corpus-smoke: PASS (pack deterministic, convert byte-identical, golden matched under corpus replay)"
