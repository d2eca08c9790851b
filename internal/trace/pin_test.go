package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cbws/internal/trace"
	"cbws/internal/workload"
)

// TestCBWTBytesPinned pins the CBWT encoding byte for byte: the
// SHA-256 of a 200k-instruction capture of a loop kernel and of a
// pointer-chasing IR kernel, as tracegen writes them. Corpus content
// addresses and cbwsd stream keys absorb these bytes, so any change
// to the writer that moves them is a format change, not a refactor.
func TestCBWTBytesPinned(t *testing.T) {
	want := map[string]string{
		"stencil-default": "25a986a49d25c5acf28428f9badf16ab53114b6fc6a2a9873180e4c0328f4950",
		"ir-chase":        "e45140401fadc89995ce0cd32afa8716f74e203efa128d636901be8b27054ca2",
	}
	for _, spec := range append(workload.All(), workload.IRKernels()...) {
		pin, ok := want[spec.Name]
		if !ok {
			continue
		}
		delete(want, spec.Name)
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: 200_000}, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin {
			t.Errorf("%s: CBWT sha256 %s (%d bytes), pinned %s", spec.Name, got, buf.Len(), pin)
		}
	}
	for name := range want {
		t.Errorf("workload %s not found", name)
	}
}
