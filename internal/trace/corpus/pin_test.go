package corpus_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// TestCBWCBytesPinned pins the CBWC encoding byte for byte: the
// SHA-256 of a 1M-instruction pack of a loop kernel, a pointer-chasing
// IR kernel and 429.mcf. The corpus content address is this hash, and
// cbwsd folds it into the key of every job over the corpus, so any
// change to the writer that moves it is a format change, not a
// refactor.
func TestCBWCBytesPinned(t *testing.T) {
	want := map[string]string{
		"stencil-default": "b8c2535dfcf272c2db81c2d52b61261d2266838e1127ede07261a550a0ed71b6",
		"ir-chase":        "2362b962c8e7e57ea5b401d7669bd012ee909eccd14015a866391c42f2bfa26a",
		"429.mcf-ref":     "99e60f4d3516c2e16b707d551a5dcd0bbe6fed7d0a7f7007d60ee8c5767659fc",
	}
	for _, spec := range append(workload.All(), workload.IRKernels()...) {
		pin, ok := want[spec.Name]
		if !ok {
			continue
		}
		delete(want, spec.Name)
		var buf bytes.Buffer
		w, err := corpus.NewWriter(&buf, spec.Name, corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: 1_000_000}, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if got != w.Sum() {
			t.Errorf("%s: Sum %s differs from the sha256 of the bytes written, %s", spec.Name, w.Sum(), got)
		}
		if got != pin {
			t.Errorf("%s: CBWC sha256 %s (%d bytes), pinned %s", spec.Name, got, buf.Len(), pin)
		}
	}
	for name := range want {
		t.Errorf("workload %s not found", name)
	}
}
