// Package trace_test holds the fuzz targets that need real workload
// generators as seed corpus; they live outside package trace so they
// can import cbws/internal/workload without a cycle.
package trace_test

import (
	"bytes"
	"testing"

	"cbws/internal/trace"
	"cbws/internal/workload"
)

// encodePrefix captures the first maxEvents events of a workload as an
// encoded trace file.
func encodePrefix(f *testing.F, name string, maxEvents uint64) []byte {
	f.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		f.Fatalf("workload %q missing", name)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, spec.Name)
	if err != nil {
		f.Fatal(err)
	}
	trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: maxEvents}, w)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// sameEvent compares two events up to the encoder's Instr
// normalization: the Writer encodes Count() (which maps N=0 to 1), so a
// decode→encode→decode cycle preserves the instruction count but not a
// raw N of zero.
func sameEvent(a, b trace.Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == trace.Instr {
		return a.Count() == b.Count()
	}
	return a == b
}

// FuzzTraceRoundTrip checks decode→encode→decode idempotence on
// arbitrary bytes, seeded with encoded prefixes of the real workload
// generators: whatever event stream the reader accepts, re-encoding it
// must reproduce the same stream (and trace name) exactly.
func FuzzTraceRoundTrip(f *testing.F) {
	for _, name := range []string{"stencil-default", "429.mcf-ref", "radix-simlarge"} {
		f.Add(encodePrefix(f, name, 4096))
	}
	// A hostile seed too: valid header, garbage body.
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x03, 0xFF, 0xFF, 0xFF))
	// Field-bound regressions: a 2^63-ish Instr count, a block ID past
	// the cap, and a branch outcome byte that is neither 0 nor 1. All
	// three must be rejected (the decoder bounds every uvarint field),
	// and the fuzz property below asserts the bounds hold whenever a
	// decode does succeed.
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0xFF))
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF))
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x05, 0x00, 0x02, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return // header rejected: nothing to round-trip
		}
		first := trace.New(r.Name())
		if err := r.DecodeBatches(first); err != nil {
			return // body rejected: partial decodes are not re-encodable
		}
		// Everything the decoder accepts must respect the field bounds;
		// anything past them has to surface as ErrBadTrace, never as an
		// oversized event.
		for i, e := range first.Events {
			if e.N > trace.MaxInstrCount {
				t.Fatalf("event %d: decoded Instr count %d exceeds cap", i, e.N)
			}
			if e.Block < 0 || e.Block > trace.MaxBlockID {
				t.Fatalf("event %d: decoded block ID %d out of range", i, e.Block)
			}
		}

		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, first.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !w.ConsumeBatch(first.Events) {
			t.Fatal("re-encode refused decoded events")
		}
		if err := w.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}

		r2, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if r2.Name() != first.Name() {
			t.Fatalf("name diverged: %q != %q", r2.Name(), first.Name())
		}
		second := trace.New(r2.Name())
		if err := r2.DecodeBatches(second); err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(second.Events) != len(first.Events) {
			t.Fatalf("event count diverged: %d != %d", len(second.Events), len(first.Events))
		}
		for i := range first.Events {
			if !sameEvent(first.Events[i], second.Events[i]) {
				t.Fatalf("event %d diverged: %+v != %+v", i, first.Events[i], second.Events[i])
			}
		}
	})
}
