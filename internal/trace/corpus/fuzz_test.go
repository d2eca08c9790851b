// Fuzz targets for the CBWC corpus format. They live outside package
// corpus so they can seed from real workload generators via
// cbws/internal/workload without an import cycle.
package corpus_test

import (
	"bytes"
	"errors"
	"testing"

	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// encodeStreamPrefix captures the first maxEvents events of a workload
// as a CBWT stream, the interchange format both fuzz targets start
// from.
func encodeStreamPrefix(f *testing.F, name string, maxEvents uint64) []byte {
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

// packBytes encodes events into an in-memory CBWC corpus.
func packBytes(t *testing.T, name string, events []trace.Event, opts corpus.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := corpus.NewWriter(&buf, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !w.ConsumeBatch(events) {
		t.Fatal("corpus writer refused stream-decoded events")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("corpus encode failed: %v", err)
	}
	return buf.Bytes()
}

// replayAll decodes a whole in-memory corpus into a flat event slice.
func replayAll(t *testing.T, data []byte) (string, []trace.Event) {
	t.Helper()
	c, err := corpus.OpenBytes(data)
	if err != nil {
		t.Fatalf("packed corpus rejected: %v", err)
	}
	out := trace.New(c.Name())
	if err := c.NewReplayer().Replay(out); err != nil {
		t.Fatalf("packed corpus failed to replay: %v", err)
	}
	return c.Name(), out.Events
}

// sameEvent compares events up to the shared Instr normalization: both
// codecs encode Count() for Instr events, which maps a raw N of 0 to 1.
func sameEvent(a, b trace.Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == trace.Instr {
		return a.Count() == b.Count()
	}
	return a == b
}

// FuzzCorpusRoundTrip is the corpus-vs-stream differential target.
// Any byte string the CBWT stream decoder accepts defines an event
// stream; packing that stream into a CBWC corpus and replaying it must
// reproduce the stream bit-identically (modulo the Instr N=0→1
// normalization both codecs share), under both the default and a
// small-block configuration — and packing twice must
// produce byte-identical corpora, pinning the content-address
// determinism the cbwsd cache keys rely on.
func FuzzCorpusRoundTrip(f *testing.F) {
	for _, name := range []string{"stencil-default", "429.mcf-ref", "radix-simlarge"} {
		f.Add(encodeStreamPrefix(f, name, 4096))
	}
	// Hostile seeds: valid CBWT header with garbage, oversized-field,
	// and tiny bodies.
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x03, 0xFF, 0xFF, 0xFF))
	f.Add(append([]byte("CBWT\x01\x04fuzz"), 0x00, 0x01))
	f.Add([]byte("CBWT\x01\x04fuzz"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := trace.New(r.Name())
		if err := r.DecodeBatches(first); err != nil {
			return // stream rejected: nothing to pack
		}
		for _, opts := range []corpus.Options{
			{},
			{BlockEvents: 64},
		} {
			packed := packBytes(t, first.Name(), first.Events, opts)
			again := packBytes(t, first.Name(), first.Events, opts)
			if !bytes.Equal(packed, again) {
				t.Fatalf("pack is nondeterministic under %+v", opts)
			}
			name, events := replayAll(t, packed)
			if name != first.Name() {
				t.Fatalf("name diverged: %q != %q", name, first.Name())
			}
			if len(events) != len(first.Events) {
				t.Fatalf("event count diverged under %+v: %d != %d", opts, len(events), len(first.Events))
			}
			for i := range events {
				if !sameEvent(first.Events[i], events[i]) {
					t.Fatalf("event %d diverged under %+v: %+v != %+v", i, opts, first.Events[i], events[i])
				}
			}
		}
	})
}

// FuzzCorpusParse throws arbitrary bytes at the corpus reader: parsing
// plus a full replay must never panic, must fail with ErrBadCorpus (not
// some other error) when they fail, and whatever events a successful
// replay yields must respect the field bounds the decoder promises.
func FuzzCorpusParse(f *testing.F) {
	stream := encodeStreamPrefix(f, "stencil-default", 2048)
	r, err := trace.NewReader(bytes.NewReader(stream))
	if err != nil {
		f.Fatal(err)
	}
	tr := trace.New(r.Name())
	if err := r.DecodeBatches(tr); err != nil {
		f.Fatal(err)
	}
	var plain []byte
	for _, opts := range []corpus.Options{{}, {BlockEvents: 128}} {
		var buf bytes.Buffer
		w, werr := corpus.NewWriter(&buf, tr.Name(), opts)
		if werr != nil {
			f.Fatal(werr)
		}
		w.ConsumeBatch(tr.Events)
		if werr := w.Close(); werr != nil {
			f.Fatal(werr)
		}
		seed := buf.Bytes()
		if plain == nil {
			plain = seed
		}
		f.Add(seed)
		// A few deterministic corruptions so the fuzzer starts inside
		// interesting validation branches, not just at the magic check.
		for _, off := range []int{4, 8, len(seed) / 2, len(seed) - 20} {
			mut := bytes.Clone(seed)
			mut[off] ^= 0xFF
			f.Add(mut)
		}
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte("CBWC"))
	f.Add([]byte{})
	// Flag bit 0 set: the header of a corpus written by the removed
	// DEFLATE variant, which must now be ErrBadCorpus.
	flagged := bytes.Clone(plain)
	flagged[5] |= 1
	f.Add(flagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := corpus.OpenBytes(data)
		if err != nil {
			if !errors.Is(err, corpus.ErrBadCorpus) {
				t.Fatalf("parse failed with foreign error: %v", err)
			}
			return
		}
		out := trace.New(c.Name())
		if err := c.NewReplayer().Replay(out); err != nil {
			if !errors.Is(err, corpus.ErrBadCorpus) {
				t.Fatalf("replay failed with foreign error: %v", err)
			}
			return
		}
		if uint64(len(out.Events)) != c.Events() {
			t.Fatalf("replay yielded %d events, index promised %d", len(out.Events), c.Events())
		}
		for i, e := range out.Events {
			if e.N > trace.MaxInstrCount {
				t.Fatalf("event %d: replayed Instr count %d exceeds cap", i, e.N)
			}
			if e.Block < 0 || e.Block > trace.MaxBlockID {
				t.Fatalf("event %d: replayed block ID %d out of range", i, e.Block)
			}
		}
	})
}
