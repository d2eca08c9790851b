package trace

import (
	"bytes"
	"testing"

	"cbws/internal/mem"
)

// FuzzDecode feeds arbitrary bytes to the trace reader: it must never
// panic, and every successfully decoded stream must contain only valid
// event kinds.
func FuzzDecode(f *testing.F) {
	// Seed with a valid trace.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "seed")
	if err != nil {
		f.Fatal(err)
	}
	w.ConsumeBatch([]Event{
		{Kind: BlockBegin, Block: 1},
		{Kind: Load, PC: 0x400000, Addr: 0x12345},
		{Kind: Branch, PC: 0x400004, Taken: true},
		{Kind: Instr, N: 9},
		{Kind: BlockEnd, Block: 1},
	})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("CBWT\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		_ = r.DecodeBatches(batchSinkFunc(func(batch []Event) bool {
			for _, e := range batch {
				if e.Kind > Branch {
					t.Fatalf("decoded invalid kind %d", e.Kind)
				}
			}
			n += len(batch)
			if n > 1<<20 {
				t.Fatal("unbounded decode")
			}
			return true
		}))
	})
}

// FuzzRoundTrip encodes fuzz-shaped events and verifies decode
// reproduces them exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x400000), uint64(0x1000), 5, true)
	f.Fuzz(func(t *testing.T, pc, addr uint64, n int, taken bool) {
		events := []Event{
			{Kind: Load, PC: pc, Addr: mem.Addr(addr)},
			{Kind: Branch, PC: pc ^ 0x40, Taken: taken},
			{Kind: Store, PC: pc + 4, Addr: mem.Addr(addr ^ 0xFFF)},
		}
		if n > 0 {
			events = append(events, Event{Kind: Instr, N: n})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		w.ConsumeBatch(events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got Trace
		if err := r.DecodeBatches(&got); err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(events) {
			t.Fatalf("decoded %d of %d", len(got.Events), len(events))
		}
		for i, e := range got.Events {
			if e != events[i] {
				t.Fatalf("event %d: got %+v want %+v", i, e, events[i])
			}
		}
	})
}
