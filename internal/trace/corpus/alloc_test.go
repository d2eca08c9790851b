package corpus

import (
	"io"
	"testing"

	"cbws/internal/trace"
)

// countSink counts events without retaining the batch.
type countSink struct{ events uint64 }

func (c *countSink) ConsumeBatch(batch []trace.Event) bool {
	c.events += uint64(len(batch))
	return true
}

// TestReplayZeroAllocs pins the zero-allocation contract of the replay
// hot path: after NewReplayer, replaying a corpus must not allocate at
// all.
func TestReplayZeroAllocs(t *testing.T) {
	events := randomEvents(4*DefaultBlockEvents, 42)
	c, err := OpenBytes(packEvents(t, "alloc", events, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	r := c.NewReplayer()
	var s countSink
	if err := r.Replay(&s); err != nil { // warm any lazy state
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.Replay(&s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("replay allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeBlockZeroAllocs pins the innermost decode loop.
func TestDecodeBlockZeroAllocs(t *testing.T) {
	events := randomEvents(DefaultBlockEvents, 43)
	data := packEvents(t, "alloc", events, Options{})
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	e := &c.index[0]
	payload := c.data[e.offset : e.offset+uint64(e.storedLen)]
	r := c.NewReplayer()
	allocs := testing.AllocsPerRun(10, func() {
		if !r.decodeBlock(e, payload) {
			t.Fatal("decodeBlock failed")
		}
	})
	if allocs != 0 {
		t.Errorf("decodeBlock allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestWriterConsumeBatchZeroAllocs pins the pack hot path: once the
// column buffers, the block buffer and the index have grown, encoding a
// batch and writing the blocks it completes allocates nothing.
func TestWriterConsumeBatchZeroAllocs(t *testing.T) {
	const runs = 50
	// A batch spans block boundaries, so every run flushes blocks.
	batch := randomEvents(DefaultBlockEvents+DefaultBlockEvents/3, 44)
	w, err := NewWriter(io.Discard, "alloc", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*runs; i++ {
		if !w.ConsumeBatch(batch) {
			t.Fatal(w.Close())
		}
	}
	// The index grows once per doubling of the block count: keep the
	// capacity the warm-up runs grew, which the measured runs stay
	// within, and start the index over.
	w.index = w.index[:0]
	allocs := testing.AllocsPerRun(runs, func() {
		if !w.ConsumeBatch(batch) {
			t.Fatal(w.Close())
		}
	})
	if allocs != 0 {
		t.Errorf("ConsumeBatch allocates %.1f allocs/op, want 0", allocs)
	}
}
