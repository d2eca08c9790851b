package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"cbws/internal/mem"
)

// The batched pipeline's selling point is that delivering an event
// costs a buffer store, not an allocation: the Batcher owns one fixed
// buffer and the limiter forwards batches in place. Guard that with an
// allocation regression test — a slip here multiplies into millions of
// allocations per simulation.

type countBatchSink struct{ events uint64 }

func (c *countBatchSink) ConsumeBatch(batch []Event) bool {
	c.events += uint64(len(batch))
	return true
}

func TestBatcherSteadyStateAllocationFree(t *testing.T) {
	var cs countBatchSink
	b := NewBatcher(&cs)
	ev := Event{Kind: Load, PC: 0x40, Addr: 1 << 20}
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4*batchSize; i++ {
			b.Event(ev)
		}
		b.Flush()
	}); avg != 0 {
		t.Errorf("batcher delivery allocates %.1f objects per run, want 0", avg)
	}
}

func TestLimiterDeliveryAllocationFree(t *testing.T) {
	var cs countBatchSink
	lm := &limiter{max: 1 << 50, down: &cs}
	batch := make([]Event, batchSize)
	for i := range batch {
		batch[i] = Event{Kind: Instr, N: 3}
	}
	if avg := testing.AllocsPerRun(100, func() {
		lm.ConsumeBatch(batch)
	}); avg != 0 {
		t.Errorf("limiter forwarding allocates %.1f objects per run, want 0", avg)
	}
}

// TestWriterSteadyStateAllocationFree pins the CBWT writer's encoding
// scratch: once NewWriter has sized it, encoding a batch of every kind
// (and a batch larger than one encoding window) allocates nothing.
func TestWriterSteadyStateAllocationFree(t *testing.T) {
	w, err := NewWriter(io.Discard, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Event, 3*encodeWindow+5)
	for i := range batch {
		switch i % 6 {
		case 0:
			batch[i] = Event{Kind: Instr, N: i}
		case 1, 2:
			batch[i] = Event{Kind: Load + Kind(i%2), PC: uint64(0x400000 + i%7*4), Addr: mem.Addr(i * 1000003)}
		case 3, 4:
			batch[i] = Event{Kind: BlockBegin + Kind(i%2), Block: i % 5}
		default:
			batch[i] = Event{Kind: Branch, PC: uint64(0x500000 - i), Taken: i%4 == 1}
		}
	}
	w.ConsumeBatch(batch)
	if avg := testing.AllocsPerRun(100, func() {
		if !w.ConsumeBatch(batch) {
			t.Fatal("writer failed")
		}
	}); avg != 0 {
		t.Errorf("writer batch allocates %.1f objects per run, want 0", avg)
	}
}

// TestAnalyzeWarmBlockAllocationFree pins the analyzer's steady state:
// once a block's lines, PCs and strides have been seen, re-running the
// block (with more distinct lines than the ">16" bucket tracks)
// allocates nothing.
func TestAnalyzeWarmBlockAllocationFree(t *testing.T) {
	a := newAnalyzer("alloc")
	var block []Event
	block = append(block, Event{Kind: BlockBegin, Block: 3})
	for j := 0; j < 24; j++ {
		block = append(block,
			Event{Kind: Load, PC: 0x40, Addr: mem.Addr(j * 64)},
			Event{Kind: Store, PC: 0x80, Addr: mem.Addr(j*64 + 8)},
			Event{Kind: Instr, N: 3})
	}
	block = append(block, Event{Kind: Branch, PC: 0x90, Taken: true}, Event{Kind: BlockEnd, Block: 3})
	a.ConsumeBatch(block)
	a.ConsumeBatch(block) // the wrap-around stride from the last line to the first
	if avg := testing.AllocsPerRun(100, func() { a.ConsumeBatch(block) }); avg != 0 {
		t.Errorf("warm block allocates %.1f objects per run, want 0", avg)
	}
}

// TestChunkDecoderWindowAllocsFree pins the ingest path at the window
// size cbwsd clients post: after the header, feeding a stream of
// multi-byte deltas in 64 KiB windows, which split events anywhere,
// allocates nothing per window.
func TestChunkDecoderWindowAllocsFree(t *testing.T) {
	const window = 64 << 10
	rng := rand.New(rand.NewSource(5))
	events := make([]Event, 100_000)
	for i := range events {
		switch rng.Intn(4) {
		case 0:
			events[i] = Event{Kind: Instr, N: rng.Intn(1 << 12)}
		case 1:
			events[i] = Event{Kind: Branch, PC: uint64(rng.Intn(1 << 20)), Taken: rng.Intn(2) == 0}
		default:
			events[i] = Event{Kind: Load, PC: uint64(rng.Intn(1 << 20)), Addr: mem.Addr(rng.Int63n(1 << 40))}
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "windows")
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch(events)
	// No terminator: every run feeds the same body, which ends on an
	// event boundary, so the decoder stays in its event phase.
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	head := encodeHeader("windows")
	body := buf.Bytes()[len(head):]
	if len(body) < 4*window {
		t.Fatalf("body is %d bytes, want at least four windows", len(body))
	}
	var d ChunkDecoder
	var cs countBatchSink
	if err := d.Feed(head, &cs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for off := 0; off < len(body); off += window {
			if err := d.Feed(body[off:min(off+window, len(body))], &cs); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("feeding the body's %d windows allocates %v per run, want 0", (len(body)+window-1)/window, allocs)
	}
	// AllocsPerRun makes one warm-up run before the 20 it counts.
	if want := uint64(21 * len(events)); cs.events != want {
		t.Errorf("decoded %d events, want %d", cs.events, want)
	}
}
