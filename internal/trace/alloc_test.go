package trace

import (
	"io"
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
