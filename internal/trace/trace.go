// Package trace defines the committed-instruction event stream that the
// timing model consumes and that workloads (or the IR interpreter)
// produce.
//
// The stream corresponds to the in-order commit stage of the simulated
// core: the CBWS prefetcher, like the paper's hardware, observes memory
// accesses in program order together with the BLOCK_BEGIN / BLOCK_END
// marker instructions inserted by the annotation pass.
package trace

import (
	"fmt"

	"cbws/internal/mem"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// Instr is a batch of non-memory instructions (ALU, branch, ...).
	// N carries the batch size.
	Instr Kind = iota
	// Load is a memory read by the instruction at PC from Addr.
	Load
	// Store is a memory write by the instruction at PC to Addr.
	Store
	// BlockBegin marks the start of an annotated code block (a tight
	// loop iteration). Block carries the static block ID.
	BlockBegin
	// BlockEnd marks the end of an annotated code block.
	BlockEnd
	// Branch is a conditional branch at PC whose outcome is Taken. The
	// engine consults the branch predictor and charges a refill
	// penalty on mispredictions.
	Branch
)

func (k Kind) String() string {
	switch k {
	case Instr:
		return "instr"
	case Load:
		return "load"
	case Store:
		return "store"
	case BlockBegin:
		return "block_begin"
	case BlockEnd:
		return "block_end"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field bounds shared by every trace codec (the CBWT stream and the
// CBWC corpus format). The caps fit comfortably in an int32, so decoded
// events are well-formed on 32-bit builds too; a decoder finding a
// field beyond its cap rejects the input as malformed instead of
// truncating it into a garbage event.
const (
	// MaxInstrCount bounds Instr.N, the dynamic instruction count a
	// single batch event may carry.
	MaxInstrCount = 1 << 30
	// MaxBlockID bounds the static block ID of BlockBegin/BlockEnd
	// events.
	MaxBlockID = 1 << 30
	// MaxNameLen bounds the trace name a file header carries, in
	// bytes. Writers refuse a longer name, and readers reject a header
	// that claims one.
	MaxNameLen = 1 << 16
)

// Event is one element of the committed instruction stream.
type Event struct {
	Kind  Kind
	PC    uint64   // static instruction address (Load/Store/Branch)
	Addr  mem.Addr // effective byte address (Load/Store)
	Block int      // static block ID (BlockBegin/BlockEnd)
	N     int      // batch size (Instr); 0 means 1
	Taken bool     // branch outcome (Branch)
}

// Count returns the number of dynamic instructions the event represents:
// N (at least 1) for an Instr event and 1 for any other, whatever its N.
// Batch scans (the limiter, the simulator's boundary split, the
// analyzer) call it on every event, so it reads the event through a
// pointer (a value receiver copies each 48-byte event first) and
// compiles to two conditional moves instead of branches on the kind.
//
//cbws:hotpath
func (e *Event) Count() int {
	n := e.N
	if e.Kind != Instr {
		n = 0
	}
	return max(n, 1)
}

// IsMem reports whether the event is a memory access.
func (e Event) IsMem() bool { return e.Kind == Load || e.Kind == Store }

func (e Event) String() string {
	switch e.Kind {
	case Instr:
		return fmt.Sprintf("instr x%d", e.Count())
	case Load:
		return fmt.Sprintf("load pc=%#x addr=%#x", e.PC, uint64(e.Addr))
	case Store:
		return fmt.Sprintf("store pc=%#x addr=%#x", e.PC, uint64(e.Addr))
	case BlockBegin:
		return fmt.Sprintf("block_begin id=%d", e.Block)
	case BlockEnd:
		return fmt.Sprintf("block_end id=%d", e.Block)
	case Branch:
		return fmt.Sprintf("branch pc=%#x taken=%v", e.PC, e.Taken)
	}
	return "event(?)"
}

// BatchSink consumes the event stream: one virtual call delivers a
// whole slice of events. It is the only consumer contract — the timing
// model, the statistics collectors and the codecs all implement it. The
// batch is only valid for the duration of the call — producers reuse
// the backing array — so implementations must not retain it. The return
// value is a cooperative stop signal: false means the consumer wants no
// further events (its budget is exhausted) and the producer should wind
// down.
type BatchSink interface {
	ConsumeBatch(batch []Event) (more bool)
}

// batchSize is the producer-side buffer length. 256 events (~10KB) is
// large enough to amortize the per-batch virtual call and small enough
// to stay resident in L1d while the consumer walks it.
const batchSize = 256

// Batcher accumulates events into a reusable buffer and hands full
// buffers to a BatchSink. It is the producer half of the batched
// pipeline: generators allocate one Batcher per run and emit through it
// with no further allocation. Events pushed after the consumer has
// stopped are discarded.
type Batcher struct {
	sink BatchSink
	// n is the buffer fill level. Once the consumer stops, n is pinned
	// at batchSize so Event's single range test routes both the
	// buffer-full and the stopped case to eventSlow.
	n       int
	stopped bool
	buf     [batchSize]Event
}

// NewBatcher returns a Batcher feeding sink.
func NewBatcher(sink BatchSink) *Batcher {
	return &Batcher{sink: sink}
}

// Event appends e to the current batch, flushing when the buffer fills.
// It returns false once the consumer has asked for no more events;
// producers should stop generating then. The running case — room in the
// buffer, consumer still live — is kept small enough to inline into the
// generator loops; the full/stopped cases go through eventSlow.
func (b *Batcher) Event(e Event) bool {
	n := b.n
	if uint(n) >= batchSize {
		return b.eventSlow(e)
	}
	b.buf[n] = e
	b.n = n + 1
	return true
}

// eventSlow handles the buffer-full and consumer-stopped cases: it
// flushes the pending batch, then starts the next one with e. Compared
// to flushing eagerly on the fill-completing event, the stop signal is
// observed one event later; that event is discarded, never delivered,
// so consumers see an identical stream.
//
//cbws:hotpath
//go:noinline
func (b *Batcher) eventSlow(e Event) bool {
	if b.stopped {
		return false
	}
	if !b.Flush() {
		return false
	}
	b.buf[0] = e
	b.n = 1
	return true
}

// Flush delivers any buffered events. It returns false once the
// consumer has stopped.
//
//cbws:hotpath
func (b *Batcher) Flush() bool {
	if b.stopped {
		return false
	}
	if b.n > 0 {
		more := b.sink.ConsumeBatch(b.buf[:b.n])
		b.n = 0
		if !more {
			b.stopped = true
			b.n = batchSize // pin: route future Events to eventSlow
			return false
		}
	}
	return true
}

// Stopped reports whether the consumer has requested a stop.
func (b *Batcher) Stopped() bool { return b.stopped }

// Generator produces a trace by pushing batches of events into a
// BatchSink. Workloads implement Generator; producing events by callback
// avoids materializing billion-event traces.
type Generator interface {
	// Name identifies the workload (used in reports).
	Name() string
	// GenerateBatches pushes the event stream into sink in batches
	// (usually via a Batcher), stopping early once the sink returns
	// more == false.
	GenerateBatches(sink BatchSink)
}

// DriveBatches feeds g's events into sink.
func DriveBatches(g Generator, sink BatchSink) { g.GenerateBatches(sink) }

// Trace is an in-memory event sequence. It implements both BatchSink
// (append) and Generator (replay), which makes it convenient for tests
// and for capturing small traces to inspect.
type Trace struct {
	TraceName string
	Events    []Event
}

// New returns an empty named trace.
func New(name string) *Trace { return &Trace{TraceName: name} }

// Name returns the trace name.
func (t *Trace) Name() string { return t.TraceName }

// ConsumeBatch implements BatchSink by appending the whole batch.
func (t *Trace) ConsumeBatch(batch []Event) bool {
	t.Events = append(t.Events, batch...)
	return true
}

// GenerateBatches implements Generator: the whole trace is already
// materialized, so it is delivered as a single batch.
func (t *Trace) GenerateBatches(sink BatchSink) {
	if len(t.Events) > 0 {
		sink.ConsumeBatch(t.Events)
	}
}

// Instructions returns the total dynamic instruction count of the trace.
func (t *Trace) Instructions() uint64 {
	var n uint64
	for i := range t.Events {
		n += uint64(t.Events[i].Count())
	}
	return n
}

// Capture materializes the events produced by g.
func Capture(g Generator) *Trace {
	t := New(g.Name())
	g.GenerateBatches(t)
	return t
}

// Limit wraps a generator and truncates its stream after max dynamic
// instructions, mirroring the paper's 1-billion-instruction simulation
// windows. The truncation is co-operative: an event is forwarded exactly
// when the instructions forwarded before it are still under the budget
// (so the final event may overshoot by its own count), and the producer
// is asked to stop at the first event past it.
type Limit struct {
	Gen Generator
	Max uint64
}

// Name returns the underlying generator's name.
func (l Limit) Name() string { return l.Gen.Name() }

// limiter truncates the batch stream at the instruction budget with
// plain control flow: events are forwarded while the budget holds, the
// first over-budget event truncates its batch, and the producer is told
// to stop via the BatchSink return value.
type limiter struct {
	down     BatchSink
	max      uint64
	consumed uint64
	done     bool
}

//cbws:hotpath
func (lm *limiter) ConsumeBatch(batch []Event) bool {
	if lm.done {
		return false
	}
	// Whole-batch fast path: if the batch total stays within budget no
	// event can be over it (an event is forwarded while the count
	// before it is under max), so the per-event scan below runs for at
	// most one batch per run.
	var sum uint64
	for i := range batch {
		sum += uint64(batch[i].Count())
	}
	if lm.consumed+sum <= lm.max {
		lm.consumed += sum
		return lm.down.ConsumeBatch(batch)
	}
	for i := range batch {
		if lm.consumed >= lm.max {
			lm.done = true
			if i > 0 {
				lm.down.ConsumeBatch(batch[:i])
			}
			return false
		}
		lm.consumed += uint64(batch[i].Count())
	}
	return lm.down.ConsumeBatch(batch)
}

// GenerateBatches implements Generator. The wrapped generator is
// stopped cooperatively through the sink's stop signal — no panic, no
// closure per event.
func (l Limit) GenerateBatches(sink BatchSink) {
	l.Gen.GenerateBatches(&limiter{down: sink, max: l.Max})
}
