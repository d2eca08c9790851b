// Package workload provides the 30 benchmark emulations the harness runs
// — 15 memory-intensive (Table IV) and 15 regular — substituting for the
// SPEC CPU2006 / PARSEC / SPLASH / Rodinia / Parboil binaries of the
// paper's methodology.
//
// Each emulation reproduces the memory access structure of the
// benchmark's hot loops (stream counts, stride patterns, region
// locality, data dependence, branch divergence, working set size) rather
// than its computation, since the prefetchers under study observe only
// the committed address/PC/loop-marker stream. Innermost tight loops
// carry BLOCK_BEGIN/BLOCK_END annotations with static block IDs, exactly
// as the paper's LLVM pass emits them; see internal/annotate for the
// pass itself, which several IR-based kernels here exercise end to end.
//
// All generators are deterministic (fixed-seed splitmix64).
package workload

import (
	"sort"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// Spec describes one benchmark emulation.
type Spec struct {
	// Name matches the labels used in the paper's figures
	// (e.g. "stencil-default", "429.mcf-ref").
	Name string
	// Suite is the originating benchmark suite.
	Suite string
	// MI marks membership in the memory-intensive group (Table IV).
	MI bool
	// Make constructs a fresh generator for one run.
	Make func() trace.Generator
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// All returns every registered workload, sorted by name.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemoryIntensive returns the Table IV group, sorted by name.
func MemoryIntensive() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.MI {
			out = append(out, s)
		}
	}
	return out
}

// Regular returns the low-MPKI group, sorted by name.
func Regular() []Spec {
	var out []Spec
	for _, s := range All() {
		if !s.MI {
			out = append(out, s)
		}
	}
	return out
}

// ByName looks up a workload.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// prng is a splitmix64 deterministic random source.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// stopEmission unwinds a workload body once the consumer has requested
// a stop (its instruction budget is exhausted). The bodies are deeply
// nested loops with no natural early exit, so they are unwound by one
// panic per run, recovered in GenerateBatches.
type stopEmission struct{}

// emitBatch is the emit buffer length; it matches the trace package's
// producer batch size so batch boundaries are unchanged from the
// Batcher-based pipeline.
const emitBatch = 256

// emit batches events into one reusable buffer, coalesces consecutive
// non-memory instructions, and provides shorthand for the event kinds;
// all workloads drive one of these. It owns its buffer rather than
// delegating to a trace.Batcher so that the per-event fast paths —
// pending-instr flush plus the event store — run without a function
// call per event.
type emit struct {
	sink trace.BatchSink
	n    int
	pend int
	buf  [emitBatch]trace.Event
}

func newEmit(sink trace.BatchSink) *emit { return &emit{sink: sink} }

// push appends one event, delivering the buffer when it is full and
// unwinding the workload body when the consumer stops.
func (e *emit) push(ev trace.Event) {
	n := e.n
	if uint(n) >= emitBatch {
		e.flushBuf()
		n = 0
	}
	e.buf[n] = ev
	e.n = n + 1
}

// flushBuf delivers the buffered events to the sink; a stop request
// unwinds the workload body (the event stream delivered so far is
// complete — nothing buffered is lost).
func (e *emit) flushBuf() {
	if e.n > 0 {
		more := e.sink.ConsumeBatch(e.buf[:e.n])
		e.n = 0
		if !more {
			panic(stopEmission{})
		}
	}
}

func (e *emit) flush() {
	if e.pend > 0 {
		n := e.pend
		e.pend = 0
		e.push(trace.Event{Kind: trace.Instr, N: n})
	}
}

// instr queues n non-memory instructions.
func (e *emit) instr(n int) { e.pend += n }

func (e *emit) load(pc uint64, addr mem.Addr) {
	n := e.n
	if p := e.pend; p > 0 {
		if uint(n) < emitBatch-1 {
			e.pend = 0
			e.buf[n] = trace.Event{Kind: trace.Instr, N: p}
			e.buf[n+1] = trace.Event{Kind: trace.Load, PC: pc, Addr: addr}
			e.n = n + 2
			return
		}
	} else if uint(n) < emitBatch {
		e.buf[n] = trace.Event{Kind: trace.Load, PC: pc, Addr: addr}
		e.n = n + 1
		return
	}
	e.flush()
	e.push(trace.Event{Kind: trace.Load, PC: pc, Addr: addr})
}

func (e *emit) store(pc uint64, addr mem.Addr) {
	n := e.n
	if p := e.pend; p > 0 {
		if uint(n) < emitBatch-1 {
			e.pend = 0
			e.buf[n] = trace.Event{Kind: trace.Instr, N: p}
			e.buf[n+1] = trace.Event{Kind: trace.Store, PC: pc, Addr: addr}
			e.n = n + 2
			return
		}
	} else if uint(n) < emitBatch {
		e.buf[n] = trace.Event{Kind: trace.Store, PC: pc, Addr: addr}
		e.n = n + 1
		return
	}
	e.flush()
	e.push(trace.Event{Kind: trace.Store, PC: pc, Addr: addr})
}

// branch emits a conditional-branch event at static site pc with the
// given outcome.
func (e *emit) branch(pc uint64, taken bool) {
	n := e.n
	if p := e.pend; p > 0 {
		if uint(n) < emitBatch-1 {
			e.pend = 0
			e.buf[n] = trace.Event{Kind: trace.Instr, N: p}
			e.buf[n+1] = trace.Event{Kind: trace.Branch, PC: pc, Taken: taken}
			e.n = n + 2
			return
		}
	} else if uint(n) < emitBatch {
		e.buf[n] = trace.Event{Kind: trace.Branch, PC: pc, Taken: taken}
		e.n = n + 1
		return
	}
	e.flush()
	e.push(trace.Event{Kind: trace.Branch, PC: pc, Taken: taken})
}

func (e *emit) begin(id int) {
	e.flush()
	e.push(trace.Event{Kind: trace.BlockBegin, Block: id})
}

func (e *emit) end(id int) {
	e.flush()
	e.push(trace.Event{Kind: trace.BlockEnd, Block: id})
}

// gen adapts a workload body to trace.Generator.
type gen struct {
	name string
	body func(*emit)
}

func (g gen) Name() string { return g.name }

// GenerateBatches implements trace.Generator: the body emits into
// one reusable buffer and is unwound at most once when the sink stops.
func (g gen) GenerateBatches(sink trace.BatchSink) {
	e := newEmit(sink)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopEmission); !ok {
				panic(r)
			}
		}
	}()
	g.body(e)
	e.flush()
	e.flushBuf()
}

// Distinct base addresses per array, spaced 256MB apart so arrays never
// alias and set-index interference between streams is realistic but not
// adversarial.
const arrayStride = 256 << 20

func base(k int) mem.Addr { return mem.Addr(1<<32 + k*arrayStride) }

// word is the element size used by most kernels (doubles).
const word = 8

// f32 is the element size of single-precision kernels.
const f32 = 4
