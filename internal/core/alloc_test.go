package core

import (
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/trace"
)

// skipIfChecksEnabled guards the zero-allocation pins: they assert a
// property of the production build, which the cbwscheck diagnostic
// build deliberately trades for invariant checking (whose assertion
// arguments allocate).
func skipIfChecksEnabled(t *testing.T) {
	t.Helper()
	if check.Enabled {
		t.Skip("invariant checks enabled; zero-alloc pins apply to the production build")
	}
}

// Allocation regression tests for the hot paths. Reset preallocates
// every buffer the prefetcher mutates while running, so a full block
// cycle (begin, accesses, end with table store + prediction) must not
// allocate once warm; the census likewise reuses its differential and
// key scratch in steady state. A regression here silently costs the
// simulator GC time on every one of the millions of simulated blocks.

func TestPrefetcherBlockCycleAllocationFree(t *testing.T) {
	skipIfChecksEnabled(t)
	p := New(Config{})
	drop := func(mem.LineAddr) {}
	iter := func(k int) {
		p.OnBlockBegin(7)
		for j := 0; j < 8; j++ {
			l := mem.LineAddr(1<<20 + uint64(k*8+j*3))
			p.OnAccess(prefetch.Access{Addr: l.Byte(), Line: l}, drop)
		}
		p.OnBlockEnd(7, drop)
	}
	for k := 0; k < 64; k++ {
		iter(k) // warm histories and table entries
	}
	k := 64
	if avg := testing.AllocsPerRun(200, func() { iter(k); k++ }); avg != 0 {
		t.Errorf("warm block cycle allocates %.1f objects, want 0", avg)
	}
}

func TestPrefetcherBlockSwitchAllocationFree(t *testing.T) {
	skipIfChecksEnabled(t)
	// Switching static blocks clears the tracking context; the clear
	// must recycle the predecessor and history buffers, not reallocate
	// them.
	p := New(Config{})
	drop := func(mem.LineAddr) {}
	id := 0
	iter := func() {
		p.OnBlockBegin(id)
		l := mem.LineAddr(1 << 20)
		p.OnAccess(prefetch.Access{Addr: l.Byte(), Line: l}, drop)
		p.OnBlockEnd(id, drop)
		id = 1 - id // alternate: every begin is a block switch
	}
	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Errorf("block switch allocates %.1f objects, want 0", avg)
	}
}

func TestCensusSteadyStateAllocationFree(t *testing.T) {
	skipIfChecksEnabled(t)
	c := NewCensus(16)
	k := 0
	iter := func() {
		c.observe(trace.Event{Kind: trace.BlockBegin, Block: 1})
		for j := 0; j < 4; j++ {
			c.observe(trace.Event{Kind: trace.Load, Addr: mem.Addr((k*4 + j) * 64)})
		}
		c.observe(trace.Event{Kind: trace.BlockEnd, Block: 1})
		k++
	}
	for i := 0; i < 8; i++ {
		iter() // constant stride: the one differential key is now interned
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Errorf("steady-state census iteration allocates %.1f objects, want 0", avg)
	}
}
