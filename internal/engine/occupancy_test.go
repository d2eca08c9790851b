package engine

import (
	"testing"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

func TestROBOccupancy(t *testing.T) {
	cfg := DefaultConfig()

	// Fresh engine: nothing in flight.
	e := mustEngine(t, &fixedMem{loadLat: 1000}, nil)
	if got := e.ROBOccupancy(); got != 0 {
		t.Fatalf("fresh engine ROB occupancy = %d, want 0", got)
	}

	// A width-bound ALU stream keeps commit hard on fetch's heels: only
	// the entries of the last cycle or two are still waiting.
	alu := mustEngine(t, &fixedMem{}, nil)
	consume(alu, trace.Event{Kind: trace.Instr, N: 100_000})
	if got := alu.ROBOccupancy(); got <= 0 || got > cfg.ROBEntries/2 {
		t.Errorf("compute-bound ROB occupancy = %d, want small positive (< %d)", got, cfg.ROBEntries/2)
	}

	// Long-latency loads decouple the commit clock from fetch; ROB
	// back-pressure then pins dispatch one ROB-length behind commit, so
	// the structure reads (nearly) full — and never beyond capacity.
	for i := 0; i < 200; i++ {
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	occ := e.ROBOccupancy()
	if occ <= cfg.ROBEntries/2 {
		t.Errorf("memory-bound ROB occupancy = %d, want > %d (ROB-limited dispatch)", occ, cfg.ROBEntries/2)
	}
	if occ > cfg.ROBEntries {
		t.Errorf("ROB occupancy = %d exceeds capacity %d", occ, cfg.ROBEntries)
	}
}

func TestROBOccupancyIsReadOnly(t *testing.T) {
	f := &fixedMem{loadLat: 500}
	a := mustEngine(t, f, nil)
	b := mustEngine(t, &fixedMem{loadLat: 500}, nil)
	for i := 0; i < 100; i++ {
		consume(a, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
		consume(b, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
		a.ROBOccupancy() // sampled every event on a only
	}
	sa, sb := a.Finish(), b.Finish()
	if sa != sb {
		t.Errorf("sampling ROB occupancy perturbed the run:\nsampled:   %+v\nunsampled: %+v", sa, sb)
	}
}
