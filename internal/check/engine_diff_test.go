package check_test

import (
	"math/rand"
	"testing"

	"cbws/internal/branch"
	"cbws/internal/check"
	"cbws/internal/engine"
	"cbws/internal/mem"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// pureMemPort is a stateless memory port: the completion time depends
// only on the request, so the production engine and the reference can
// share one instance without interfering. Latencies are spread from
// L1-hit-like to memory-miss-like to exercise ROB/LDQ/STQ stalls.
type pureMemPort struct{}

func (pureMemPort) latency(addr mem.Addr) uint64 {
	h := uint64(addr) * 0x9E3779B97F4A7C15
	switch h >> 62 {
	case 0:
		return 2 // L1-like
	case 1:
		return 32 // L2-like
	default:
		return 300 + h%17 // memory-like, slightly jittered
	}
}

func (p pureMemPort) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	return now + p.latency(addr)
}

func (p pureMemPort) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return now + p.latency(addr^0xA5A5)
}

// randomTrace builds a pseudo-random event stream with every event
// kind: instruction batches, loads, stores, branches, and (sometimes
// unbalanced) block markers.
func randomTrace(rng *rand.Rand, events int) *trace.Trace {
	tr := trace.New("random")
	block := 0
	for i := 0; i < events; i++ {
		pc := uint64(0x400000 + rng.Intn(256)*4)
		addr := mem.Addr(rng.Intn(1<<16) * 8)
		switch rng.Intn(12) {
		case 0, 1:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Instr, N: rng.Intn(9)}) // N=0 means 1
		case 2, 3, 4, 5:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Load, PC: pc, Addr: addr})
		case 6, 7:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Store, PC: pc, Addr: addr})
		case 8, 9:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Branch, PC: pc, Taken: rng.Intn(3) != 0})
		case 10:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: block})
		default:
			tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: block})
			if rng.Intn(4) == 0 {
				block = rng.Intn(3)
			}
		}
	}
	return tr
}

// engineStatsMirror converts production engine statistics into the
// reference struct for field-by-field comparison.
func engineStatsMirror(s engine.Stats) check.RefEngineStats {
	return check.RefEngineStats{
		Instructions: s.Instructions,
		Cycles:       s.Cycles,
		Loads:        s.Loads,
		Stores:       s.Stores,
		Branches:     s.Branches,
		Mispredicts:  s.Mispredicts,
		Blocks:       s.Blocks,
		BlockSlots:   s.BlockSlots,
		TotalSlots:   s.TotalSlots,
	}
}

// driveEnginePair replays tr into the production engine (in randomly
// sized batches, exercising the batched state hoisting) and into the
// unbounded-window reference (one event at a time), comparing ROB
// occupancy at every batch boundary and the full statistics at the end.
func driveEnginePair(t *testing.T, tr *trace.Trace, rng *rand.Rand, withBranch bool) {
	t.Helper()
	cfg := engine.DefaultConfig()
	refCfg := check.RefEngineConfig{
		Width:             cfg.Width,
		ROBEntries:        cfg.ROBEntries,
		LDQEntries:        cfg.LDQEntries,
		STQEntries:        cfg.STQEntries,
		MispredictPenalty: cfg.MispredictPenalty,
	}
	port := pureMemPort{}
	eng, err := engine.New(cfg, port, nil)
	if err != nil {
		t.Fatal(err)
	}
	var refBP check.RefBranchPredictor
	if withBranch {
		// Two predictor instances fed the same outcome sequence stay in
		// lockstep; sharing one would double-train it.
		bp1, err := branch.New(branch.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		bp2, err := branch.New(branch.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachBranchPredictor(bp1)
		refBP = bp2
	}
	ref, err := check.NewRefEngine(refCfg, port, refBP)
	if err != nil {
		t.Fatal(err)
	}

	events := tr.Events
	for len(events) > 0 {
		n := 1 + rng.Intn(300)
		if n > len(events) {
			n = len(events)
		}
		eng.ConsumeBatch(events[:n])
		ref.ConsumeBatch(events[:n])
		events = events[n:]
		if got, want := eng.ROBOccupancy(), ref.ROBOccupancy(); got != want {
			t.Fatalf("ROB occupancy diverged with %d events left: real %d, ref %d",
				len(events), got, want)
		}
	}
	got := engineStatsMirror(eng.Finish())
	want := ref.Finish()
	if got != want {
		t.Fatalf("final stats diverged:\n real %+v\n  ref %+v", got, want)
	}
}

// TestEngineVsReference drives over a million random events through the
// production engine's batched path and the unbounded-window reference,
// with invariant checkers enabled, requiring identical ROB occupancy at
// every batch boundary and bit-identical final statistics.
func TestEngineVsReference(t *testing.T) {
	prev := check.Enabled
	check.Enabled = true
	defer func() { check.Enabled = prev }()

	const seeds, eventsPerSeed = 4, 300_000 // 1.2M events total
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, eventsPerSeed)
		driveEnginePair(t, tr, rng, seed%2 == 0)
	}
}

// TestEngineVsReferenceOnWorkload replays a real workload prefix — the
// annotated stencil kernel — through both engines, covering the
// structured block/branch patterns a synthetic random trace does not.
func TestEngineVsReferenceOnWorkload(t *testing.T) {
	spec, ok := workload.ByName("stencil-default")
	if !ok {
		t.Fatal("stencil-default workload missing")
	}
	tr := trace.New(spec.Name)
	trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: 200_000}, tr)
	driveEnginePair(t, tr, rand.New(rand.NewSource(1)), true)
}
