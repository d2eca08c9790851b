package workload

import (
	"testing"

	"cbws/internal/core"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/sim"
	"cbws/internal/trace"
)

func TestIRKernelsProduceAnnotatedTraces(t *testing.T) {
	for _, s := range IRKernels() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr := trace.Capture(trace.Limit{Gen: s.Make(), Max: 30_000})
			var begins, loadsInside int
			in := false
			for _, e := range tr.Events {
				switch e.Kind {
				case trace.BlockBegin:
					begins++
					in = true
				case trace.BlockEnd:
					in = false
				case trace.Load:
					if in {
						loadsInside++
					}
				}
			}
			if begins == 0 {
				t.Fatal("annotation pass produced no blocks")
			}
			if loadsInside == 0 {
				t.Fatal("loads not inside annotated blocks")
			}
		})
	}
}

func TestIRVecAddCBWSPredicts(t *testing.T) {
	// The annotated vecadd loop must be fully CBWS-predictable: the
	// prefetcher should reach confident steady state.
	p := core.New(core.Config{})
	p.Reset()
	issue := func(mem.LineAddr) {}
	trace.DriveBatches(trace.Limit{Gen: IRVecAdd(1 << 14), Max: 300_000}, batchFunc(func(batch []trace.Event) bool {
		for _, e := range batch {
			switch e.Kind {
			case trace.BlockBegin:
				p.OnBlockBegin(e.Block)
			case trace.BlockEnd:
				p.OnBlockEnd(e.Block, issue)
			case trace.Load, trace.Store:
				p.OnAccess(prefetch.Access{PC: e.PC, Addr: e.Addr, Line: mem.LineOf(e.Addr)}, issue)
			}
		}
		return true
	}))
	if p.Stats.Blocks == 0 {
		t.Fatal("no blocks observed")
	}
	if p.Stats.TableHits == 0 {
		t.Error("CBWS never hit its table on vecadd")
	}
}

func TestIRHistoDataDependence(t *testing.T) {
	// The histogram kernel's bin addresses must actually vary with the
	// initialized image data.
	tr := trace.Capture(trace.Limit{Gen: IRHisto(2048, 512), Max: 100_000})
	bins := map[mem.LineAddr]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.Load && e.Addr >= 1<<32+1<<28 {
			bins[mem.LineOf(e.Addr)] = true
		}
	}
	if len(bins) < 32 {
		t.Errorf("histogram touched only %d bin lines: data dependence broken", len(bins))
	}
}

func TestIRKernelSimulates(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 200_000
	res, err := sim.Run(cfg, IRStencil1D(1<<16), core.New(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Blocks == 0 || res.Metrics.Loads == 0 {
		t.Errorf("metrics: %+v", res.Metrics)
	}
}

func TestIRPointerChaseVisitsManyNodes(t *testing.T) {
	tr := trace.Capture(trace.Limit{Gen: IRPointerChase(1<<10, 1<<12), Max: 60_000})
	nodes := map[mem.LineAddr]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.Load {
			nodes[mem.LineOf(e.Addr)] = true
		}
	}
	// The chase must actually follow the list (distinct nodes), not
	// spin on a broken pointer (memory defaulting to zero).
	if len(nodes) < 512 {
		t.Errorf("chase visited only %d distinct nodes", len(nodes))
	}
}

func TestIRPointerChaseIsAnnotated(t *testing.T) {
	// The do-while loop (latch == header) must still be discovered and
	// annotated by the pass.
	tr := trace.Capture(trace.Limit{Gen: IRPointerChase(1<<8, 1<<10), Max: 20_000})
	begins := 0
	for _, e := range tr.Events {
		if e.Kind == trace.BlockBegin {
			begins++
		}
	}
	if begins == 0 {
		t.Fatal("do-while loop not annotated")
	}
}

func TestIRGatherDiverges(t *testing.T) {
	tr := trace.Capture(trace.Limit{Gen: IRGather(1<<12, 1<<10), Max: 120_000})
	var branches, taken, stores int
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.Branch:
			branches++
			if e.Taken {
				taken++
			}
		case trace.Store:
			stores++
		}
	}
	if branches == 0 || stores == 0 {
		t.Fatalf("branches=%d stores=%d", branches, stores)
	}
	// The threshold branch must actually diverge: neither all-taken nor
	// never-taken.
	frac := float64(taken) / float64(branches)
	if frac < 0.05 || frac > 0.95 {
		t.Errorf("divergence fraction %.2f: branch is not data-dependent", frac)
	}
}
