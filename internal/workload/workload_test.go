package workload

import (
	"testing"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 30 {
		t.Fatalf("registered %d workloads, want 30", len(all))
	}
	mi := MemoryIntensive()
	reg := Regular()
	if len(mi) != 15 || len(reg) != 15 {
		t.Errorf("MI=%d regular=%d, want 15/15", len(mi), len(reg))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		if s.Suite == "" {
			t.Errorf("%s: missing suite", s.Name)
		}
		if s.Make == nil {
			t.Errorf("%s: nil constructor", s.Name)
		}
	}
}

func TestTableIVNamesPresent(t *testing.T) {
	// The paper's Table IV memory-intensive benchmarks.
	names := []string{
		"429.mcf-ref", "450.soplex-ref", "462.libquantum-ref",
		"433.milc-su3imp", "401.bzip2-source", "mri-q-large",
		"histo-large", "stencil-default", "sgemm-medium", "nw",
		"lbm-long", "lu-ncb-simlarge", "fft-simlarge",
		"radix-simlarge", "streamcluster-simlarge",
	}
	for _, n := range names {
		s, ok := ByName(n)
		if !ok {
			t.Errorf("missing Table IV workload %q", n)
			continue
		}
		if !s.MI {
			t.Errorf("%q not marked memory-intensive", n)
		}
	}
}

func TestByNameMiss(t *testing.T) {
	if _, ok := ByName("no-such-benchmark"); ok {
		t.Error("ByName should miss")
	}
}

// structural checks applied to a bounded prefix of every workload.
func checkStructure(t *testing.T, s Spec) {
	t.Helper()
	tr := trace.Capture(trace.Limit{Gen: s.Make(), Max: 200_000})
	if len(tr.Events) == 0 {
		t.Fatalf("%s: empty trace", s.Name)
	}
	var loads, stores, begins, ends int
	depth := 0
	pcs := map[uint64]bool{}
	lines := map[mem.LineAddr]bool{}
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.Load:
			loads++
			pcs[e.PC] = true
			lines[mem.LineOf(e.Addr)] = true
		case trace.Store:
			stores++
			pcs[e.PC] = true
			lines[mem.LineOf(e.Addr)] = true
		case trace.BlockBegin:
			begins++
			depth++
			if depth > 1 {
				t.Fatalf("%s: nested BlockBegin", s.Name)
			}
		case trace.BlockEnd:
			ends++
			if depth == 0 {
				t.Fatalf("%s: BlockEnd without Begin", s.Name)
			}
			depth--
		}
	}
	if loads == 0 {
		t.Errorf("%s: no loads", s.Name)
	}
	if begins == 0 || ends == 0 {
		t.Errorf("%s: no annotated blocks (begins=%d ends=%d)", s.Name, begins, ends)
	}
	if d := begins - ends; d < 0 || d > 1 {
		t.Errorf("%s: unbalanced markers: %d begins, %d ends", s.Name, begins, ends)
	}
	if len(pcs) < 2 {
		t.Errorf("%s: only %d distinct PCs", s.Name, len(pcs))
	}
	if len(lines) < 8 {
		t.Errorf("%s: touches only %d lines", s.Name, len(lines))
	}
}

func TestAllWorkloadStructures(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) { checkStructure(t, s) })
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, s := range All() {
		a := trace.Capture(trace.Limit{Gen: s.Make(), Max: 50_000})
		b := trace.Capture(trace.Limit{Gen: s.Make(), Max: 50_000})
		if len(a.Events) != len(b.Events) {
			t.Errorf("%s: lengths differ: %d vs %d", s.Name, len(a.Events), len(b.Events))
			continue
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Errorf("%s: event %d differs", s.Name, i)
				break
			}
		}
	}
}

// batchFunc adapts a function to trace.BatchSink.
type batchFunc func([]trace.Event) bool

func (f batchFunc) ConsumeBatch(batch []trace.Event) bool { return f(batch) }

func TestWorkloadsAreLargeEnough(t *testing.T) {
	// Every workload must naturally produce at least 5M instructions so
	// that the 4M+1M default window never underruns.
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			var n uint64
			trace.DriveBatches(trace.Limit{Gen: s.Make(), Max: 5_100_000}, batchFunc(func(batch []trace.Event) bool {
				for _, e := range batch {
					n += uint64(e.Count())
				}
				return true
			}))
			if n < 5_000_000 {
				t.Errorf("natural size %d < 5M instructions", n)
			}
		})
	}
}

func TestMIBlockSizesWithinCBWSLimit(t *testing.T) {
	// The paper sizes the CBWS buffer at 16 lines because 16 covers
	// >98% of dynamic blocks; verify the emulations respect that,
	// except bzip2, which intentionally overflows (Section VII-C).
	for _, s := range MemoryIntensive() {
		tr := trace.Capture(trace.Limit{Gen: s.Make(), Max: 150_000})
		var over, blocks int
		var cur map[mem.LineAddr]bool
		for _, e := range tr.Events {
			switch e.Kind {
			case trace.BlockBegin:
				cur = make(map[mem.LineAddr]bool)
			case trace.Load, trace.Store:
				if cur != nil {
					cur[mem.LineOf(e.Addr)] = true
				}
			case trace.BlockEnd:
				if cur != nil {
					blocks++
					if len(cur) > 16 {
						over++
					}
					cur = nil
				}
			}
		}
		if blocks == 0 {
			t.Errorf("%s: no blocks", s.Name)
			continue
		}
		frac := float64(over) / float64(blocks)
		if s.Name == "401.bzip2-source" {
			if frac < 0.5 {
				t.Errorf("bzip2 overflow fraction %.2f: expected most blocks to exceed 16 lines", frac)
			}
		} else if frac > 0.02 {
			t.Errorf("%s: %.1f%% of blocks exceed 16 lines", s.Name, 100*frac)
		}
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a := newPRNG(42)
	b := newPRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("prng not deterministic")
		}
	}
	c := newPRNG(43)
	same := true
	a = newPRNG(42)
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	p := newPRNG(7)
	for i := 0; i < 1000; i++ {
		v := p.intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
}

func TestEmitBatching(t *testing.T) {
	tr := trace.New("x")
	e := newEmit(tr)
	e.instr(3)
	e.instr(4)
	e.load(0x10, 0x4000)
	e.flush()
	e.flushBuf()
	if len(tr.Events) != 2 {
		t.Fatalf("events = %v", tr.Events)
	}
	if tr.Events[0].Count() != 7 {
		t.Errorf("batched count = %d", tr.Events[0].Count())
	}
}

func TestBaseAddressesDisjoint(t *testing.T) {
	// Arrays must never overlap within a workload's address space.
	for k := 0; k < 8; k++ {
		lo := base(k)
		hi := base(k + 1)
		if hi-lo != arrayStride {
			t.Fatalf("base(%d)..base(%d) gap = %d", k, k+1, hi-lo)
		}
	}
}
