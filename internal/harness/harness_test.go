package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cbws/internal/prefetch"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// tinyOptions keeps harness tests fast.
func tinyOptions() Options {
	opts := DefaultOptions()
	opts.Sim.MaxInstructions = 120_000
	opts.Sim.WarmupInstructions = 20_000
	opts.Parallel = 4
	return opts
}

func TestPrefetcherRoster(t *testing.T) {
	fs := Prefetchers()
	want := []string{"none", "stride", "ghb-pc/dc", "ghb-g/dc", "sms", "cbws", "cbws+sms"}
	if len(fs) != len(want) {
		t.Fatalf("roster size %d", len(fs))
	}
	for i, f := range fs {
		if f.Name != want[i] {
			t.Errorf("roster[%d] = %q, want %q", i, f.Name, want[i])
		}
		p := f.New()
		if p.Name() != f.Name {
			t.Errorf("factory %q builds %q", f.Name, p.Name())
		}
	}
}

func TestMatrixMemoizes(t *testing.T) {
	m := NewMatrix(tinyOptions())
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("none")
	a, err := m.Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Error("memoized result differs")
	}
}

func TestMatrixGetSingleFlight(t *testing.T) {
	// Concurrent Gets of the same cell must run the simulation exactly
	// once (single-flight), with every caller receiving that one
	// result. The factory counts constructions: one construction = one
	// simulation.
	m := NewMatrix(tinyOptions())
	spec, _ := workload.ByName("stencil-default")
	var built atomic.Int32
	f := Factory{Name: "none", New: func() prefetch.Prefetcher {
		built.Add(1)
		return prefetch.NewNone()
	}}
	const callers = 8
	results := make([]sim.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Get(spec, f)
		}(i)
	}
	wg.Wait()
	if n := built.Load(); n != 1 {
		t.Errorf("simulation ran %d times, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Metrics != results[0].Metrics {
			t.Errorf("caller %d got a different result", i)
		}
	}
}

func TestDefaultParallelIsMachineWidth(t *testing.T) {
	if p := DefaultOptions().Parallel; p < 1 {
		t.Errorf("DefaultOptions().Parallel = %d, want >= 1", p)
	}
}

func TestMatrixFillParallel(t *testing.T) {
	m := NewMatrix(tinyOptions())
	specs := []workload.Spec{}
	for _, n := range []string{"stencil-default", "histo-large"} {
		s, _ := workload.ByName(n)
		specs = append(specs, s)
	}
	fs := []Factory{}
	for _, n := range []string{"none", "sms"} {
		f, _ := registry.ByName(n)
		fs = append(fs, f)
	}
	if err := m.Fill(specs, fs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		for _, f := range fs {
			r, err := m.Get(s, f)
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics.Instructions == 0 {
				t.Errorf("%s/%s: empty result", s.Name, f.Name)
			}
		}
	}
}

func TestTableI(t *testing.T) {
	tab := TableI()
	s := tab.String()
	// Must reproduce the paper's values.
	for _, want := range []string{"120, 3F9, 1FF", "124, 3F1, 1FF", "4, -8, 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableII(t *testing.T) {
	s := TableII(DefaultOptions()).String()
	for _, want := range []string{"32KB", "2MB", "300 cycles", "4-way LRU", "8-way LRU", "inclusive"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestTableIIIStorage(t *testing.T) {
	s := TableIII().String()
	// Paper's storage budgets.
	for _, want := range []string{"2.25", "3.75", "0.99"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table III missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "none") {
		t.Error("no-prefetch should not appear in Table III")
	}
}

func TestFigure3And4(t *testing.T) {
	f3, f4 := Figure3And4(8)
	if len(f3.Rows) != 8 {
		t.Errorf("figure 3 rows = %d", len(f3.Rows))
	}
	if len(f4.Rows) != 7 {
		t.Errorf("figure 4 rows = %d", len(f4.Rows))
	}
	// The stencil differentials are the constant 1024-line plane stride.
	for _, row := range f4.Rows {
		if !strings.Contains(row[1], "1024") {
			t.Errorf("differential row %q missing the 1024-line stride", row[1])
		}
	}
}

func TestFigure5(t *testing.T) {
	tab, err := Figure5(120_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Figure5Workloads) {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "stencil-default") || !strings.Contains(s, "450.soplex-ref") {
		t.Error("figure 5 missing paper workloads")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	m := NewMatrix(tinyOptions())
	tab, err := Figure1(m)
	if err != nil {
		t.Fatal(err)
	}
	// 15 MI workloads + average row.
	if len(tab.Rows) != 16 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "average" {
		t.Errorf("last row = %v", last)
	}
}
