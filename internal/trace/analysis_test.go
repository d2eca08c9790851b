package trace

import (
	"slices"
	"strings"
	"testing"

	"cbws/internal/mem"
)

func analysisFixture() Generator {
	return genFunc{name: "fixture", body: func(emit func(Event) bool) {
		for i := 0; i < 100; i++ {
			emit(Event{Kind: BlockBegin, Block: 0})
			emit(Event{Kind: Load, PC: 0x10, Addr: mem.Addr(1<<20 + i*64)})
			emit(Event{Kind: Load, PC: 0x14, Addr: mem.Addr(1<<21 + i*128)})
			emit(Event{Kind: Store, PC: 0x18, Addr: mem.Addr(1<<22 + i*64)})
			emit(Event{Kind: Instr, N: 5})
			emit(Event{Kind: Branch, PC: 0x1c, Taken: i%4 != 0})
			emit(Event{Kind: BlockEnd, Block: 0})
		}
	}}
}

func TestAnalyzeCounts(t *testing.T) {
	s := Analyze(analysisFixture(), 0)
	if s.Loads != 200 || s.Stores != 100 || s.Blocks != 100 {
		t.Errorf("counts: %+v", s)
	}
	if s.Branches != 100 || s.BranchTaken != 75 {
		t.Errorf("branches: %d taken %d", s.Branches, s.BranchTaken)
	}
	// 2 + 2 + 1 per-stream lines... stream 1: 100 lines; stream 2 (stride
	// 128B): 100 distinct lines over 200 line span; stream 3: 100.
	if s.UniqueLines != 300 {
		t.Errorf("unique lines = %d, want 300", s.UniqueLines)
	}
	if s.UniquePCs != 3 {
		t.Errorf("unique PCs = %d", s.UniquePCs)
	}
	if s.FootprintBytes != 300*64 {
		t.Errorf("footprint = %d", s.FootprintBytes)
	}
}

func TestAnalyzeBlockSizes(t *testing.T) {
	s := Analyze(analysisFixture(), 0)
	if got := s.BlocksWithin(16); got != 1.0 {
		t.Errorf("BlocksWithin(16) = %v", got)
	}
	if got := s.BlocksWithin(2); got != 0 {
		t.Errorf("BlocksWithin(2) = %v (blocks have 3 lines)", got)
	}
	if s.BlockSizes[3] != 100 {
		t.Errorf("block sizes: %v", s.BlockSizes)
	}
}

func TestAnalyzeStrides(t *testing.T) {
	s := Analyze(analysisFixture(), 0)
	// Dominant strides: +1 (two streams) and +2 (the 128B stream).
	found1, found2 := false, false
	for _, sc := range s.TopStrides {
		if sc.Stride == 1 && sc.Count >= 190 {
			found1 = true
		}
		if sc.Stride == 2 && sc.Count >= 95 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Errorf("stride histogram: %+v", s.TopStrides)
	}
}

// TestAnalyzeStrideTiesDeterministic feeds twelve PCs that each step
// by their own stride the same number of times, so all twelve strides
// tie, and requires every run to keep the same eight: the smallest
// strides, in ascending order.
func TestAnalyzeStrideTiesDeterministic(t *testing.T) {
	g := genFunc{name: "ties", body: func(emit func(Event) bool) {
		for i := 0; i < 10; i++ {
			for k := 1; k <= 12; k++ {
				emit(Event{Kind: Load, PC: uint64(k), Addr: mem.Addr(uint64(k)<<32 + uint64(i*k*64))})
			}
		}
	}}
	var want []StrideCount
	for k := int64(1); k <= 8; k++ {
		want = append(want, StrideCount{Stride: k, Count: 9})
	}
	for run := 0; run < 20; run++ {
		if got := Analyze(g, 0).TopStrides; !slices.Equal(got, want) {
			t.Fatalf("run %d: TopStrides = %v, want %v", run, got, want)
		}
	}
}

func TestAnalyzeOverflowBucket(t *testing.T) {
	g := genFunc{name: "big", body: func(emit func(Event) bool) {
		emit(Event{Kind: BlockBegin, Block: 0})
		for i := 0; i < 40; i++ {
			emit(Event{Kind: Load, PC: 1, Addr: mem.Addr(i * 64)})
		}
		emit(Event{Kind: BlockEnd, Block: 0})
	}}
	s := Analyze(g, 0)
	if s.BlockSizes[17] != 1 {
		t.Errorf("overflow bucket: %v", s.BlockSizes)
	}
	if s.BlocksWithin(16) != 0 {
		t.Error("overflowing block counted as within 16")
	}
}

func TestAnalyzeLimit(t *testing.T) {
	s := Analyze(analysisFixture(), 50)
	if s.Instructions > 60 {
		t.Errorf("limit not applied: %d instructions", s.Instructions)
	}
}

func TestSummaryRender(t *testing.T) {
	s := Analyze(analysisFixture(), 0)
	out := s.String()
	for _, want := range []string{"fixture", "loads", "blocks <= 16 lines: 100.0%", "top per-PC line strides"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
