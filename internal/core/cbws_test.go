package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// tableITrace builds the exact access trace of the paper's Table I.
func tableITrace() *trace.Trace {
	tr := trace.New("table1")
	emit := func(addrs []uint64) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: 0})
		for i, a := range addrs {
			kind := trace.Load
			tr.Events = append(tr.Events, trace.Event{Kind: kind, PC: uint64(0x100 + 4*i), Addr: mem.Addr(a)})
		}
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: 0})
	}
	emit([]uint64{0x4800, 0x4804, 0xFE50, 0x481C, 0xFE50, 0x7FE0, 0x7FE0})
	emit([]uint64{0x4900, 0x4904, 0xFC50, 0x491C, 0x7FE0})
	return tr
}

// TestTableIConstruction reproduces the paper's Table I: CBWS0 =
// (120, 3F9, 1FF), CBWS1 = (124, 3F1, 1FF), Δ0,1 = (4, -8, 0).
func TestTableIConstruction(t *testing.T) {
	sets := ExtractCBWS(tableITrace(), 0, 16)
	if len(sets) != 2 {
		t.Fatalf("extracted %d CBWSs, want 2", len(sets))
	}
	want0 := Vector{0x120, 0x3F9, 0x1FF}
	want1 := Vector{0x124, 0x3F1, 0x1FF}
	for i, w := range []Vector{want0, want1} {
		if len(sets[i]) != len(w) {
			t.Fatalf("CBWS%d = %v, want %v", i, sets[i], w)
		}
		for j := range w {
			if sets[i][j] != w[j] {
				t.Errorf("CBWS%d[%d] = %#x, want %#x", i, j, uint64(sets[i][j]), uint64(w[j]))
			}
		}
	}
	d := Differential(sets[0], sets[1])
	wantD := Diff{4, -8, 0}
	if !d.Equal(wantD) {
		t.Errorf("differential = %v, want %v", d, wantD)
	}
}

func TestExtractRespectsMaxVec(t *testing.T) {
	tr := trace.New("big")
	tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: 0})
	for i := 0; i < 40; i++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: 0})
	sets := ExtractCBWS(tr, 0, 16)
	if len(sets) != 1 || len(sets[0]) != 16 {
		t.Fatalf("got %d sets, first len %d; want 1 set of 16", len(sets), len(sets[0]))
	}
}

func TestExtractFiltersBlockID(t *testing.T) {
	tr := trace.New("mixed")
	for id := 0; id < 3; id++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: id})
		tr.Events = append(tr.Events, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(id * 4096)})
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: id})
	}
	sets := ExtractCBWS(tr, 1, 16)
	if len(sets) != 1 || sets[0][0] != mem.LineOf(4096) {
		t.Fatalf("sets = %v", sets)
	}
}

func TestExtractDedupsWithinBlock(t *testing.T) {
	tr := trace.New("dedup")
	tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: 0})
	for i := 0; i < 10; i++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr((i % 2) * 64)})
	}
	tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: 0})
	sets := ExtractCBWS(tr, 0, 16)
	if len(sets[0]) != 2 {
		t.Errorf("CBWS = %v, want 2 unique lines", sets[0])
	}
}

func TestDifferentialTruncatesToShorter(t *testing.T) {
	a := Vector{10, 20, 30, 40}
	b := Vector{11, 22}
	d := Differential(a, b)
	if !d.Equal(Diff{1, 2}) {
		t.Errorf("d = %v", d)
	}
	d = Differential(b, a)
	if !d.Equal(Diff{-1, -2}) {
		t.Errorf("d = %v", d)
	}
}

func TestApplyPredictsFuture(t *testing.T) {
	a := Vector{100, 200, 300}
	d := Diff{5, -3, 0}
	got := d.Apply(a)
	want := Vector{105, 197, 300}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Apply = %v, want %v", got, want)
		}
	}
}

// TestDifferentialApplyInverse checks the algebra the predictor relies
// on: Apply(Differential(a,b), a) == b (up to truncation).
func TestDifferentialApplyInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make(Vector, n)
		b := make(Vector, n)
		for i := range a {
			a[i] = mem.LineAddr(rng.Uint64() >> 16)
			b[i] = a[i].Add(int64(rng.Intn(1<<20)) - 1<<19)
		}
		got := Differential(a, b).Apply(a)
		if len(got) != n {
			return false
		}
		for i := range b {
			if got[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDifferentialComposition checks multi-step consistency:
// Δ(a→c) == Δ(a→b) + Δ(b→c) element-wise.
func TestDifferentialComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		mk := func() Vector {
			v := make(Vector, n)
			for i := range v {
				v[i] = mem.LineAddr(rng.Uint64() >> 20)
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		ab := Differential(a, b)
		bc := Differential(b, c)
		ac := Differential(a, c)
		for i := 0; i < n; i++ {
			if ac[i] != ab[i]+bc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorContains(t *testing.T) {
	v := Vector{1, 2, 3}
	if !v.Contains(2) || v.Contains(9) {
		t.Error("Contains wrong")
	}
}

func TestDiffStrings(t *testing.T) {
	if s := (Diff{1, -8, 0}).String(); s != "( 1, -8, 0 )" {
		t.Errorf("Diff.String = %q", s)
	}
	if s := (Vector{80, 81}).String(); s != "( 80, 81 )" {
		t.Errorf("Vector.String = %q", s)
	}
}
