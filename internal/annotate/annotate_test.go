package annotate

import (
	"testing"

	"cbws/internal/interp"
	"cbws/internal/ir"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

// countedLoop builds a loop that loads a[i] for i in [0, n).
func countedLoop(n int64) *ir.Program {
	b := ir.NewBuilder("counted")
	i := b.Const(0)
	limit := b.Const(n)
	cond := b.Reg()
	addr := b.Reg()
	val := b.Reg()
	b.Label("head")
	b.CmpLT(cond, i, limit)
	b.BrZ(cond, "exit")
	b.MulI(addr, i, 8)
	b.AddI(addr, addr, 1<<20)
	b.Load(val, addr, 0)
	b.AddI(i, i, 1)
	b.Jmp("head")
	b.Label("exit")
	b.Ret()
	return b.MustBuild()
}

// nestedLoop builds for i in [0,oi): for j in [0,ij): load a[i*ij+j].
func nestedLoop(oi, ij int64) *ir.Program {
	b := ir.NewBuilder("nested")
	i := b.Const(0)
	j := b.Reg()
	on := b.Const(oi)
	in := b.Const(ij)
	ci := b.Reg()
	cj := b.Reg()
	addr := b.Reg()
	val := b.Reg()
	b.Label("outer")
	b.CmpLT(ci, i, on)
	b.BrZ(ci, "done")
	b.ConstTo(j, 0)
	b.Label("inner")
	b.CmpLT(cj, j, in)
	b.BrZ(cj, "iend")
	b.Mul(addr, i, in)
	b.Add(addr, addr, j)
	b.MulI(addr, addr, 8)
	b.Load(val, addr, 1<<20)
	b.AddI(j, j, 1)
	b.Jmp("inner")
	b.Label("iend")
	b.AddI(i, i, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Ret()
	return b.MustBuild()
}

// runAnnotated executes a program and captures its trace.
func runAnnotated(t *testing.T, p *ir.Program) *trace.Trace {
	t.Helper()
	tr := trace.New(p.Name)
	m, err := interp.New(p, 1_000_000)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	if err := m.RunBatches(tr); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tr
}

// blockStats summarizes marker structure of a trace.
type blockStats struct {
	begins, ends int
	loadsInside  int
	loadsOutside int
	balanced     bool
}

func analyze(tr *trace.Trace) blockStats {
	var s blockStats
	depth := 0
	ok := true
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.BlockBegin:
			s.begins++
			depth++
			if depth > 1 {
				// Nested begin of the same block: the runtime treats
				// it as a restart, structurally tolerated.
				depth = 1
			}
		case trace.BlockEnd:
			s.ends++
			if depth > 0 {
				depth--
			}
		case trace.Load, trace.Store:
			if depth > 0 {
				s.loadsInside++
			} else {
				s.loadsOutside++
			}
		}
	}
	s.balanced = ok && depth == 0
	return s
}

func TestAnnotateSimpleLoop(t *testing.T) {
	res, err := Annotate(countedLoop(10), 0)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("annotated %d loops, want 1", len(res.Loops))
	}
	if res.Loops[0].BlockID != 0 {
		t.Errorf("block id = %d", res.Loops[0].BlockID)
	}
	tr := runAnnotated(t, res.Prog)
	s := analyze(tr)
	// 10 iterations plus the final header-test pass.
	if s.begins != 11 || s.ends < 10 {
		t.Errorf("begins=%d ends=%d", s.begins, s.ends)
	}
	if s.loadsInside != 10 || s.loadsOutside != 0 {
		t.Errorf("loads inside=%d outside=%d", s.loadsInside, s.loadsOutside)
	}
}

func TestAnnotationPreservesSemantics(t *testing.T) {
	// The annotated program must execute the same memory accesses in
	// the same order as the original.
	orig := countedLoop(25)
	res, err := Annotate(orig, 0)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	trOrig := runAnnotated(t, orig)
	trAnn := runAnnotated(t, res.Prog)
	var memOrig, memAnn []mem.Addr
	for _, e := range trOrig.Events {
		if e.IsMem() {
			memOrig = append(memOrig, e.Addr)
		}
	}
	for _, e := range trAnn.Events {
		if e.IsMem() {
			memAnn = append(memAnn, e.Addr)
		}
	}
	if len(memOrig) != len(memAnn) {
		t.Fatalf("access counts differ: %d vs %d", len(memOrig), len(memAnn))
	}
	for i := range memOrig {
		if memOrig[i] != memAnn[i] {
			t.Fatalf("access %d differs: %#x vs %#x", i, memOrig[i], memAnn[i])
		}
	}
}

func TestAnnotateInnermostOnly(t *testing.T) {
	res, err := Annotate(nestedLoop(4, 6), 0)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("annotated %d loops, want only the innermost", len(res.Loops))
	}
	tr := runAnnotated(t, res.Prog)
	s := analyze(tr)
	// Inner loop body runs 4*6 = 24 times; each inner iteration is one
	// block. Header-test passes add extra begins.
	if s.loadsInside != 24 {
		t.Errorf("loads inside = %d, want 24", s.loadsInside)
	}
	if s.begins < 24 {
		t.Errorf("begins = %d", s.begins)
	}
}

func TestTightnessThreshold(t *testing.T) {
	// With a 2-instruction threshold nothing qualifies.
	res, err := Annotate(countedLoop(5), 2)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(res.Loops) != 0 {
		t.Errorf("annotated %d loops with threshold 2", len(res.Loops))
	}
	tr := runAnnotated(t, res.Prog)
	s := analyze(tr)
	if s.begins != 0 || s.ends != 0 {
		t.Error("markers present despite threshold")
	}
}

func TestAnnotateRejectsAlreadyAnnotated(t *testing.T) {
	res, err := Annotate(countedLoop(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Annotate(res.Prog, 0); err == nil {
		t.Error("expected error annotating twice")
	}
}

func TestMultipleInnermostLoopsGetDistinctIDs(t *testing.T) {
	// Two sequential loops: both innermost, distinct block IDs.
	b := ir.NewBuilder("two")
	i := b.Const(0)
	n := b.Const(5)
	c := b.Reg()
	v := b.Reg()
	a := b.Reg()
	b.Label("l1")
	b.MulI(a, i, 8)
	b.Load(v, a, 1<<20)
	b.AddI(i, i, 1)
	b.CmpLT(c, i, n)
	b.BrNZ(c, "l1")
	b.ConstTo(i, 0)
	b.Label("l2")
	b.MulI(a, i, 8)
	b.Load(v, a, 1<<21)
	b.AddI(i, i, 1)
	b.CmpLT(c, i, n)
	b.BrNZ(c, "l2")
	b.Ret()
	res, err := Annotate(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(res.Loops))
	}
	if res.Loops[0].BlockID == res.Loops[1].BlockID {
		t.Error("block IDs not distinct")
	}
	// Execute and verify both IDs appear.
	tr := runAnnotated(t, res.Prog)
	seen := map[int]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.BlockBegin {
			seen[e.Block] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("block ids seen: %v", seen)
	}
}

func TestBranchTargetsRemapped(t *testing.T) {
	// After insertion, the annotated program must still validate and
	// terminate (covered implicitly), and every branch target must
	// point at a valid instruction.
	res, err := Annotate(nestedLoop(3, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	for idx, in := range res.Prog.Instrs {
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= len(res.Prog.Instrs) {
				t.Errorf("instr %d: target %d out of range", idx, in.Target)
			}
		}
	}
}

func TestDefaultMaxStatic(t *testing.T) {
	if DefaultMaxStatic != 64 {
		t.Errorf("DefaultMaxStatic = %d", DefaultMaxStatic)
	}
}
