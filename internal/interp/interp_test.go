package interp

import (
	"errors"
	"testing"

	"cbws/internal/ir"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

func run(t *testing.T, p *ir.Program, init func(m *Machine)) (*Machine, *trace.Trace) {
	t.Helper()
	m, err := New(p, 1_000_000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if init != nil {
		init(m)
	}
	tr := trace.New(p.Name)
	if err := m.RunBatches(tr); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, tr
}

func TestArithmetic(t *testing.T) {
	b := ir.NewBuilder("arith")
	a := b.Const(10)
	c := b.Const(3)
	sum := b.Reg()
	diff := b.Reg()
	prod := b.Reg()
	quot := b.Reg()
	rem := b.Reg()
	sh := b.Reg()
	b.Add(sum, a, c)
	b.Sub(diff, a, c)
	b.Mul(prod, a, c)
	b.Div(quot, a, c)
	b.Mod(rem, a, c)
	b.Shl(sh, a, c)
	out := b.Const(1 << 16)
	b.Store(out, 0, sum)
	b.Store(out, 8, diff)
	b.Store(out, 16, prod)
	b.Store(out, 24, quot)
	b.Store(out, 32, rem)
	b.Store(out, 40, sh)
	b.Ret()
	m, _ := run(t, b.MustBuild(), nil)
	want := map[mem.Addr]int64{
		1 << 16: 13, 1<<16 + 8: 7, 1<<16 + 16: 30,
		1<<16 + 24: 3, 1<<16 + 32: 1, 1<<16 + 40: 80,
	}
	for addr, v := range want {
		if got := m.Word(addr); got != v {
			t.Errorf("word[%#x] = %d, want %d", addr, got, v)
		}
	}
}

func TestDivModByZero(t *testing.T) {
	b := ir.NewBuilder("divz")
	a := b.Const(10)
	z := b.Const(0)
	q := b.Reg()
	r := b.Reg()
	b.Div(q, a, z)
	b.Mod(r, a, z)
	out := b.Const(1 << 16)
	b.Store(out, 0, q)
	b.Store(out, 8, r)
	b.Ret()
	m, _ := run(t, b.MustBuild(), nil)
	if m.Word(1<<16) != 0 || m.Word(1<<16+8) != 0 {
		t.Error("div/mod by zero should produce 0")
	}
}

func TestLoadStoreThroughMemory(t *testing.T) {
	b := ir.NewBuilder("mem")
	addr := b.Const(0x8000)
	v := b.Reg()
	w := b.Reg()
	b.Load(v, addr, 0) // reads pre-initialized word
	b.AddI(w, v, 5)
	b.Store(addr, 8, w)
	b.Ret()
	m, tr := run(t, b.MustBuild(), func(m *Machine) { m.SetWord(0x8000, 37) })
	if got := m.Word(0x8008); got != 42 {
		t.Errorf("stored %d, want 42", got)
	}
	// Trace contains a load then a store with correct addresses.
	var memEvents []trace.Event
	for _, e := range tr.Events {
		if e.IsMem() {
			memEvents = append(memEvents, e)
		}
	}
	if len(memEvents) != 2 || memEvents[0].Kind != trace.Load || memEvents[1].Kind != trace.Store {
		t.Fatalf("mem events: %v", memEvents)
	}
	if memEvents[0].Addr != 0x8000 || memEvents[1].Addr != 0x8008 {
		t.Errorf("addresses: %#x %#x", memEvents[0].Addr, memEvents[1].Addr)
	}
}

func TestDistinctPCsPerStaticInstruction(t *testing.T) {
	b := ir.NewBuilder("pcs")
	a1 := b.Const(0x1000)
	a2 := b.Const(0x2000)
	v := b.Reg()
	b.Load(v, a1, 0)
	b.Load(v, a2, 0)
	b.Ret()
	_, tr := run(t, b.MustBuild(), nil)
	var pcs []uint64
	for _, e := range tr.Events {
		if e.Kind == trace.Load {
			pcs = append(pcs, e.PC)
		}
	}
	if len(pcs) != 2 || pcs[0] == pcs[1] {
		t.Errorf("pcs = %v, want two distinct", pcs)
	}
	if pcs[0] < PCBase {
		t.Errorf("pc %#x below PCBase", pcs[0])
	}
}

func TestInstrBatching(t *testing.T) {
	b := ir.NewBuilder("batch")
	r := b.Const(0)
	for i := 0; i < 10; i++ {
		b.AddI(r, r, 1)
	}
	addr := b.Const(0x4000)
	v := b.Reg()
	b.Load(v, addr, 0)
	b.Ret()
	_, tr := run(t, b.MustBuild(), nil)
	// All leading ALU ops must batch into one Instr event before the load.
	if tr.Events[0].Kind != trace.Instr || tr.Events[0].Count() < 10 {
		t.Errorf("first event = %v", tr.Events[0])
	}
}

func TestLoopExecution(t *testing.T) {
	// Sum 1..10 via a loop.
	b := ir.NewBuilder("sumloop")
	i := b.Const(0)
	n := b.Const(10)
	sum := b.Const(0)
	cond := b.Reg()
	b.Label("head")
	b.CmpLT(cond, i, n)
	b.BrZ(cond, "exit")
	b.AddI(i, i, 1)
	b.Add(sum, sum, i)
	b.Jmp("head")
	b.Label("exit")
	out := b.Const(0x6000)
	b.Store(out, 0, sum)
	b.Ret()
	m, _ := run(t, b.MustBuild(), nil)
	if got := m.Word(0x6000); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestStepBudget(t *testing.T) {
	b := ir.NewBuilder("infinite")
	b.Label("spin")
	b.Nop()
	b.Jmp("spin")
	m, err := New(b.MustBuild(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunBatches(trace.New("x"))
	if !errors.Is(err, ErrStepBudget) {
		t.Errorf("err = %v, want ErrStepBudget", err)
	}
	if m.Steps != 1000 {
		t.Errorf("steps = %d", m.Steps)
	}
}

func TestBlockMarkersEmitted(t *testing.T) {
	p := &ir.Program{Name: "markers", NumRegs: 1, Instrs: []ir.Instr{
		{Op: ir.BlockBegin, Imm: 3},
		{Op: ir.Const, Dst: 0, Imm: 1},
		{Op: ir.BlockEnd, Imm: 3},
		{Op: ir.Ret},
	}}
	m, err := New(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("markers")
	if err := m.RunBatches(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Kind != trace.BlockBegin || tr.Events[0].Block != 3 {
		t.Errorf("events: %v", tr.Events)
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Kind != trace.BlockEnd {
		t.Errorf("last event: %v", last)
	}
}

func TestGeneratorWrapper(t *testing.T) {
	b := ir.NewBuilder("gen")
	addr := b.Const(0x9000)
	v := b.Reg()
	b.Load(v, addr, 0)
	b.Ret()
	g := Generator{
		Prog: b.MustBuild(),
		Init: func(set func(mem.Addr, int64)) { set(0x9000, 7) },
	}
	if g.Name() != "gen" {
		t.Errorf("name = %q", g.Name())
	}
	tr := trace.Capture(g)
	found := false
	for _, e := range tr.Events {
		if e.Kind == trace.Load && e.Addr == 0x9000 {
			found = true
		}
	}
	if !found {
		t.Error("generator did not emit the load")
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	if _, err := New(&ir.Program{Name: "bad"}, 0); err == nil {
		t.Error("expected validation error")
	}
}

func TestDataDependentControlFlow(t *testing.T) {
	// Branch on a loaded value: the histo pattern.
	b := ir.NewBuilder("datadep")
	addr := b.Const(0x7000)
	v := b.Reg()
	out := b.Const(0x7100)
	one := b.Const(1)
	b.Load(v, addr, 0)
	b.BrZ(v, "skip")
	b.Store(out, 0, one)
	b.Label("skip")
	b.Ret()
	m, _ := run(t, b.MustBuild(), func(m *Machine) { m.SetWord(0x7000, 1) })
	if m.Word(0x7100) != 1 {
		t.Error("taken path not executed")
	}
	m2, _ := run(t, b.MustBuild(), nil) // word defaults to 0
	if m2.Word(0x7100) != 0 {
		t.Error("not-taken path executed")
	}
}

func TestBitwiseOps(t *testing.T) {
	b := ir.NewBuilder("bits")
	a := b.Const(0b1100)
	c := b.Const(0b1010)
	andR := b.Reg()
	xorR := b.Reg()
	shrR := b.Reg()
	movR := b.Reg()
	eqR := b.Reg()
	two := b.Const(2)
	b.And(andR, a, c)
	b.Xor(xorR, a, c)
	b.Shr(shrR, a, two)
	b.Mov(movR, a)
	b.CmpEQ(eqR, a, a)
	b.Nop()
	out := b.Const(0x5000)
	b.Store(out, 0, andR)
	b.Store(out, 8, xorR)
	b.Store(out, 16, shrR)
	b.Store(out, 24, movR)
	b.Store(out, 32, eqR)
	b.Ret()
	m, _ := run(t, b.MustBuild(), nil)
	want := map[mem.Addr]int64{
		0x5000: 0b1000, 0x5008: 0b0110, 0x5010: 0b11, 0x5018: 0b1100, 0x5020: 1,
	}
	for addr, v := range want {
		if got := m.Word(addr); got != v {
			t.Errorf("word[%#x] = %d, want %d", addr, got, v)
		}
	}
}

func TestBranchEventsEmitted(t *testing.T) {
	b := ir.NewBuilder("br")
	i := b.Const(0)
	n := b.Const(4)
	cond := b.Reg()
	b.Label("loop")
	b.AddI(i, i, 1)
	b.CmpLT(cond, i, n)
	b.BrNZ(cond, "loop")
	b.Ret()
	_, tr := run(t, b.MustBuild(), nil)
	var branches, taken int
	for _, e := range tr.Events {
		if e.Kind == trace.Branch {
			branches++
			if e.Taken {
				taken++
			}
		}
	}
	// 4 iterations: 3 taken back edges + 1 not-taken exit.
	if branches != 4 || taken != 3 {
		t.Errorf("branches=%d taken=%d, want 4/3", branches, taken)
	}
}
