package trace

import (
	"testing"

	"cbws/internal/mem"
)

func TestEventCount(t *testing.T) {
	// Every kind against every interesting N: an Instr event counts N,
	// at least 1; any other event counts 1 whatever its N carries.
	for k := Instr; k <= Branch; k++ {
		for _, n := range []int{-5, 0, 1, 3, MaxInstrCount} {
			want := 1
			if k == Instr && n > 1 {
				want = n
			}
			ev := Event{Kind: k, N: n}
			if got := ev.Count(); got != want {
				t.Errorf("Event{Kind: %v, N: %d}.Count() = %d, want %d", k, n, got, want)
			}
		}
	}
}

func TestEventIsMem(t *testing.T) {
	if !(Event{Kind: Load}).IsMem() || !(Event{Kind: Store}).IsMem() {
		t.Error("Load/Store should be memory events")
	}
	if (Event{Kind: Instr}).IsMem() || (Event{Kind: BlockBegin}).IsMem() {
		t.Error("Instr/BlockBegin should not be memory events")
	}
}

// genFunc is a test Generator whose body pushes events through emit,
// which reports false once the consumer has stopped.
type genFunc struct {
	name string
	body func(emit func(Event) bool)
}

func (g genFunc) Name() string { return g.name }

func (g genFunc) GenerateBatches(sink BatchSink) {
	b := NewBatcher(sink)
	g.body(b.Event)
	b.Flush()
}

func TestTraceCaptureReplay(t *testing.T) {
	g := genFunc{name: "g", body: func(emit func(Event) bool) {
		emit(Event{Kind: BlockBegin, Block: 3})
		emit(Event{Kind: Load, PC: 1, Addr: 100})
		emit(Event{Kind: Instr, N: 7})
		emit(Event{Kind: BlockEnd, Block: 3})
	}}
	tr := Capture(g)
	if tr.Name() != "g" {
		t.Errorf("Name = %q", tr.Name())
	}
	if len(tr.Events) != 4 {
		t.Fatalf("captured %d events", len(tr.Events))
	}
	if tr.Instructions() != 10 {
		t.Errorf("Instructions = %d, want 10", tr.Instructions())
	}
	// Replay into another trace must reproduce it.
	tr2 := New("copy")
	tr.GenerateBatches(tr2)
	if len(tr2.Events) != len(tr.Events) {
		t.Fatalf("replayed %d events", len(tr2.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != tr2.Events[i] {
			t.Errorf("event %d: %v != %v", i, tr.Events[i], tr2.Events[i])
		}
	}
}

func TestLimitTruncates(t *testing.T) {
	g := genFunc{name: "inf", body: func(emit func(Event) bool) {
		for i := 0; emit(Event{Kind: Instr, N: 10}) && emit(Event{Kind: Load, PC: 1, Addr: mem.Addr(i * 64)}); i++ {
		}
	}}
	tr := Capture(Limit{Gen: g, Max: 100})
	n := tr.Instructions()
	if n < 90 || n > 110 {
		t.Errorf("limited trace has %d instructions", n)
	}
}

// TestLimitPropagatesForeignPanic checks Limit stops its generator by
// the sink's stop signal alone and never swallows a panic.
func TestLimitPropagatesForeignPanic(t *testing.T) {
	g := genFunc{name: "boom", body: func(func(Event) bool) {
		panic("unrelated failure")
	}}
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected the foreign panic to propagate")
		}
	}()
	Limit{Gen: g, Max: 100}.GenerateBatches(New("sink"))
}

func TestLimitExactBudgetNoStop(t *testing.T) {
	// A generator that finishes within budget must not be stopped.
	g := genFunc{name: "small", body: func(emit func(Event) bool) {
		if !emit(Event{Kind: Instr, N: 5}) {
			t.Error("generator stopped within budget")
		}
	}}
	tr := Capture(Limit{Gen: g, Max: 100})
	if tr.Instructions() != 5 {
		t.Errorf("got %d instructions", tr.Instructions())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Instr: "instr", Load: "load", Store: "store",
		BlockBegin: "block_begin", BlockEnd: "block_end",
		Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
