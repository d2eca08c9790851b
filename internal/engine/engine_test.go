package engine

import (
	"testing"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// fixedMem is a MemPort with constant latencies.
type fixedMem struct {
	loadLat  uint64
	storeLat uint64
	loads    []uint64 // issue cycles observed
}

func (f *fixedMem) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	f.loads = append(f.loads, now)
	return now + f.loadLat
}

func (f *fixedMem) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return now + f.storeLat
}

// consume delivers one event to e as a one-event batch.
func consume(e *Engine, ev trace.Event) { e.ConsumeBatch([]trace.Event{ev}) }

func mustEngine(t *testing.T, memsys MemPort, blocks BlockObserver) *Engine {
	t.Helper()
	e, err := New(DefaultConfig(), memsys, blocks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	bad := Config{Width: 0, ROBEntries: 128, LDQEntries: 32, STQEntries: 32}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := New(bad, &fixedMem{}, nil); err == nil {
		t.Error("New should reject invalid config")
	}
}

func TestWidthBoundIPC(t *testing.T) {
	// Pure ALU instructions commit at the core width: IPC -> 4.
	e := mustEngine(t, &fixedMem{}, nil)
	consume(e, trace.Event{Kind: trace.Instr, N: 100000})
	s := e.Finish()
	if s.Instructions != 100000 {
		t.Fatalf("instructions = %d", s.Instructions)
	}
	if ipc := s.IPC(); ipc < 3.9 || ipc > 4.01 {
		t.Errorf("IPC = %.3f, want ~4", ipc)
	}
}

func TestLoadLatencyBoundIPC(t *testing.T) {
	// Serialized dependent-commit loads: each load blocks commit until
	// its data returns, but loads issue at dispatch so up to ROB-many
	// overlap. With one load per instruction and 100-cycle latency,
	// throughput is bounded by dispatch (stalling on ROB) — the
	// pipeline must sustain far more than 1/100 IPC.
	f := &fixedMem{loadLat: 100}
	e := mustEngine(t, f, nil)
	for i := 0; i < 1000; i++ {
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	s := e.Finish()
	// The 32-entry LDQ bounds memory-level parallelism: throughput
	// approaches 32 loads per 100 cycles = 0.32 IPC.
	ipc := s.IPC()
	if ipc < 0.25 || ipc > 0.40 {
		t.Errorf("IPC = %.3f, want ~0.32 (LDQ-bound overlap)", ipc)
	}
	if s.Loads != 1000 {
		t.Errorf("loads = %d", s.Loads)
	}
}

func TestLDQBoundsOverlap(t *testing.T) {
	// 256 loads of latency L with a 32-entry LDQ proceed in ceil(256/32)
	// = 8 serialized batches of 32 overlapping loads each.
	f := &fixedMem{loadLat: 10000}
	e := mustEngine(t, f, nil)
	for i := 0; i < 256; i++ {
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	s := e.Finish()
	if s.Cycles < 8*10000 {
		t.Errorf("cycles = %d, want >= 80000 (LDQ limits overlap)", s.Cycles)
	}
	if s.Cycles > 9*10000 {
		t.Errorf("cycles = %d: too little overlap", s.Cycles)
	}
}

func TestLDQLimitsOutstandingLoads(t *testing.T) {
	// 32-entry LDQ: load 33 must wait for load 1's completion.
	f := &fixedMem{loadLat: 1000}
	e := mustEngine(t, f, nil)
	for i := 0; i < 33; i++ {
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	if len(f.loads) != 33 {
		t.Fatalf("observed %d loads", len(f.loads))
	}
	if f.loads[32] < 1000 {
		t.Errorf("33rd load issued at %d, want >= 1000 (LDQ full)", f.loads[32])
	}
	if f.loads[31] >= 1000 {
		t.Errorf("32nd load issued at %d, should not be LDQ-stalled", f.loads[31])
	}
}

func TestStoresDoNotBlockCommit(t *testing.T) {
	// Stores retire through the store buffer: high store latency must
	// not serialize commit.
	f := &fixedMem{storeLat: 10000}
	e := mustEngine(t, f, nil)
	for i := 0; i < 30; i++ {
		consume(e, trace.Event{Kind: trace.Store, PC: 1, Addr: mem.Addr(i * 64)})
	}
	s := e.Finish()
	if s.Cycles > 100 {
		t.Errorf("cycles = %d: stores blocked commit", s.Cycles)
	}
	if s.Stores != 30 {
		t.Errorf("stores = %d", s.Stores)
	}
}

func TestMonotonicLoadIssueTimes(t *testing.T) {
	f := &fixedMem{loadLat: 77}
	e := mustEngine(t, f, nil)
	for i := 0; i < 500; i++ {
		consume(e, trace.Event{Kind: trace.Instr, N: i % 5})
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
	}
	for i := 1; i < len(f.loads); i++ {
		if f.loads[i] < f.loads[i-1] {
			t.Fatalf("load %d issued at %d before previous at %d", i, f.loads[i], f.loads[i-1])
		}
	}
}

type blockRecorder struct {
	begins, ends []int
}

func (b *blockRecorder) BlockBegin(id int) { b.begins = append(b.begins, id) }
func (b *blockRecorder) BlockEnd(id int)   { b.ends = append(b.ends, id) }

func TestBlockObserverAndResidency(t *testing.T) {
	f := &fixedMem{loadLat: 50}
	rec := &blockRecorder{}
	e := mustEngine(t, f, rec)

	// Non-loop prologue.
	consume(e, trace.Event{Kind: trace.Instr, N: 1000})
	for i := 0; i < 10; i++ {
		consume(e, trace.Event{Kind: trace.BlockBegin, Block: 7})
		consume(e, trace.Event{Kind: trace.Load, PC: 1, Addr: mem.Addr(i * 64)})
		consume(e, trace.Event{Kind: trace.Instr, N: 100})
		consume(e, trace.Event{Kind: trace.BlockEnd, Block: 7})
	}
	s := e.Finish()
	if len(rec.begins) != 10 || len(rec.ends) != 10 || rec.begins[0] != 7 {
		t.Errorf("observer: %d begins, %d ends", len(rec.begins), len(rec.ends))
	}
	if s.Blocks != 10 {
		t.Errorf("blocks = %d", s.Blocks)
	}
	res := s.LoopResidency()
	if res <= 0.3 || res >= 0.9 {
		t.Errorf("residency = %.2f, want in (0.3, 0.9)", res)
	}
}

func TestUnterminatedBlockClosedAtFinish(t *testing.T) {
	e := mustEngine(t, &fixedMem{}, nil)
	consume(e, trace.Event{Kind: trace.BlockBegin, Block: 1})
	consume(e, trace.Event{Kind: trace.Instr, N: 100})
	s := e.Finish()
	if s.Blocks != 1 {
		t.Errorf("blocks = %d, want 1 (closed at finish)", s.Blocks)
	}
	if s.LoopResidency() < 0.9 {
		t.Errorf("residency = %.2f, want ~1", s.LoopResidency())
	}
}

func TestNestedBeginIgnored(t *testing.T) {
	// A second BlockBegin while inside a block must not reset the
	// residency accounting start.
	e := mustEngine(t, &fixedMem{}, nil)
	consume(e, trace.Event{Kind: trace.BlockBegin, Block: 1})
	consume(e, trace.Event{Kind: trace.Instr, N: 50})
	consume(e, trace.Event{Kind: trace.BlockBegin, Block: 1})
	consume(e, trace.Event{Kind: trace.Instr, N: 50})
	consume(e, trace.Event{Kind: trace.BlockEnd, Block: 1})
	s := e.Finish()
	if s.Blocks != 1 {
		t.Errorf("blocks = %d, want 1", s.Blocks)
	}
	if s.LoopResidency() < 0.9 {
		t.Errorf("residency = %.2f, want ~1 (both halves inside)", s.LoopResidency())
	}
}

func TestSnapshotMidRun(t *testing.T) {
	e := mustEngine(t, &fixedMem{}, nil)
	consume(e, trace.Event{Kind: trace.Instr, N: 4000})
	snap := e.Snapshot()
	if snap.Instructions != 4000 {
		t.Errorf("snapshot instructions = %d", snap.Instructions)
	}
	if snap.Cycles < 1000 || snap.Cycles > 1100 {
		t.Errorf("snapshot cycles = %d, want ~1000", snap.Cycles)
	}
	consume(e, trace.Event{Kind: trace.Instr, N: 4000})
	s := e.Finish()
	if s.Instructions-snap.Instructions != 4000 {
		t.Errorf("delta instructions = %d", s.Instructions-snap.Instructions)
	}
	if d := s.Cycles - snap.Cycles; d < 990 || d > 1100 {
		t.Errorf("delta cycles = %d, want ~1000", d)
	}
}

func TestIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC of empty stats should be 0")
	}
	if s.LoopResidency() != 0 {
		t.Error("residency of empty stats should be 0")
	}
}

func TestNopBlocks(t *testing.T) {
	// NopBlocks must satisfy the interface and do nothing.
	var nb NopBlocks
	nb.BlockBegin(1)
	nb.BlockEnd(1)
}

// alwaysWrong is a BranchPredictor that mispredicts everything.
type alwaysWrong struct{}

func (alwaysWrong) Update(uint64, bool) bool { return false }

// alwaysRight predicts everything correctly.
type alwaysRight struct{}

func (alwaysRight) Update(uint64, bool) bool { return true }

func TestMispredictPenaltyStallsFetch(t *testing.T) {
	run := func(bp BranchPredictor) Stats {
		e := mustEngine(t, &fixedMem{}, nil)
		e.AttachBranchPredictor(bp)
		for i := 0; i < 1000; i++ {
			consume(e, trace.Event{Kind: trace.Instr, N: 3})
			consume(e, trace.Event{Kind: trace.Branch, PC: 0x40, Taken: true})
		}
		return e.Finish()
	}
	good := run(alwaysRight{})
	bad := run(alwaysWrong{})
	if bad.Mispredicts != 1000 || good.Mispredicts != 0 {
		t.Fatalf("mispredicts: good=%d bad=%d", good.Mispredicts, bad.Mispredicts)
	}
	if good.Branches != 1000 {
		t.Errorf("branches = %d", good.Branches)
	}
	// Each mispredict costs ~the refill penalty in fetch stall.
	if bad.Cycles < good.Cycles+1000*10 {
		t.Errorf("penalty not charged: good=%d bad=%d cycles", good.Cycles, bad.Cycles)
	}
}

func TestNilPredictorIsIdeal(t *testing.T) {
	e := mustEngine(t, &fixedMem{}, nil)
	for i := 0; i < 100; i++ {
		consume(e, trace.Event{Kind: trace.Branch, PC: 0x40, Taken: i%2 == 0})
	}
	s := e.Finish()
	if s.Mispredicts != 0 {
		t.Errorf("nil predictor mispredicted: %d", s.Mispredicts)
	}
	if s.Branches != 100 {
		t.Errorf("branches = %d", s.Branches)
	}
}
