// Package engine implements the trace-driven out-of-order timing model:
// a W-wide core with an R-entry reorder buffer whose IPC responds to
// memory latency and memory-level parallelism, which is the property a
// prefetcher study needs from its core model.
//
// The model processes the committed instruction stream in program order.
// Each instruction occupies a ROB slot from dispatch to commit; loads
// start their cache access at dispatch and block commit until the data
// returns, so independent misses overlap up to the ROB size and the MSHR
// count — the same first-order behaviour as the paper's gem5 core
// (4-wide, 128-entry ROB, Table II).
//
// Internally the core clock is kept in "slot" units of 1/Width cycles so
// that fetch and commit bandwidth are enforced with integer arithmetic.
package engine

import (
	"fmt"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

// Config describes the core (Table II defaults via DefaultConfig).
type Config struct {
	Width      int // fetch/commit width
	ROBEntries int
	LDQEntries int
	STQEntries int
	// MispredictPenalty is the front-end refill charged per branch
	// misprediction, in cycles. Ignored when no predictor is attached.
	MispredictPenalty uint64
}

// DefaultConfig returns the paper's core: 4-wide, 128-entry ROB,
// 32-entry load and store queues, 15-cycle misprediction refill.
func DefaultConfig() Config {
	return Config{Width: 4, ROBEntries: 128, LDQEntries: 32, STQEntries: 32, MispredictPenalty: 15}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBEntries <= 0 || c.LDQEntries <= 0 || c.STQEntries <= 0 {
		return fmt.Errorf("engine: all structure sizes must be positive, got %+v", c)
	}
	return nil
}

// BranchPredictor is the engine's view of the branch predictor (see
// internal/branch). Update records the outcome and reports whether the
// prediction was correct.
type BranchPredictor interface {
	Update(pc uint64, outcome bool) (correct bool)
}

// MemPort is the engine's view of the memory hierarchy. Load and Store
// are called at dispatch time (cycle now) and return the cycle at which
// the access data is available. Calls are made with monotonically
// non-decreasing now.
type MemPort interface {
	Load(pc uint64, addr mem.Addr, now uint64) (readyAt uint64)
	Store(pc uint64, addr mem.Addr, now uint64) (readyAt uint64)
}

// BlockObserver receives block boundary markers in commit order. The
// prefetcher wrapper implements it; a no-op implementation is used when
// no prefetcher is attached.
type BlockObserver interface {
	BlockBegin(id int)
	BlockEnd(id int)
}

// NopBlocks is a BlockObserver that ignores all markers.
type NopBlocks struct{}

// BlockBegin implements BlockObserver.
func (NopBlocks) BlockBegin(int) {}

// BlockEnd implements BlockObserver.
func (NopBlocks) BlockEnd(int) {}

// Stats holds the engine's outputs.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	Blocks       uint64 // dynamic block (loop iteration) count
	BlockSlots   uint64 // slot-units of runtime spent inside blocks
	TotalSlots   uint64 // slot-units of total runtime
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// LoopResidency returns the fraction of runtime spent inside annotated
// blocks (Figure 1).
func (s Stats) LoopResidency() float64 {
	if s.TotalSlots == 0 {
		return 0
	}
	return float64(s.BlockSlots) / float64(s.TotalSlots)
}

// Engine is the timing model. It implements trace.BatchSink.
type Engine struct {
	cfg    Config
	memsys MemPort
	blocks BlockObserver
	bp     BranchPredictor // nil: branches always predicted correctly

	width   uint64
	fetchQ  uint64   // fetch clock, in slot units (1 slot = 1/Width cycle)
	commitQ uint64   // commit clock, in slot units
	rob     []uint64 // per-slot cycle at which the previous occupant committed
	robPos  int
	ldq     []uint64 // completion cycles of the last LDQEntries loads
	ldqPos  int
	stq     []uint64
	stqPos  int

	inBlock     bool
	blockStartQ uint64

	Stats Stats
}

// New builds an engine over the given memory port. blocks may be nil.
func New(cfg Config, memsys MemPort, blocks BlockObserver) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if blocks == nil {
		blocks = NopBlocks{}
	}
	return &Engine{
		cfg:    cfg,
		memsys: memsys,
		blocks: blocks,
		width:  uint64(cfg.Width),
		rob:    make([]uint64, cfg.ROBEntries),
		ldq:    make([]uint64, cfg.LDQEntries),
		stq:    make([]uint64, cfg.STQEntries),
	}, nil
}

// AttachBranchPredictor installs bp; a nil predictor means branches are
// always predicted correctly (an ideal front end).
func (e *Engine) AttachBranchPredictor(bp BranchPredictor) { e.bp = bp }

// ConsumeBatch implements trace.BatchSink: it processes a whole batch
// of events with the hot core state (fetch/commit clocks, ROB/LDQ/STQ
// ring positions, counters) hoisted into locals, writing it back once
// per batch. The dispatch and commit sequences are inlined at each
// event kind; they must stay line-for-line equivalent across arms —
// timing results are required to be bit-identical wherever the batch
// boundaries fall.
//
// The slot-unit clocks are decomposed into (cycle, sub-slot) pairs with
// 0 <= sub < width, i.e. fetchQ = fcyc*width + fsub, so the
// per-instruction path needs no division: dispatch advances the fetch
// clock by one slot with carry and stalls on ROB back-pressure; commit
// retires in order at the commit width (commitQ = max(complete*width,
// commitQ+1), which in decomposed form is a slot increment plus a
// cycle comparison) and frees the ROB slot. ConsumeBatch never
// requests a stop.
//
//cbws:hotpath
func (e *Engine) ConsumeBatch(batch []trace.Event) bool {
	var (
		width  = e.width
		rob    = e.rob
		robPos = e.robPos
		ldq    = e.ldq
		ldqPos = e.ldqPos
		stq    = e.stq
		stqPos = e.stqPos
		st     = e.Stats
		fcyc   = e.fetchQ / width
		fsub   = e.fetchQ % width
		ccyc   = e.commitQ / width
		csub   = e.commitQ % width
	)
	for i := range batch {
		ev := &batch[i]
		switch ev.Kind {
		case trace.Instr:
			n := ev.N
			if n <= 0 {
				n = 1
			}
			for ; n > 0; n-- {
				// dispatch
				fsub++
				if fsub == width {
					fsub = 0
					fcyc++
				}
				enter := fcyc
				if free := rob[robPos]; free > enter {
					enter = free
					fcyc = enter // fetch stalls until the slot frees
					fsub = 0
				}
				// commit(enter + 1)
				csub++
				if csub == width {
					csub = 0
					ccyc++
				}
				if enter+1 > ccyc {
					ccyc = enter + 1
					csub = 0
				}
				rob[robPos] = ccyc
				robPos++
				if robPos == len(rob) {
					robPos = 0
				}
				st.Instructions++
			}
		case trace.Load:
			// dispatch
			fsub++
			if fsub == width {
				fsub = 0
				fcyc++
			}
			enter := fcyc
			if free := rob[robPos]; free > enter {
				enter = free
				fcyc = enter
				fsub = 0
			}
			// LDQ back-pressure: at most LDQEntries loads in flight.
			if free := ldq[ldqPos]; free > enter {
				enter = free
			}
			ready := e.memsys.Load(ev.PC, ev.Addr, enter)
			ldq[ldqPos] = ready
			ldqPos++
			if ldqPos == len(ldq) {
				ldqPos = 0
			}
			// commit(ready)
			csub++
			if csub == width {
				csub = 0
				ccyc++
			}
			if ready > ccyc {
				ccyc = ready
				csub = 0
			}
			rob[robPos] = ccyc
			robPos++
			if robPos == len(rob) {
				robPos = 0
			}
			st.Instructions++
			st.Loads++
		case trace.Store:
			// dispatch
			fsub++
			if fsub == width {
				fsub = 0
				fcyc++
			}
			enter := fcyc
			if free := rob[robPos]; free > enter {
				enter = free
				fcyc = enter
				fsub = 0
			}
			if free := stq[stqPos]; free > enter {
				enter = free
			}
			ready := e.memsys.Store(ev.PC, ev.Addr, enter)
			stq[stqPos] = ready
			stqPos++
			if stqPos == len(stq) {
				stqPos = 0
			}
			// Stores retire through the store buffer without blocking
			// commit on the cache fill: commit(enter + 1).
			csub++
			if csub == width {
				csub = 0
				ccyc++
			}
			if enter+1 > ccyc {
				ccyc = enter + 1
				csub = 0
			}
			rob[robPos] = ccyc
			robPos++
			if robPos == len(rob) {
				robPos = 0
			}
			st.Instructions++
			st.Stores++
		case trace.Branch:
			// dispatch
			fsub++
			if fsub == width {
				fsub = 0
				fcyc++
			}
			enter := fcyc
			if free := rob[robPos]; free > enter {
				enter = free
				fcyc = enter
				fsub = 0
			}
			// commit(enter + 1)
			csub++
			if csub == width {
				csub = 0
				ccyc++
			}
			if enter+1 > ccyc {
				ccyc = enter + 1
				csub = 0
			}
			rob[robPos] = ccyc
			robPos++
			if robPos == len(rob) {
				robPos = 0
			}
			st.Instructions++
			st.Branches++
			if e.bp != nil && !e.bp.Update(ev.PC, ev.Taken) {
				st.Mispredicts++
				// Squash: everything fetched past the branch is discarded,
				// so younger instructions dispatch only after the branch
				// resolves plus the refill penalty. Without operand
				// tracking, the branch's commit time is the resolution
				// estimate — data-dependent branches (the ones that
				// actually mispredict) resolve when their feeding loads
				// complete, which in-order commit approximates.
				// fetchQ = max(fetchQ, commitQ + penalty*width).
				scyc := ccyc + e.cfg.MispredictPenalty
				if scyc > fcyc || (scyc == fcyc && csub > fsub) {
					fcyc = scyc
					fsub = csub
				}
			}
		case trace.BlockBegin:
			// Block markers are real (single-cycle) instructions in the
			// paper's extended ISA.
			// dispatch
			fsub++
			if fsub == width {
				fsub = 0
				fcyc++
			}
			enter := fcyc
			if free := rob[robPos]; free > enter {
				enter = free
				fcyc = enter
				fsub = 0
			}
			// commit(enter + 1)
			csub++
			if csub == width {
				csub = 0
				ccyc++
			}
			if enter+1 > ccyc {
				ccyc = enter + 1
				csub = 0
			}
			rob[robPos] = ccyc
			robPos++
			if robPos == len(rob) {
				robPos = 0
			}
			st.Instructions++
			if !e.inBlock {
				e.inBlock = true
				e.blockStartQ = ccyc*width + csub
			}
			e.blocks.BlockBegin(ev.Block)
		case trace.BlockEnd:
			// dispatch
			fsub++
			if fsub == width {
				fsub = 0
				fcyc++
			}
			enter := fcyc
			if free := rob[robPos]; free > enter {
				enter = free
				fcyc = enter
				fsub = 0
			}
			// commit(enter + 1)
			csub++
			if csub == width {
				csub = 0
				ccyc++
			}
			if enter+1 > ccyc {
				ccyc = enter + 1
				csub = 0
			}
			rob[robPos] = ccyc
			robPos++
			if robPos == len(rob) {
				robPos = 0
			}
			st.Instructions++
			if e.inBlock {
				e.inBlock = false
				st.BlockSlots += ccyc*width + csub - e.blockStartQ
				st.Blocks++
			}
			e.blocks.BlockEnd(ev.Block)
		}
	}
	if check.Enabled {
		check.Assertf(fcyc*width+fsub >= e.fetchQ,
			"engine: fetch clock moved backwards: %d -> %d", e.fetchQ, fcyc*width+fsub)
		check.Assertf(ccyc*width+csub >= e.commitQ,
			"engine: commit clock moved backwards: %d -> %d", e.commitQ, ccyc*width+csub)
	}
	e.fetchQ = fcyc*width + fsub
	e.commitQ = ccyc*width + csub
	e.robPos = robPos
	e.ldqPos = ldqPos
	e.stqPos = stqPos
	e.Stats = st
	if check.Enabled {
		e.checkROBOrder()
	}
	return true
}

// checkROBOrder verifies the ROB's FIFO property: walking the ring in
// dispatch order (oldest slot first, starting at robPos), the recorded
// commit cycles must be non-decreasing, because the engine commits in
// program order. Called once per batch under check.Enabled.
func (e *Engine) checkROBOrder() {
	prev := uint64(0)
	for i := 0; i < len(e.rob); i++ {
		c := e.rob[(e.robPos+i)%len(e.rob)]
		check.Assertf(c >= prev,
			"engine: ROB FIFO order violated at ring offset %d: commit %d after %d", i, c, prev)
		prev = c
	}
}

// ROBOccupancy returns the number of reorder-buffer entries whose
// instruction has dispatched but not yet committed at the current fetch
// point — the in-flight window the next instruction contends with. It
// is an observability accessor (probes sample it every interval); the
// scan over the ROB ring is O(ROBEntries) and stays off the per-event
// hot path.
func (e *Engine) ROBOccupancy() int {
	fcyc := e.fetchQ / e.width
	n := 0
	for _, freeAt := range e.rob {
		if freeAt > fcyc {
			n++
		}
	}
	return n
}

func (e *Engine) Snapshot() Stats {
	s := e.Stats
	s.Cycles = (e.commitQ + e.width - 1) / e.width
	s.TotalSlots = e.commitQ
	if e.inBlock {
		s.BlockSlots += e.commitQ - e.blockStartQ
	}
	return s
}

// Finish settles the clocks and returns the final statistics.
func (e *Engine) Finish() Stats {
	if e.inBlock {
		e.inBlock = false
		e.Stats.BlockSlots += e.commitQ - e.blockStartQ
		e.Stats.Blocks++
	}
	e.Stats.Cycles = (e.commitQ + e.width - 1) / e.width
	e.Stats.TotalSlots = e.commitQ
	return e.Stats
}
