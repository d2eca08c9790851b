// Package interp executes mini-IR programs and emits the committed
// instruction stream (including block markers) as trace events — the
// role the instrumented binary plays in the paper's methodology.
//
// The machine is deterministic: registers hold int64, memory is a sparse
// byte-addressed store of 8-byte words defaulting to zero, and execution
// is bounded by a step budget so malformed kernels cannot hang a run.
// Loads return the stored values, so data-dependent access patterns
// (histogram bins, pointer chases, sparse indices) behave as they do in
// the real benchmarks.
package interp

import (
	"errors"
	"fmt"

	"cbws/internal/ir"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

// ErrStepBudget reports that execution exceeded the configured budget.
var ErrStepBudget = errors.New("interp: step budget exhausted")

// PCBase is the synthetic code address of instruction 0; instruction i
// reports PC = PCBase + 4*i, giving every static memory instruction a
// distinct PC as a compiled binary would.
const PCBase = 0x400000

// Machine executes one program.
type Machine struct {
	prog    *ir.Program
	regs    []int64
	memory  map[mem.Addr]int64
	maxStep uint64

	// Steps counts executed IR instructions (markers included).
	Steps uint64
}

// New creates a machine for p with the given step budget (0 means 1e9).
func New(p *ir.Program, maxStep uint64) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if maxStep == 0 {
		maxStep = 1_000_000_000
	}
	return &Machine{
		prog:    p,
		regs:    make([]int64, p.NumRegs),
		memory:  make(map[mem.Addr]int64),
		maxStep: maxStep,
	}, nil
}

// SetWord initializes the 8-byte word at byte address addr.
func (m *Machine) SetWord(addr mem.Addr, val int64) { m.memory[addr] = val }

// Word reads back the 8-byte word at addr (0 if never written).
func (m *Machine) Word(addr mem.Addr) int64 { return m.memory[addr] }

// RunBatches executes the program from instruction 0, emitting events
// into sink through a reusable batch buffer. Consecutive non-memory
// instructions are batched into Instr events. Execution stops early —
// without error and without panicking — once the sink reports it wants
// no more events.
func (m *Machine) RunBatches(sink trace.BatchSink) error {
	b := trace.NewBatcher(sink)
	pending := 0
	// flush delivers the pending Instr batch; emit flushes and then
	// pushes one event. Both report false once the sink has stopped.
	flush := func() bool {
		if pending > 0 {
			n := pending
			pending = 0
			return b.Event(trace.Event{Kind: trace.Instr, N: n})
		}
		return !b.Stopped()
	}
	emit := func(e trace.Event) bool {
		return flush() && b.Event(e)
	}
	pc := 0
	n := len(m.prog.Instrs)
	for pc >= 0 && pc < n {
		if m.Steps >= m.maxStep {
			flush()
			b.Flush()
			return fmt.Errorf("%w (%d steps)", ErrStepBudget, m.Steps)
		}
		m.Steps++
		in := m.prog.Instrs[pc]
		next := pc + 1
		switch in.Op {
		case ir.Nop:
			pending++
		case ir.Const:
			m.regs[in.Dst] = in.Imm
			pending++
		case ir.Mov:
			m.regs[in.Dst] = m.regs[in.A]
			pending++
		case ir.Add:
			m.regs[in.Dst] = m.regs[in.A] + m.regs[in.B]
			pending++
		case ir.AddI:
			m.regs[in.Dst] = m.regs[in.A] + in.Imm
			pending++
		case ir.Sub:
			m.regs[in.Dst] = m.regs[in.A] - m.regs[in.B]
			pending++
		case ir.Mul:
			m.regs[in.Dst] = m.regs[in.A] * m.regs[in.B]
			pending++
		case ir.MulI:
			m.regs[in.Dst] = m.regs[in.A] * in.Imm
			pending++
		case ir.Div:
			if b := m.regs[in.B]; b != 0 {
				m.regs[in.Dst] = m.regs[in.A] / b
			} else {
				m.regs[in.Dst] = 0
			}
			pending++
		case ir.Mod:
			if b := m.regs[in.B]; b != 0 {
				m.regs[in.Dst] = m.regs[in.A] % b
			} else {
				m.regs[in.Dst] = 0
			}
			pending++
		case ir.And:
			m.regs[in.Dst] = m.regs[in.A] & m.regs[in.B]
			pending++
		case ir.Shl:
			m.regs[in.Dst] = m.regs[in.A] << (uint(m.regs[in.B]) & 63)
			pending++
		case ir.Shr:
			m.regs[in.Dst] = int64(uint64(m.regs[in.A]) >> (uint(m.regs[in.B]) & 63))
			pending++
		case ir.Xor:
			m.regs[in.Dst] = m.regs[in.A] ^ m.regs[in.B]
			pending++
		case ir.CmpLT:
			if m.regs[in.A] < m.regs[in.B] {
				m.regs[in.Dst] = 1
			} else {
				m.regs[in.Dst] = 0
			}
			pending++
		case ir.CmpEQ:
			if m.regs[in.A] == m.regs[in.B] {
				m.regs[in.Dst] = 1
			} else {
				m.regs[in.Dst] = 0
			}
			pending++
		case ir.Jmp:
			pending++
			next = in.Target
		case ir.BrNZ:
			taken := m.regs[in.A] != 0
			if taken {
				next = in.Target
			}
			if !emit(trace.Event{Kind: trace.Branch, PC: PCBase + uint64(pc)*4, Taken: taken}) {
				return nil
			}
		case ir.BrZ:
			taken := m.regs[in.A] == 0
			if taken {
				next = in.Target
			}
			if !emit(trace.Event{Kind: trace.Branch, PC: PCBase + uint64(pc)*4, Taken: taken}) {
				return nil
			}
		case ir.Load:
			addr := mem.Addr(m.regs[in.A] + in.Imm)
			m.regs[in.Dst] = m.memory[addr]
			if !emit(trace.Event{Kind: trace.Load, PC: PCBase + uint64(pc)*4, Addr: addr}) {
				return nil
			}
		case ir.Store:
			addr := mem.Addr(m.regs[in.A] + in.Imm)
			m.memory[addr] = m.regs[in.B]
			if !emit(trace.Event{Kind: trace.Store, PC: PCBase + uint64(pc)*4, Addr: addr}) {
				return nil
			}
		case ir.Ret:
			flush()
			b.Flush()
			return nil
		case ir.BlockBegin:
			if !emit(trace.Event{Kind: trace.BlockBegin, Block: int(in.Imm)}) {
				return nil
			}
		case ir.BlockEnd:
			if !emit(trace.Event{Kind: trace.BlockEnd, Block: int(in.Imm)}) {
				return nil
			}
		default:
			flush()
			b.Flush()
			return fmt.Errorf("interp: unknown opcode %v at %d", in.Op, pc)
		}
		pc = next
	}
	flush()
	b.Flush()
	return nil
}

// Generator wraps a program (plus optional memory initialization) as a
// trace.Generator so IR kernels plug into the simulator like any other
// workload.
type Generator struct {
	Prog    *ir.Program
	MaxStep uint64
	// Init seeds machine memory before the run.
	Init func(set func(addr mem.Addr, val int64))
}

// Name implements trace.Generator.
func (g Generator) Name() string { return g.Prog.Name }

// GenerateBatches implements trace.Generator. Execution errors (budget,
// bad opcode) terminate the stream early; validation errors panic
// because they indicate a malformed kernel, a programming error.
func (g Generator) GenerateBatches(sink trace.BatchSink) {
	m, err := New(g.Prog, g.MaxStep)
	if err != nil {
		panic(err)
	}
	if g.Init != nil {
		g.Init(m.SetWord)
	}
	_ = m.RunBatches(sink)
}
