package prefetch

import (
	"cbws/internal/mem"
)

// StrideConfig parametrizes the stride prefetcher. The paper configures
// an unrealistically large 256-entry fully-associative table to give the
// baseline the benefit of the doubt (Section VII).
type StrideConfig struct {
	TableEntries int
	Degree       int // prefetch depth once a stream reaches steady state
	PCBits       int // tag width used for storage accounting (48 in Table III)
	StrideBits   int // stride width used for storage accounting (12)
	// IssueOnHits also issues prefetches from L1-hitting accesses — an
	// aggressive policy the statically-configured baseline cannot
	// afford in the paper (it would pollute non-loop phases); off by
	// default, available for ablation.
	IssueOnHits bool
}

// DefaultStrideConfig returns the Table II/III configuration.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{TableEntries: 256, Degree: 2, PCBits: 48, StrideBits: 12}
}

// Two-bit confidence state machine of the classic reference prediction
// table (Chen & Baer / Fu & Patel).
type strideState uint8

const (
	strideInitial strideState = iota
	strideTransient
	strideSteady
)

type strideEntry struct {
	pc       uint64
	lastLine mem.LineAddr
	stride   int64
	state    strideState
	lru      uint64
	trained  bool // has recorded at least one access
}

// Stride is a PC-indexed reference prediction table prefetcher. The
// table is a fixed array of TableEntries entries found through a
// fixed PC index; a full table replaces its least recently used entry
// in place. check.RefStride is the map-based reference it is pinned to.
type Stride struct {
	NoBlocks
	cfg     StrideConfig
	entries []strideEntry // entries[:n] are in use
	n       int
	index   mem.Index // PC → entries slot
	tick    uint64
}

// NewStride builds a stride prefetcher; zero-value fields of cfg fall
// back to defaults.
func NewStride(cfg StrideConfig) *Stride {
	def := DefaultStrideConfig()
	if cfg.TableEntries == 0 {
		cfg.TableEntries = def.TableEntries
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	if cfg.PCBits == 0 {
		cfg.PCBits = def.PCBits
	}
	if cfg.StrideBits == 0 {
		cfg.StrideBits = def.StrideBits
	}
	return &Stride{
		cfg:     cfg,
		entries: make([]strideEntry, cfg.TableEntries),
		index:   mem.NewIndex(cfg.TableEntries),
	}
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "stride" }

// Reset implements Prefetcher.
func (s *Stride) Reset() {
	s.n = 0
	s.index.Clear()
	s.tick = 0
}

// lookup returns pc's entry, allocating a fresh one — in place of the
// LRU entry when the table is full — on a miss. Stamps are unique per
// access, so the LRU victim is unique.
//
//cbws:hotpath
func (s *Stride) lookup(pc uint64) *strideEntry {
	if i, ok := s.index.Get(pc); ok {
		return &s.entries[i]
	}
	slot := s.n
	if s.n < len(s.entries) {
		s.n++
	} else {
		// Evict the LRU entry of the fully-associative table.
		slot = 0
		for i := 1; i < len(s.entries); i++ {
			if s.entries[i].lru < s.entries[slot].lru {
				slot = i
			}
		}
		s.index.Delete(s.entries[slot].pc)
	}
	s.index.Put(pc, slot)
	e := &s.entries[slot]
	*e = strideEntry{pc: pc}
	return e
}

// OnAccess trains the table on every demand access and prefetches
// Degree lines ahead of steady strided streams.
//
//cbws:hotpath
func (s *Stride) OnAccess(a Access, issue IssueFunc) {
	s.tick++
	e := s.lookup(a.PC)
	e.lru = s.tick
	if !e.trained {
		// Fresh entry: just record the address.
		e.trained = true
		e.lastLine = a.Line
		return
	}
	delta := a.Line.Delta(e.lastLine)
	e.lastLine = a.Line
	if delta == 0 {
		return // same line; no stream information
	}
	if delta == e.stride {
		if e.state < strideSteady {
			e.state++
		}
	} else {
		e.stride = delta
		e.state = strideTransient
		return
	}
	// The table trains on every access but, like the other static
	// baselines, issues prefetches only when the triggering access
	// missed the whole hierarchy (conservative prefetch-on-miss
	// policy for a prefetcher filling the L2).
	if e.state == strideSteady && (s.cfg.IssueOnHits || a.Miss()) {
		for d := 1; d <= s.cfg.Degree; d++ {
			issue(a.Line.Add(e.stride * int64(d)))
		}
	}
}

// StorageBits implements the Table III estimate:
// (PC + 2 × stride) × entries.
func (s *Stride) StorageBits() uint64 {
	return uint64(s.cfg.PCBits+2*s.cfg.StrideBits) * uint64(s.cfg.TableEntries)
}
