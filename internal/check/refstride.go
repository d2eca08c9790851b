package check

import (
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// RefStrideConfig mirrors the behavioural fields of
// prefetch.StrideConfig. Zero values are NOT defaulted here: the
// differential tests construct both sides from one explicit parameter
// set.
type RefStrideConfig struct {
	TableEntries int
	Degree       int
	IssueOnHits  bool
}

type refStrideEntry struct {
	lastLine mem.LineAddr
	stride   int64
	state    int // 0 initial, 1 transient, 2 steady
	lru      uint64
	trained  bool
}

// RefStride is the naive reference for prefetch.Stride: a Go map of
// heap-allocated entries, evicted by scanning the whole map for the
// lowest LRU stamp. Every access stamps one entry with a fresh tick,
// so the LRU victim is unique and map iteration order cannot leak.
type RefStride struct {
	cfg     RefStrideConfig
	entries map[uint64]*refStrideEntry
	tick    uint64
}

// NewRefStride builds the reference stride table.
func NewRefStride(cfg RefStrideConfig) *RefStride {
	return &RefStride{cfg: cfg, entries: make(map[uint64]*refStrideEntry)}
}

func (s *RefStride) lookup(pc uint64) *refStrideEntry {
	if e, ok := s.entries[pc]; ok {
		return e
	}
	if len(s.entries) >= s.cfg.TableEntries {
		var victim uint64
		best := ^uint64(0)
		for k, e := range s.entries {
			if e.lru < best {
				best = e.lru
				victim = k
			}
		}
		delete(s.entries, victim)
	}
	e := &refStrideEntry{}
	s.entries[pc] = e
	return e
}

// OnAccess mirrors prefetch.Stride.OnAccess.
func (s *RefStride) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	s.tick++
	e := s.lookup(a.PC)
	e.lru = s.tick
	if !e.trained {
		e.trained = true
		e.lastLine = a.Line
		return
	}
	delta := a.Line.Delta(e.lastLine)
	e.lastLine = a.Line
	if delta == 0 {
		return
	}
	if delta == e.stride {
		if e.state < 2 {
			e.state++
		}
	} else {
		e.stride = delta
		e.state = 1
		return
	}
	if e.state == 2 && (s.cfg.IssueOnHits || a.Miss()) {
		for d := 1; d <= s.cfg.Degree; d++ {
			issue(a.Line.Add(e.stride * int64(d)))
		}
	}
}
