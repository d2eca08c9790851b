package check

import (
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// RefGHBConfig mirrors the behavioural fields of prefetch.GHBConfig.
// Zero values are NOT defaulted here.
type RefGHBConfig struct {
	PCDC          bool // per-PC streams (GHB PC/DC) instead of one global stream
	BufferEntries int
	HistoryLength int
	Degree        int
	TrainOnHits   bool
}

type refGHBEntry struct {
	line    mem.LineAddr
	seq     uint64
	prevSeq uint64
	hasPrev bool
}

// RefGHB is the naive reference for prefetch.GHB: a circular buffer
// addressed by sequence number modulo its size, an index map from key
// to the newest sequence number of that key, and a liveness test on
// every link. The index may hold dead sequence numbers; it is purged
// of them whenever it outgrows the buffer.
type RefGHB struct {
	cfg   RefGHBConfig
	buf   []refGHBEntry
	seq   uint64
	index map[uint64]uint64
}

// NewRefGHB builds the reference GHB.
func NewRefGHB(cfg RefGHBConfig) *RefGHB {
	return &RefGHB{cfg: cfg, buf: make([]refGHBEntry, cfg.BufferEntries), index: make(map[uint64]uint64)}
}

func (g *RefGHB) live(s uint64) (*refGHBEntry, bool) {
	e := &g.buf[s%uint64(len(g.buf))]
	return e, e.seq == s && (g.seq-s) <= uint64(len(g.buf))
}

func (g *RefGHB) push(key uint64, line mem.LineAddr) uint64 {
	s := g.seq
	g.seq++
	e := &g.buf[s%uint64(len(g.buf))]
	*e = refGHBEntry{line: line, seq: s}
	if prev, ok := g.index[key]; ok {
		if _, alive := g.live(prev); alive {
			e.prevSeq = prev
			e.hasPrev = true
		}
	}
	g.index[key] = s
	if len(g.index) > len(g.buf) {
		for k, v := range g.index {
			if _, alive := g.live(v); !alive {
				delete(g.index, k)
			}
		}
	}
	return s
}

func (g *RefGHB) stream(s uint64, max int) []mem.LineAddr {
	var out []mem.LineAddr
	for len(out) < max {
		e, alive := g.live(s)
		if !alive {
			break
		}
		out = append(out, e.line)
		if !e.hasPrev {
			break
		}
		s = e.prevSeq
	}
	return out
}

// OnAccess mirrors prefetch.GHB.OnAccess.
func (g *RefGHB) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	if !g.cfg.TrainOnHits && !a.Miss() {
		return
	}
	key := uint64(0)
	if g.cfg.PCDC {
		key = a.PC
	}
	s := g.push(key, a.Line)
	walk := 8 * (g.cfg.HistoryLength + g.cfg.Degree)
	if walk > g.cfg.BufferEntries {
		walk = g.cfg.BufferEntries
	}
	addrs := g.stream(s, walk)
	if len(addrs) < g.cfg.HistoryLength+1 {
		return
	}
	n := len(addrs) - 1
	deltas := make([]int64, n)
	for i := 0; i < n; i++ {
		deltas[i] = addrs[i].Delta(addrs[i+1])
	}
	keyLen := g.cfg.HistoryLength - 1
	if keyLen < 1 {
		keyLen = 1
	}
	if n < keyLen+1 {
		return
	}
	match := -1
	for j := 1; j+keyLen <= n; j++ {
		same := true
		for k := 0; k < keyLen; k++ {
			if deltas[j+k] != deltas[k] {
				same = false
				break
			}
		}
		if same {
			match = j
			break
		}
	}
	if match < 0 {
		return
	}
	addr := addrs[0]
	for k := 0; k < g.cfg.Degree; k++ {
		addr = addr.Add(deltas[match-1-k%match])
		issue(addr)
	}
}
