package prefetch

import (
	"cbws/internal/mem"
)

// GHBIndexMode selects how the global history buffer is keyed.
type GHBIndexMode int

const (
	// GlobalDC is GHB G/DC: a single global miss stream with delta
	// correlation.
	GlobalDC GHBIndexMode = iota
	// PCDC is GHB PC/DC: per-PC miss streams with delta correlation.
	PCDC
)

func (m GHBIndexMode) String() string {
	if m == GlobalDC {
		return "ghb-g/dc"
	}
	return "ghb-pc/dc"
}

// GHBConfig parametrizes the GHB prefetcher (Table II: 256 entries,
// history length 3, prefetch degree 3).
type GHBConfig struct {
	Mode          GHBIndexMode
	BufferEntries int
	HistoryLength int // deltas in the correlation key window
	Degree        int
	// TrainOnHits also records cache hits in the buffer and triggers
	// on them. The paper's GHB records misses and prefetches only on
	// misses — the static-policy limitation Section II contrasts the
	// compiler-hinted CBWS prefetcher against, which may track L1 hits
	// inside annotated loops.
	TrainOnHits bool
	StrideBits  int // Table III accounting
	PCBits      int
}

// DefaultGHBConfig returns the Table II configuration for the given mode.
func DefaultGHBConfig(mode GHBIndexMode) GHBConfig {
	return GHBConfig{
		Mode:          mode,
		BufferEntries: 256,
		HistoryLength: 3,
		Degree:        3,
		StrideBits:    12,
		PCBits:        48,
	}
}

// ghbEntry is one slot of the circular global history buffer. prevSeq
// and prevSlot link to the previous entry with the same index key; the
// link is valid only while that entry has not been overwritten, that
// is while buf[prevSlot].seq == prevSeq.
type ghbEntry struct {
	line     mem.LineAddr
	seq      uint64
	key      uint64 // index key, so an overwrite can retire its index entry
	prevSeq  uint64
	prevSlot int
	hasPrev  bool
}

// GHB is the global history buffer prefetcher of Nesbit & Smith, in
// either global (G/DC) or PC-localized (PC/DC) delta-correlation mode.
//
// The buffer is a ring advanced by a wrapping slot counter, and every
// link carries its target's slot, so neither push nor the history walk
// divides. The index table maps each key to the slot of its newest
// entry, and only while that entry is live: a push that overwrites a
// key's head deletes the key. check.RefGHB is the map-based reference
// it is pinned to.
type GHB struct {
	NoBlocks
	cfg    GHBConfig
	buf    []ghbEntry
	seq    uint64 // sequence number of the next push
	next   int    // slot of the next push
	index  mem.Index
	walk   int     // most entries one history walk visits
	keyLen int     // deltas in the correlation key
	deltas []int64 // history-walk deltas, newest first
}

// NewGHB builds a GHB prefetcher; zero-value fields fall back to the
// defaults for cfg.Mode.
func NewGHB(cfg GHBConfig) *GHB {
	def := DefaultGHBConfig(cfg.Mode)
	if cfg.BufferEntries == 0 {
		cfg.BufferEntries = def.BufferEntries
	}
	if cfg.HistoryLength == 0 {
		cfg.HistoryLength = def.HistoryLength
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	if cfg.StrideBits == 0 {
		cfg.StrideBits = def.StrideBits
	}
	if cfg.PCBits == 0 {
		cfg.PCBits = def.PCBits
	}
	// The history walk is capped well below the buffer size: delta
	// correlation only needs enough history to find a recent
	// recurrence, and a bounded walk matches the constant-time
	// hardware lookup.
	walk := min(8*(cfg.HistoryLength+cfg.Degree), cfg.BufferEntries)
	// Correlation key: the HistoryLength-1 most recent deltas
	// (Nesbit & Smith use a delta pair for history length 3).
	keyLen := max(cfg.HistoryLength-1, 1)
	return &GHB{
		cfg:    cfg,
		buf:    make([]ghbEntry, cfg.BufferEntries),
		index:  mem.NewIndex(cfg.BufferEntries),
		walk:   walk,
		keyLen: keyLen,
		deltas: make([]int64, walk),
	}
}

// Name implements Prefetcher.
func (g *GHB) Name() string { return g.cfg.Mode.String() }

// Reset implements Prefetcher.
func (g *GHB) Reset() {
	clear(g.buf)
	g.index.Clear()
	g.seq = 0
	g.next = 0
}

//cbws:hotpath
func (g *GHB) key(pc uint64) uint64 {
	if g.cfg.Mode == PCDC {
		return pc
	}
	return 0
}

// push inserts a miss address into the buffer and links it to the
// previous live entry with the same key. It returns the new slot.
//
//cbws:hotpath
func (g *GHB) push(key uint64, line mem.LineAddr) int {
	slot := g.next
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
	}
	e := &g.buf[slot]
	if g.seq >= uint64(len(g.buf)) {
		// Overwriting the oldest entry: if it is still its key's
		// head, the key has no live entry left.
		if head, ok := g.index.Get(e.key); ok && head == slot {
			g.index.Delete(e.key)
		}
	}
	*e = ghbEntry{line: line, seq: g.seq, key: key}
	g.seq++
	if prev, ok := g.index.Get(key); ok {
		e.prevSeq = g.buf[prev].seq
		e.prevSlot = prev
		e.hasPrev = true
	}
	g.index.Put(key, slot)
	return slot
}

// OnAccess implements the delta-correlation lookup: on a triggering
// access, walk the key stream back from the new entry, forming deltas
// newest first; the HistoryLength-1 most recent deltas are the
// correlation key, and the most recent earlier occurrence of that delta
// window locates the history to replay: the deltas that followed it.
//
// The walk stops at the first match. Window j (deltas j..j+keyLen-1)
// is complete once its oldest delta has been formed, so testing each
// window as its last delta arrives visits windows in increasing j, the
// order an eager search over the whole walk would, and stops at the
// same match. On a strided stream the match is window 1, and the walk
// visits keyLen+2 entries instead of the whole bound.
//
//cbws:hotpath
func (g *GHB) OnAccess(a Access, issue IssueFunc) {
	// The paper's GHB records cache misses and prefetches only when a
	// miss occurs — the conservative static policy whose every-5th-
	// access residual Figure 3 illustrates. TrainOnHits lifts the
	// restriction for ablation studies.
	if !g.cfg.TrainOnHits && !a.Miss() {
		return
	}
	e := &g.buf[g.push(g.key(a.PC), a.Line)]

	// deltas[i] is the key stream's i-th newest delta: the i-th
	// visited address minus the next older one. The walk visits at
	// most g.walk entries, and stops where the stream begins or a
	// link breaks (the entry it named was overwritten since).
	deltas := g.deltas
	keyLen := g.keyLen
	n, match := 0, -1
	for visited := 1; visited < g.walk && e.hasPrev; visited++ {
		prev := &g.buf[e.prevSlot]
		if prev.seq != e.prevSeq {
			break // overwritten since the link was made
		}
		deltas[n] = e.line.Delta(prev.line)
		n++
		e = prev
		// The new delta completes window j = n-keyLen.
		if j := n - keyLen; j >= 1 && windowMatch(deltas, j, keyLen) {
			match = j
			break
		}
	}
	if match < 0 {
		return
	}
	// The deltas that followed the matched occurrence (the ones newer
	// than it) are the prediction, applied oldest-to-newest from the
	// current address. When the prefetch degree exceeds the distance to
	// the match, the delta sequence is treated as periodic and replayed
	// — for a constant stride (period 1) this degenerates to classic
	// degree-deep stride prefetching, as in Nesbit & Smith.
	addr := a.Line
	j := match - 1
	for k := 0; k < g.cfg.Degree; k++ {
		addr = addr.Add(deltas[j])
		issue(addr)
		if j--; j < 0 {
			j = match - 1
		}
	}
}

// windowMatch reports whether deltas[j:j+keyLen] repeats the
// correlation key deltas[:keyLen].
//
//cbws:hotpath
func windowMatch(deltas []int64, j, keyLen int) bool {
	for k := 0; k < keyLen; k++ {
		if deltas[j+k] != deltas[k] {
			return false
		}
	}
	return true
}

// StorageBits implements the Table III estimates:
// G/DC:  (3 history strides + 3 prefetch strides) × 256
// PC/DC: G/DC + PC × 256.
func (g *GHB) StorageBits() uint64 {
	bits := uint64(2*g.cfg.HistoryLength*g.cfg.StrideBits) * uint64(g.cfg.BufferEntries)
	if g.cfg.Mode == PCDC {
		bits += uint64(g.cfg.PCBits) * uint64(g.cfg.BufferEntries)
	}
	return bits
}
