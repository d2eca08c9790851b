package learned

import (
	"math/bits"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// GazeConfig parametrizes the Gaze-style spatial prefetcher. The
// design follows Chen et al. (2024): spatial footprints are recorded
// per region like SMS, but the pattern signature is the *pair* of the
// trigger PC and the offsets of the first two distinct lines touched —
// the intra-region temporal order — which disambiguates patterns that
// share a trigger PC. Replay is confidence-gated and re-issues the
// recorded touch order first, so the earliest-needed lines arrive
// first. Zero-value fields fall back to defaults.
type GazeConfig struct {
	// RegionBytes is the spatial-region granularity (default 4096,
	// one page = 64 lines; must be a power of two ≥ 2 lines, ≤ 4096
	// lines so a footprint fits the fixed bitmap words).
	RegionBytes int
	// ActiveEntries is the number of regions whose generations are
	// recorded concurrently (default 64, LRU by unique tick).
	ActiveEntries int
	// PatternEntries sizes the direct-mapped pattern table (default
	// 512, rounded up to a power of two).
	PatternEntries int
	// OrderLines is how many leading touches of a generation are
	// recorded in temporal order and replayed first (default 8,
	// max 16).
	OrderLines int
	// ConfMax / ConfThreshold bound the per-pattern saturating
	// confidence counter and gate replay (defaults 3 / 2).
	ConfMax       int8
	ConfThreshold int8
}

// DefaultGazeConfig returns the default configuration: 4KB regions, a
// 64-entry active table, 512 direct-mapped patterns, 8 ordered lines
// and a 2-of-3 confidence gate.
func DefaultGazeConfig() GazeConfig {
	return GazeConfig{
		RegionBytes:    4096,
		ActiveEntries:  64,
		PatternEntries: 512,
		OrderLines:     8,
		ConfMax:        3,
		ConfThreshold:  2,
	}
}

func (c GazeConfig) withDefaults() GazeConfig {
	d := DefaultGazeConfig()
	if c.RegionBytes == 0 {
		c.RegionBytes = d.RegionBytes
	}
	if c.ActiveEntries == 0 {
		c.ActiveEntries = d.ActiveEntries
	}
	if c.PatternEntries == 0 {
		c.PatternEntries = d.PatternEntries
	}
	c.PatternEntries = nextPow2(c.PatternEntries)
	if c.OrderLines == 0 {
		c.OrderLines = d.OrderLines
	}
	if c.OrderLines > gazeMaxOrder {
		c.OrderLines = gazeMaxOrder
	}
	if c.ConfMax == 0 {
		c.ConfMax = d.ConfMax
	}
	if c.ConfThreshold == 0 {
		c.ConfThreshold = d.ConfThreshold
	}
	return c
}

// gazeMaxOrder bounds the recorded touch order (fits the fixed array).
const gazeMaxOrder = 16

// gazeMaxRegionLines bounds the region footprint bitmap (64 lines =
// one uint64 word per entry; larger regions use multiple words).
const gazeMaxRegionWords = 64 // up to 4096 lines per region

// GazeStats counts prefetcher-internal events; the reference model
// mirrors it field for field.
type GazeStats struct {
	Generations       uint64 // region generations committed to the pattern table
	SingleLine        uint64 // generations dropped for touching a single line
	PatternsLearned   uint64 // commits that created or overwrote a pattern entry
	PatternsConfirmed uint64 // commits matching the stored footprint (conf++)
	PatternsDiverged  uint64 // commits differing from the stored footprint (conf--)
	Replays           uint64 // trigger pairs that replayed a confident pattern
	LinesPrefetched   uint64 // lines issued by replay
}

// gazeActive is one in-flight region generation: the footprint
// accumulated so far plus the temporal order of its leading touches.
type gazeActive struct {
	valid     bool
	replaying bool // replay already fired for this generation
	region    uint64
	pc        uint64
	off1      int16 // first distinct line offset
	off2      int16 // second distinct line offset, -1 until seen
	footprint [gazeMaxRegionWords]uint64
	order     [gazeMaxOrder]uint8
	orderLen  int
	lru       uint64
}

// gazePattern is one learned pattern: the trigger signature tag, the
// final footprint of the last generation(s), the touch order and a
// saturating confidence counter.
type gazePattern struct {
	valid     bool
	tag       uint32
	footprint [gazeMaxRegionWords]uint64
	order     [gazeMaxOrder]uint8
	orderLen  int
	conf      int8
}

// Gaze is the spatial-pattern prefetcher. All state is preallocated
// in Reset; OnAccess never allocates.
type Gaze struct {
	prefetch.NoBlocks
	cfg         GazeConfig
	regionLines int  // lines per region
	regionShift uint // line-address shift to region number
	regionWords int  // footprint bitmap words in use
	patMask     uint32

	active    []gazeActive
	activeIdx mem.Index // region → slot of each valid active entry
	patterns  []gazePattern

	tick uint64

	Stats GazeStats
}

var (
	_ prefetch.Prefetcher       = (*Gaze)(nil)
	_ prefetch.EvictionObserver = (*Gaze)(nil)
)

// NewGaze builds a Gaze-style prefetcher; zero-value fields of cfg
// fall back to defaults.
func NewGaze(cfg GazeConfig) *Gaze {
	cfg = cfg.withDefaults()
	g := &Gaze{cfg: cfg}
	g.Reset()
	return g
}

// Name implements prefetch.Prefetcher.
func (g *Gaze) Name() string { return "gaze" }

// Config returns the active configuration.
func (g *Gaze) Config() GazeConfig { return g.cfg }

// Reset implements prefetch.Prefetcher, preallocating every structure
// the hot path touches.
func (g *Gaze) Reset() {
	c := g.cfg
	g.regionLines = c.RegionBytes >> mem.LineShift
	if g.regionLines < 2 {
		g.regionLines = 2
	}
	if g.regionLines > gazeMaxRegionWords*64 {
		g.regionLines = gazeMaxRegionWords * 64
	}
	g.regionShift = mem.Log2(uint64(g.regionLines))
	g.regionLines = 1 << g.regionShift
	g.regionWords = (g.regionLines + 63) / 64
	g.patMask = uint32(c.PatternEntries - 1)
	g.active = make([]gazeActive, c.ActiveEntries)
	g.activeIdx = mem.NewIndex(c.ActiveEntries)
	g.patterns = make([]gazePattern, c.PatternEntries)
	g.tick = 0
	g.Stats = GazeStats{}
}

// signature hashes the trigger pair — PC plus the first two distinct
// line offsets of the generation — into the pattern table. The formula
// is part of the reference contract: check.RefGaze re-implements it
// verbatim.
//
//cbws:hotpath
func gazeSignature(pc uint64, off1, off2 int16) uint32 {
	s := (uint32(pc) ^ uint32(pc>>32)) * 0x9E3779B1
	s ^= uint32(uint16(off1)) * 0x85EBCA6B
	s = s<<9 | s>>23
	s ^= uint32(uint16(off2)) * 0xC2B2AE35
	return s
}

// allocActive claims a slot for a new generation, committing and
// evicting the least-recently-used entry when the table is full.
// Ticks are unique, so the LRU victim is unambiguous.
//
//cbws:hotpath
func (g *Gaze) allocActive() int {
	victim := -1
	for i := range g.active {
		if !g.active[i].valid {
			return i
		}
		if victim < 0 || g.active[i].lru < g.active[victim].lru {
			victim = i
		}
	}
	g.commit(victim)
	return victim
}

// commit retires an active generation into the pattern table: single-
// line generations are dropped; otherwise the trigger-pair signature
// selects a direct-mapped entry whose confidence is trained up on a
// footprint match and down (to eventual replacement) on divergence.
//
//cbws:hotpath
func (g *Gaze) commit(idx int) {
	e := &g.active[idx]
	e.valid = false
	g.activeIdx.Delete(e.region)
	if e.off2 < 0 {
		g.Stats.SingleLine++
		return
	}
	g.Stats.Generations++
	s := gazeSignature(e.pc, e.off1, e.off2)
	p := &g.patterns[(s^s>>16)&g.patMask]
	if !p.valid || p.tag != s {
		p.valid = true
		p.tag = s
		p.footprint = e.footprint
		p.order = e.order
		p.orderLen = e.orderLen
		p.conf = 1
		g.Stats.PatternsLearned++
		return
	}
	if p.footprint == e.footprint {
		if p.conf < g.cfg.ConfMax {
			p.conf++
		}
		p.order = e.order
		p.orderLen = e.orderLen
		g.Stats.PatternsConfirmed++
		return
	}
	g.Stats.PatternsDiverged++
	p.conf--
	if p.conf <= 0 {
		p.tag = s
		p.footprint = e.footprint
		p.order = e.order
		p.orderLen = e.orderLen
		p.conf = 1
		g.Stats.PatternsLearned++
	}
}

// replay issues a confident pattern for a fresh generation: the
// recorded touch order first (earliest-needed lines, skipping the two
// trigger offsets already demanded), then the rest of the footprint in
// ascending offset order.
//
//cbws:hotpath
func (g *Gaze) replay(e *gazeActive, p *gazePattern, base mem.LineAddr, issue prefetch.IssueFunc) {
	g.Stats.Replays++
	for i := 0; i < p.orderLen; i++ {
		off := int16(p.order[i])
		if off == e.off1 || off == e.off2 {
			continue
		}
		issue(base.Add(int64(off)))
		g.Stats.LinesPrefetched++
	}
	for w := 0; w < g.regionWords; w++ {
		fp := p.footprint[w]
		for fp != 0 {
			b := bits.TrailingZeros64(fp)
			fp &= fp - 1
			off := int16(w*64 + b)
			if off == e.off1 || off == e.off2 || inOrder(p, off) {
				continue
			}
			issue(base.Add(int64(off)))
			g.Stats.LinesPrefetched++
		}
	}
}

// inOrder reports whether off is among the pattern's ordered touches
// (already issued by the first replay loop).
//
//cbws:hotpath
func inOrder(p *gazePattern, off int16) bool {
	for i := 0; i < p.orderLen; i++ {
		if int16(p.order[i]) == off {
			return true
		}
	}
	return false
}

// OnAccess implements prefetch.Prefetcher. Like SMS, generations are
// trained on every demand access but triggered (allocated/replayed)
// only by misses and prefetched-line first uses.
//
//cbws:hotpath
func (g *Gaze) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	g.tick++
	line := a.Line
	region := uint64(line) >> g.regionShift
	off := int16(uint64(line) & uint64(g.regionLines-1))

	idx, ok := g.activeIdx.Get(region)
	if !ok {
		// Cold region: only a miss (or prefetch first-use) opens a
		// new generation, anchored at this trigger.
		if !a.Miss() && !a.PfHit {
			return
		}
		idx = g.allocActive()
		e := &g.active[idx]
		e.valid = true
		e.replaying = false
		e.region = region
		g.activeIdx.Put(region, idx)
		e.pc = a.PC
		e.off1 = off
		e.off2 = -1
		for w := 0; w < g.regionWords; w++ {
			e.footprint[w] = 0
		}
		e.footprint[off>>6] |= 1 << (uint(off) & 63)
		e.order[0] = uint8(off)
		e.orderLen = 1
		e.lru = g.tick
		if check.Enabled {
			g.checkTables()
		}
		return
	}

	e := &g.active[idx]
	e.lru = g.tick
	word, bit := off>>6, uint(off)&63
	if e.footprint[word]&(1<<bit) == 0 {
		e.footprint[word] |= 1 << bit
		if e.orderLen < g.cfg.OrderLines {
			e.order[e.orderLen] = uint8(off)
			e.orderLen++
		}
		if e.off2 < 0 {
			// Second distinct line: the trigger pair is complete —
			// look up the pattern table and replay if confident.
			e.off2 = off
			s := gazeSignature(e.pc, e.off1, e.off2)
			p := &g.patterns[(s^s>>16)&g.patMask]
			if p.valid && p.tag == s && p.conf >= g.cfg.ConfThreshold && !e.replaying {
				e.replaying = true
				base := mem.LineAddr(region << g.regionShift)
				g.replay(e, p, base, issue)
			}
		}
	}
	if check.Enabled {
		g.checkTables()
	}
}

// OnCacheEvict implements prefetch.EvictionObserver: evicting a line
// of an active region ends that region's generation, as in SMS/Gaze —
// the footprint is complete once the region's lines start leaving the
// cache.
//
//cbws:hotpath
func (g *Gaze) OnCacheEvict(line mem.LineAddr) {
	region := uint64(line) >> g.regionShift
	if idx, ok := g.activeIdx.Get(region); ok {
		g.commit(idx)
	}
}

// checkTables verifies structural invariants under check.Enabled:
// the active index maps exactly the valid regions, each to its own
// slot (so active regions are unique), order lists are within bounds
// and consist of footprint members, confidences stay within [≤0
// handled, ConfMax].
func (g *Gaze) checkTables() {
	valid := 0
	for i := range g.active {
		e := &g.active[i]
		if !e.valid {
			continue
		}
		valid++
		j, ok := g.activeIdx.Get(e.region)
		check.Assertf(ok && j == i, "gaze: region %#x active in slot %d, index gives (%d, %v)", e.region, i, j, ok)
		check.Assertf(e.orderLen <= g.cfg.OrderLines, "gaze: orderLen %d > %d", e.orderLen, g.cfg.OrderLines)
		for k := 0; k < e.orderLen; k++ {
			off := e.order[k]
			check.Assertf(e.footprint[off>>6]&(1<<(uint(off)&63)) != 0,
				"gaze: ordered offset %d absent from footprint", off)
		}
	}
	check.Assertf(g.activeIdx.Len() == valid, "gaze: %d regions indexed, %d active", g.activeIdx.Len(), valid)
	for i := range g.patterns {
		p := &g.patterns[i]
		if p.valid {
			check.Assertf(p.conf <= g.cfg.ConfMax, "gaze: confidence %d > max %d", p.conf, g.cfg.ConfMax)
			check.Assertf(p.orderLen <= gazeMaxOrder, "gaze: pattern orderLen %d", p.orderLen)
		}
	}
}

// StorageBits estimates the hardware budget: per active entry a region
// tag (36b), PC (32b folded), two offsets, the footprint bitmap, the
// order list and an LRU stamp; per pattern entry a 32-bit tag, the
// bitmap, the order list and a 2-bit confidence.
func (g *Gaze) StorageBits() uint64 {
	offBits := uint64(mem.Log2(uint64(g.regionLines)))
	fp := uint64(g.regionLines)
	order := uint64(g.cfg.OrderLines) * offBits
	active := uint64(g.cfg.ActiveEntries) * (36 + 32 + 2*offBits + fp + order + 16)
	pat := uint64(len(g.patterns)) * (32 + fp + order + 2)
	return active + pat
}
