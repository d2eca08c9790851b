package core

import (
	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// Config parametrizes the CBWS prefetcher hardware (Figure 8 / Table II
// defaults via DefaultConfig).
type Config struct {
	// MaxVector bounds the lines traced per code block (16 covers >98%
	// of dynamic blocks in the paper's benchmarks).
	MaxVector int
	// Steps is the number of predecessor CBWSs kept and therefore the
	// multi-step prediction depth (paper: 4).
	Steps int
	// HistoryDepth is the depth of each history shift register
	// (paper: 3 differentials).
	HistoryDepth int
	// TableEntries sizes the fully-associative differential history
	// table (paper: 16, random replacement).
	TableEntries int
	// HashBits is the width of the bit-select hash of one differential
	// vector (paper: 12).
	HashBits int
	// StrideBits is the stored stride width (paper: 16); strides are
	// clamped into this range like the hardware's narrow adders.
	StrideBits int
	// AddrBits is the stored line-address width (paper: lower 32 bits).
	AddrBits int
}

// DefaultConfig returns the paper's sub-1KB configuration.
func DefaultConfig() Config {
	return Config{
		MaxVector:    16,
		Steps:        4,
		HistoryDepth: 3,
		TableEntries: 16,
		HashBits:     12,
		StrideBits:   16,
		AddrBits:     32,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxVector == 0 {
		c.MaxVector = d.MaxVector
	}
	if c.Steps == 0 {
		c.Steps = d.Steps
	}
	if c.HistoryDepth == 0 {
		c.HistoryDepth = d.HistoryDepth
	}
	if c.TableEntries == 0 {
		c.TableEntries = d.TableEntries
	}
	if c.HashBits == 0 {
		c.HashBits = d.HashBits
	}
	if c.StrideBits == 0 {
		c.StrideBits = d.StrideBits
	}
	if c.AddrBits == 0 {
		c.AddrBits = d.AddrBits
	}
	return c
}

// Stats counts prefetcher-internal events.
type Stats struct {
	Blocks         uint64 // block instances observed
	Overflows      uint64 // blocks whose working set exceeded MaxVector
	TableHits      uint64 // predictions served by the history table
	TableMisses    uint64 // lookups that missed (no prefetch issued)
	LinesPredicted uint64 // total lines handed to the issue callback
}

// Prefetcher is the hardware CBWS prefetcher of Section V: it constructs
// the current CBWS and its differentials incrementally on every memory
// access inside an annotated block, and at BLOCK_END stores the
// differentials in the history table and predicts the working sets of
// the next Steps iterations.
//
// Every structure is a flat array of MaxVector-wide rows, so no block
// boundary copies a row or writes a slice header.
type Prefetcher struct {
	cfg Config
	mv  int // cfg.MaxVector: the row width of sets, curDiff and diffs

	inBlock  bool
	curBlock int

	// sets is a ring of Steps+1 working-set rows and setLen their
	// lengths. Row head traces the current block; row (head+1+i) mod
	// (Steps+1) holds the CBWS of the (i+1)-th previous block. BLOCK_END
	// rotates the ring by moving head: the finished row becomes the
	// newest predecessor and the oldest is recycled, copying nothing.
	sets   []mem.LineAddr
	setLen []int
	head   int

	// curDiff row i is the current block's differential against
	// predecessor i. Its length is min(len(current), len(predecessor)):
	// the access flow writes element k exactly when both reach k.
	curDiff []int32

	// hist holds one history register per step as the concatenation of
	// its HistoryDepth most recent differential hashes, newest in the
	// low HashBits, so a table tag folds from it in O(1). histCount
	// counts the hashes enqueued, to gate predictions until warm.
	hist      []uint64
	histCount []int
	histMask  uint64 // the HistoryDepth×HashBits bits a register keeps

	// The fully-associative differential history table: tags[i] is
	// tableValid|tag of slot i (0 when empty) and row i of diffs, of
	// length diffLen[i], its stored differential. Slots fill in order
	// and are never invalidated, so slots [0, filled) are exactly the
	// valid ones and a store into a non-full table takes slot filled.
	tags    []uint32
	diffs   []int32
	diffLen []int
	filled  int
	rng     uint32 // xorshift32 for random replacement

	rot []uint32 // hashDiff's rotation of each vector position

	strideMin, strideMax int64
	hashMask             uint16

	confident bool // last BLOCK_END lookup hit the table (for CBWS+SMS)

	Stats Stats
}

// tableValid marks an occupied history-table slot in tags.
const tableValid = 1 << 16

var _ prefetch.Prefetcher = (*Prefetcher)(nil)

// New builds a CBWS prefetcher; zero-value fields of cfg fall back to the
// paper's defaults.
func New(cfg Config) *Prefetcher {
	cfg = cfg.withDefaults()
	p := &Prefetcher{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "cbws" }

// Config returns the active configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// Reset implements prefetch.Prefetcher. Every buffer the prefetcher
// touches while running is preallocated at its hardware capacity here,
// so the per-access and per-block paths never allocate (asserted by the
// AllocsPerRun regression tests).
func (p *Prefetcher) Reset() {
	c := p.cfg
	p.mv = c.MaxVector
	p.inBlock = false
	p.curBlock = -1
	p.sets = make([]mem.LineAddr, (c.Steps+1)*c.MaxVector)
	p.setLen = make([]int, c.Steps+1)
	p.head = 0
	p.curDiff = make([]int32, c.Steps*c.MaxVector)
	p.hist = make([]uint64, c.Steps)
	p.histCount = make([]int, c.Steps)
	p.histMask = ^uint64(0)
	if n := c.HistoryDepth * c.HashBits; n < 64 {
		p.histMask = 1<<uint(n) - 1
	}
	p.tags = make([]uint32, c.TableEntries)
	p.diffs = make([]int32, c.TableEntries*c.MaxVector)
	p.diffLen = make([]int, c.TableEntries)
	p.filled = 0
	p.rot = make([]uint32, c.MaxVector)
	for i := range p.rot {
		p.rot[i] = uint32(i * 5 % c.HashBits)
	}
	p.rng = 0x20140612 // deterministic seed (MICRO 2014)
	p.strideMax = 1<<(uint(c.StrideBits)-1) - 1
	p.strideMin = -(1 << (uint(c.StrideBits) - 1))
	p.hashMask = uint16(1<<uint(c.HashBits) - 1)
	p.confident = false
	p.Stats = Stats{}
}

// Confident reports whether the most recent BLOCK_END produced at least
// one history-table hit; the CBWS+SMS integration uses it to decide when
// to fall back to SMS.
func (p *Prefetcher) Confident() bool { return p.confident }

// invalidStride marks a differential element whose stride overflows the
// StrideBits-wide field. The hardware detects the saturation and never
// predicts with such an element: an overflowing delta means the two
// aligned accesses are unrelated (e.g. divergence shifted the vectors),
// so a prediction built from it would be garbage far outside the
// working set.
const invalidStride int32 = 1<<31 - 1

//cbws:hotpath
func (p *Prefetcher) clamp(d int64) int32 {
	if d > p.strideMax || d < p.strideMin {
		return invalidStride
	}
	return int32(d)
}

// storedLine narrows a line address to AddrBits, as the hardware stores
// only the lower bits (Figure 8).
//
//cbws:hotpath
func (p *Prefetcher) storedLine(l mem.LineAddr) mem.LineAddr {
	if p.cfg.AddrBits >= 64 {
		return l
	}
	return l & mem.LineAddr(1<<uint(p.cfg.AddrBits)-1)
}

// row returns row i of a flat array of MaxVector-wide rows, cut to n
// elements.
//
//cbws:hotpath
func row[T any](a []T, mv, i, n int) []T { return a[i*mv : i*mv+n] }

// hashDiff bit-selects a differential vector into HashBits bits: each
// stride contributes its low bits at a position-dependent rotation, and
// the vector length is mixed in so that divergent iterations hash apart.
//
//cbws:hotpath
func (p *Prefetcher) hashDiff(d []int32) uint16 {
	hb := uint(p.cfg.HashBits)
	mask := uint32(p.hashMask)
	rot := p.rot[:len(d)]
	h := uint32(len(d)) * 0x9E5
	for i, s := range d {
		v := uint32(s) & mask
		r := uint(rot[i])
		h ^= (v<<r | v>>(hb-r)) & mask
	}
	return uint16(h) & p.hashMask
}

// push enqueues hash h into step i's history register.
//
//cbws:hotpath
func (p *Prefetcher) push(i int, h uint16) {
	p.hist[i] = (p.hist[i]<<uint(p.cfg.HashBits) | uint64(h)) & p.histMask
	p.histCount[i]++
}

//cbws:hotpath
func (p *Prefetcher) warm(i int) bool { return p.histCount[i] >= p.cfg.HistoryDepth }

// foldTag xor-folds step i's history register, its hashes concatenated,
// into a 16-bit table tag (the paper xor-folds 48 bits to 16).
//
//cbws:hotpath
func (p *Prefetcher) foldTag(i int) uint16 {
	x := p.hist[i]
	return uint16(x) ^ uint16(x>>16) ^ uint16(x>>32) ^ uint16(x>>48)
}

//cbws:hotpath
func (p *Prefetcher) xorshift() uint32 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.rng = x
	return x
}

// tableLookup returns the slot holding tag, or -1.
//
//cbws:hotpath
func (p *Prefetcher) tableLookup(tag uint16) int {
	key := tableValid | uint32(tag)
	for i, k := range p.tags {
		if k == key {
			return i
		}
	}
	return -1
}

// tableStore writes diff under tag, using random replacement on a full
// table (Table II: "History Table Repl. Random").
//
//cbws:hotpath
func (p *Prefetcher) tableStore(tag uint16, diff []int32) {
	i := p.tableLookup(tag)
	if i < 0 {
		if p.filled < len(p.tags) {
			i = p.filled
			p.filled++
		} else {
			i = int(p.xorshift() % uint32(len(p.tags)))
		}
	}
	p.tags[i] = tableValid | uint32(tag)
	p.diffLen[i] = copy(row(p.diffs, p.mv, i, p.mv), diff)
}

// OnBlockBegin implements the BLOCK_BEGIN flow (Figure 9): clear the
// current CBWS and differential tracing. A change of static block ID
// also clears the predecessor CBWSs and histories, since the single
// tracking context now belongs to a different loop.
//
//cbws:hotpath
func (p *Prefetcher) OnBlockBegin(id int) {
	if id != p.curBlock {
		p.curBlock = id
		clear(p.setLen)
		clear(p.hist)
		clear(p.histCount)
		p.confident = false
	}
	p.inBlock = true
	p.setLen[p.head] = 0
}

// OnAccess implements the memory-access flow (Figure 10): push the line
// into the current CBWS if new, and incrementally extend each step's
// differential against the correlated entry of the predecessor CBWS.
// The CBWS prefetcher tracks all L1 accesses inside annotated blocks
// (hits and misses) — the aggressive policy the compiler hint licenses.
//
//cbws:hotpath
func (p *Prefetcher) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	if !p.inBlock {
		return
	}
	line := p.storedLine(a.Line)
	idx := p.setLen[p.head]
	if idx >= p.mv {
		p.Stats.Overflows++
		return
	}
	for _, x := range row(p.sets, p.mv, p.head, idx) {
		if x == line {
			return // already in the working set
		}
	}
	p.sets[p.head*p.mv+idx] = line
	p.setLen[p.head] = idx + 1
	for i, b := 0, p.head; i < p.cfg.Steps; i++ {
		if b++; b == len(p.setLen) {
			b = 0
		}
		if idx < p.setLen[b] {
			p.curDiff[i*p.mv+idx] = p.clamp(line.Delta(p.sets[b*p.mv+idx]))
		}
	}
}

// OnBlockEnd implements the BLOCK_END flow (Figure 11 / Algorithm 1):
// store the step differentials in the history table keyed by the
// pre-update history registers, enqueue them, rotate the predecessor
// CBWSs, then look up the post-update histories and prefetch the
// predicted future working sets.
//
//cbws:hotpath
func (p *Prefetcher) OnBlockEnd(id int, issue prefetch.IssueFunc) {
	if !p.inBlock || id != p.curBlock {
		p.inBlock = false
		return
	}
	p.inBlock = false
	p.Stats.Blocks++
	if check.Enabled {
		p.checkWorkingSet()
	}

	// 1. Update the tracing + prediction DB. The table learns that the
	// history prefix (pre-enqueue) was followed by the current
	// differential.
	n := p.setLen[p.head]
	for i, b := 0, p.head; i < p.cfg.Steps; i++ {
		if b++; b == len(p.setLen) {
			b = 0
		}
		if m := min(n, p.setLen[b]); m > 0 {
			d := row(p.curDiff, p.mv, i, m)
			if p.warm(i) {
				p.tableStore(p.foldTag(i), d)
			}
			p.push(i, p.hashDiff(d))
		}
	}

	// 2. Rotate the predecessor CBWSs: the finished row becomes the
	// newest predecessor, and the oldest row is recycled for the next
	// block.
	cur := row(p.sets, p.mv, p.head, n)
	if p.head == 0 {
		p.head = len(p.setLen)
	}
	p.head--
	p.setLen[p.head] = 0

	// 3. Predict: for each step i, the post-update history selects the
	// differential expected between the just-finished block and the
	// block i+1 iterations ahead; adding it to the current CBWS yields
	// that block's predicted working set.
	p.confident = false
	for i := 0; i < p.cfg.Steps; i++ {
		if !p.warm(i) {
			continue
		}
		e := p.tableLookup(p.foldTag(i))
		if e < 0 {
			p.Stats.TableMisses++
			continue
		}
		p.Stats.TableHits++
		p.confident = true
		for j, s := range row(p.diffs, p.mv, e, min(p.diffLen[e], n)) {
			if s == 0 || s == invalidStride {
				// Zero stride: the line is the current iteration's,
				// already resident or in flight. Invalid stride: the
				// element saturated when recorded; no prediction.
				continue
			}
			issue(cur[j].Add(int64(s)))
			p.Stats.LinesPredicted++
		}
	}
}

// checkWorkingSet verifies the CBWS structural invariants at a block
// boundary: the current working set is duplicate-free and every
// working-set row within the MaxVector hardware bound, every
// history-table entry holds at most MaxVector strides, and filled
// counts the valid tags, which are exactly slots [0, filled). Called
// once per block under check.Enabled.
func (p *Prefetcher) checkWorkingSet() {
	for b, n := range p.setLen {
		check.Assertf(n >= 0 && n <= p.mv,
			"cbws: working-set row %d holds %d lines, MaxVector is %d", b, n, p.mv)
	}
	cur := row(p.sets, p.mv, p.head, p.setLen[p.head])
	for i, a := range cur {
		for _, b := range cur[i+1:] {
			check.Assertf(a != b, "cbws: duplicate line %v in working set", a)
		}
	}
	check.Assertf(p.filled >= 0 && p.filled <= len(p.tags),
		"cbws: %d filled table slots, table has %d", p.filled, len(p.tags))
	for i, k := range p.tags {
		check.Assertf(p.diffLen[i] >= 0 && p.diffLen[i] <= p.mv,
			"cbws: table entry %d holds %d strides, MaxVector is %d", i, p.diffLen[i], p.mv)
		check.Assertf(k&^(tableValid|0xFFFF) == 0 && (k&tableValid != 0) == (i < p.filled),
			"cbws: table slot %d key %#x, but %d slots are filled", i, k, p.filled)
	}
}

// StorageBits returns the hardware budget of Figure 8: with the default
// configuration 16×32b current CBWS + 4×16×32b predecessors +
// 4×16×16b differentials + 4×36b history registers + 16×(16b+16×16b)
// table ≈ 8080 bits, i.e. just under 1KB.
func (p *Prefetcher) StorageBits() uint64 {
	c := p.cfg
	cur := uint64(c.MaxVector * c.AddrBits)
	last := uint64(c.Steps * c.MaxVector * c.AddrBits)
	diffs := uint64(c.Steps * c.MaxVector * c.StrideBits)
	regs := uint64(c.Steps * c.HistoryDepth * c.HashBits)
	table := uint64(c.TableEntries) * uint64(16+c.MaxVector*c.StrideBits)
	return cur + last + diffs + regs + table
}
