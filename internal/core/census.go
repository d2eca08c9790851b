package core

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// Census measures the distribution of exact (unhashed) 1-step CBWS
// differential vectors across a workload, the analysis behind Figure 5:
// a small fraction of distinct vectors differentiates the vast majority
// of loop iterations.
//
// Census implements trace.BatchSink so it can be attached to a
// generator directly, without timing simulation.
type Census struct {
	maxVec int

	inBlock  bool
	curBlock int
	cur      Vector
	blocks   map[int]*censusBlock // per static block
	diffBuf  Diff                 // reusable differential scratch
	keyBuf   []byte               // reusable canonical-key scratch

	// memoID and memo remember the last block's entry in blocks: a
	// loop's instances end one after another, so most lookups are
	// answered without hashing.
	memoID int
	memo   *censusBlock

	diffs      diffTable // distinct differentials and their counts
	iterations uint64    // block instances with a defined differential
}

// NewCensus returns a census that traces up to maxVec lines per block
// (0 means the paper's 16).
func NewCensus(maxVec int) *Census {
	if maxVec == 0 {
		maxVec = 16
	}
	return &Census{
		maxVec:   maxVec,
		curBlock: -1,
		blocks:   make(map[int]*censusBlock),
		diffs:    newDiffTable(maxVec * binary.MaxVarintLen64),
	}
}

// censusBlock is what the census keeps of one static block.
type censusBlock struct {
	prev Vector // the previous instance's CBWS

	// lastDiff is the differential this block produced last and last
	// the position of its record (0: none yet). A loop's differentials
	// tend to repeat, and a repeat is counted without a key or a probe.
	lastDiff Diff
	last     uint64
}

// appendDiffKey appends d's canonical form, its elements as
// consecutive zigzag varints, to buf. Varints are self-delimiting, so
// distinct differentials (of any lengths) get distinct keys.
func appendDiffKey(buf []byte, d Diff) []byte {
	for _, s := range d {
		buf = binary.AppendVarint(buf, s)
	}
	return buf
}

// diffTable counts canonical differential keys. Each distinct key is
// stored once, in a byte arena, and found through an open-addressed
// table of its 64-bit hash: a probe compares hashes first and the
// key's bytes only on a hash match, so two keys that share a hash, or
// a bucket, are still counted apart.
//
// The arena is a list of fixed-size chunks that are never moved or
// copied, so it costs what it holds and not the sum of the copies a
// growing slice leaves behind. A key's record in it is its count (8
// bytes) and its length (4 bytes), little-endian, then its bytes.
// Nothing is ever deleted; only a first-seen key (a new chunk) or a
// growth of the table allocates.
type diffTable struct {
	seed  maphash.Seed
	slots []diffSlot // power-of-two length
	shift uint       // 64 - log2(len(slots))
	n     int        // distinct keys

	chunks    [][]byte // the arena; a record never spans two chunks
	chunkSize int      // each chunk's capacity, at least one record
}

// diffSlot is one bucket of a diffTable: a key's hash and the position
// of its record, chunk<<32 | offset, plus one (0 marks a free bucket).
type diffSlot struct{ hash, pos uint64 }

const (
	// minDiffSlots is a new diffTable's bucket count.
	minDiffSlots = 1 << 8
	// diffChunkBytes is the arena's chunk size for keys that fit.
	diffChunkBytes = 64 << 10
	// diffRecordHead is a record's count and length, ahead of its key.
	diffRecordHead = 8 + 4
)

// newDiffTable returns an empty table for keys of up to maxKey bytes.
func newDiffTable(maxKey int) diffTable {
	return diffTable{
		seed:      maphash.MakeSeed(),
		slots:     make([]diffSlot, minDiffSlots),
		shift:     64 - mem.Log2(minDiffSlots),
		chunkSize: max(diffChunkBytes, diffRecordHead+maxKey),
	}
}

// add counts one occurrence of key and returns the position of its
// record.
func (t *diffTable) add(key []byte) uint64 { return t.addHashed(key, maphash.Bytes(t.seed, key)) }

// addHashed is add for a key whose hash is h.
func (t *diffTable) addHashed(key []byte, h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	b := h >> t.shift
	for ; t.slots[b].pos != 0; b = (b + 1) & mask {
		if s := t.slots[b]; s.hash == h && string(t.key(s.pos)) == string(key) {
			t.inc(s.pos)
			return s.pos
		}
	}
	pos := t.store(key)
	t.slots[b] = diffSlot{hash: h, pos: pos}
	if t.n++; 4*t.n > 3*len(t.slots) {
		t.grow()
	}
	return pos
}

// record returns the arena from the record at pos to its chunk's end.
func (t *diffTable) record(pos uint64) []byte {
	pos--
	return t.chunks[pos>>32][uint32(pos):]
}

// key returns the key recorded at pos.
func (t *diffTable) key(pos uint64) []byte {
	rec := t.record(pos)
	return rec[diffRecordHead : diffRecordHead+binary.LittleEndian.Uint32(rec[8:])]
}

// inc counts one more occurrence of the key recorded at pos.
func (t *diffTable) inc(pos uint64) {
	rec := t.record(pos)
	binary.LittleEndian.PutUint64(rec, binary.LittleEndian.Uint64(rec)+1)
}

// store appends a record of key, counted once, to the arena and
// returns its position.
func (t *diffTable) store(key []byte) uint64 {
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < diffRecordHead+len(key) {
		t.chunks = append(t.chunks, make([]byte, 0, t.chunkSize))
		last++
	}
	c := t.chunks[last]
	pos := uint64(last)<<32 | uint64(len(c))
	c = binary.LittleEndian.AppendUint64(c, 1)
	c = binary.LittleEndian.AppendUint32(c, uint32(len(key)))
	t.chunks[last] = append(c, key...)
	return pos + 1
}

// grow doubles the bucket array and re-places every key by its hash.
func (t *diffTable) grow() {
	old := t.slots
	t.slots = make([]diffSlot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.pos == 0 {
			continue
		}
		b := s.hash >> t.shift
		for t.slots[b].pos != 0 {
			b = (b + 1) & mask
		}
		t.slots[b] = s
	}
}

// counts returns every distinct key's count, in no particular order.
func (t *diffTable) counts() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, s := range t.slots {
		if s.pos != 0 {
			out = append(out, binary.LittleEndian.Uint64(t.record(s.pos)))
		}
	}
	return out
}

// ConsumeBatch implements trace.BatchSink. It is the census's kernel:
// a block's accesses are gathered in line, and endBlock takes its end.
func (c *Census) ConsumeBatch(batch []trace.Event) bool {
	for i := range batch {
		e := &batch[i]
		switch e.Kind {
		case trace.Load, trace.Store:
			if c.inBlock && len(c.cur) < c.maxVec {
				if l := mem.LineOf(e.Addr); !c.cur.Contains(l) {
					c.cur = append(c.cur, l)
				}
			}
		case trace.BlockBegin:
			c.inBlock = true
			c.curBlock = e.Block
			c.cur = c.cur[:0]
		case trace.BlockEnd:
			if c.inBlock {
				c.endBlock()
			}
		}
	}
	return true
}

// endBlock counts the differential of the block instance that just
// ended against the block's previous instance, and keeps its CBWS.
func (c *Census) endBlock() {
	c.inBlock = false
	b := c.memo
	if b == nil || c.memoID != c.curBlock {
		var ok bool
		if b, ok = c.blocks[c.curBlock]; !ok {
			b = new(censusBlock)
			c.blocks[c.curBlock] = b
		}
		c.memoID, c.memo = c.curBlock, b
	}
	if len(b.prev) > 0 && len(c.cur) > 0 {
		c.diffBuf = DifferentialInto(c.diffBuf, b.prev, c.cur)
		if b.last != 0 && slices.Equal(c.diffBuf, b.lastDiff) {
			c.diffs.inc(b.last)
		} else {
			c.keyBuf = appendDiffKey(c.keyBuf[:0], c.diffBuf)
			b.last = c.diffs.add(c.keyBuf)
			b.lastDiff = append(b.lastDiff[:0], c.diffBuf...)
		}
		c.iterations++
	}
	b.prev = append(b.prev[:0], c.cur...)
}

// DistinctVectors returns the number of distinct differential vectors
// observed.
func (c *Census) DistinctVectors() int { return c.diffs.n }

// Iterations returns the number of block instances that produced a
// differential.
func (c *Census) Iterations() uint64 { return c.iterations }

// CoveragePoint is one point of the Figure 5 curve.
type CoveragePoint struct {
	VectorFrac    float64 // fraction of distinct vectors considered (x axis)
	IterationFrac float64 // fraction of iterations they cover (y axis)
}

// Coverage returns the cumulative coverage curve: vectors sorted by
// descending frequency, with the cumulative fraction of iterations each
// prefix explains. The curve has one point per distinct vector.
func (c *Census) Coverage() []CoveragePoint {
	if c.iterations == 0 {
		return nil
	}
	freqs := c.diffs.counts()
	slices.SortFunc(freqs, func(x, y uint64) int { return cmp.Compare(y, x) })
	out := make([]CoveragePoint, len(freqs))
	var cum uint64
	for i, n := range freqs {
		cum += n
		out[i] = CoveragePoint{
			VectorFrac:    float64(i+1) / float64(len(freqs)),
			IterationFrac: float64(cum) / float64(c.iterations),
		}
	}
	return out
}

// CoverageAt returns the fraction of iterations covered by the given
// fraction of the most frequent distinct vectors (e.g. CoverageAt(0.05)
// answers "how many iterations do 5% of the vectors explain?"). The
// vector budget is rounded up, so any positive fraction includes at
// least the most frequent vector.
func (c *Census) CoverageAt(vectorFrac float64) float64 {
	curve := c.Coverage()
	if len(curve) == 0 || vectorFrac <= 0 {
		return 0
	}
	k := int(vectorFrac * float64(len(curve)))
	if float64(k) < vectorFrac*float64(len(curve)) || k == 0 {
		k++ // ceil
	}
	if k > len(curve) {
		k = len(curve)
	}
	return curve[k-1].IterationFrac
}
