package core

import (
	"cmp"
	"encoding/binary"
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
	prev     map[int]*Vector // per static block: previous instance's CBWS
	diffBuf  Diff            // reusable differential scratch
	keyBuf   []byte          // reusable canonical-key scratch

	// index maps a canonical differential to its slot in freqs. The
	// map is only probed with string(keyBuf), which does not allocate,
	// so only a first-seen differential materializes its key.
	index      map[string]int
	freqs      []uint64 // occurrences per distinct differential
	iterations uint64   // block instances with a defined differential
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
		prev:     make(map[int]*Vector),
		index:    make(map[string]int),
	}
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

// observe processes one trace event.
func (c *Census) observe(e *trace.Event) {
	switch e.Kind {
	case trace.BlockBegin:
		c.inBlock = true
		c.curBlock = e.Block
		c.cur = c.cur[:0]
	case trace.BlockEnd:
		if !c.inBlock {
			return
		}
		c.inBlock = false
		prev, ok := c.prev[c.curBlock]
		if !ok {
			prev = new(Vector)
			c.prev[c.curBlock] = prev
		}
		if len(*prev) > 0 && len(c.cur) > 0 {
			c.diffBuf = DifferentialInto(c.diffBuf, *prev, c.cur)
			c.keyBuf = appendDiffKey(c.keyBuf[:0], c.diffBuf)
			if i, ok := c.index[string(c.keyBuf)]; ok {
				c.freqs[i]++
			} else {
				c.index[string(c.keyBuf)] = len(c.freqs)
				c.freqs = append(c.freqs, 1)
			}
			c.iterations++
		}
		*prev = append((*prev)[:0], c.cur...)
	case trace.Load, trace.Store:
		if !c.inBlock || len(c.cur) >= c.maxVec {
			return
		}
		l := mem.LineOf(e.Addr)
		if !c.cur.Contains(l) {
			c.cur = append(c.cur, l)
		}
	}
}

// ConsumeBatch implements trace.BatchSink.
func (c *Census) ConsumeBatch(batch []trace.Event) bool {
	for i := range batch {
		c.observe(&batch[i])
	}
	return true
}

// DistinctVectors returns the number of distinct differential vectors
// observed.
func (c *Census) DistinctVectors() int { return len(c.freqs) }

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
	freqs := slices.Clone(c.freqs)
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
