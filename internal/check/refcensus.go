package check

import (
	"fmt"
	"sort"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// RefCensus is the reference for core.Census: the Figure 5 census of
// exact 1-step differential vectors, keyed by their decimal text in a
// map of plain counters, with each block's predecessor vector copied
// into a fresh slice. It keeps its own differential computation, since
// a reference model may not import the core package it checks.
type RefCensus struct {
	maxVec     int
	inBlock    bool
	curBlock   int
	cur        []mem.LineAddr
	prev       map[int][]mem.LineAddr
	counts     map[string]uint64
	iterations uint64
}

// RefCoveragePoint is one point of RefCensus.Coverage, the fields of
// core.CoveragePoint.
type RefCoveragePoint struct {
	VectorFrac    float64
	IterationFrac float64
}

// NewRefCensus returns a reference census tracing up to maxVec lines
// per block (0 means 16).
func NewRefCensus(maxVec int) *RefCensus {
	if maxVec == 0 {
		maxVec = 16
	}
	return &RefCensus{
		maxVec:   maxVec,
		curBlock: -1,
		prev:     make(map[int][]mem.LineAddr),
		counts:   make(map[string]uint64),
	}
}

// ConsumeBatch implements trace.BatchSink.
func (c *RefCensus) ConsumeBatch(batch []trace.Event) bool {
	for _, e := range batch {
		c.observe(e)
	}
	return true
}

func (c *RefCensus) observe(e trace.Event) {
	switch e.Kind {
	case trace.BlockBegin:
		c.inBlock = true
		c.curBlock = e.Block
		c.cur = nil
	case trace.BlockEnd:
		if !c.inBlock {
			return
		}
		c.inBlock = false
		if prev := c.prev[c.curBlock]; len(prev) > 0 && len(c.cur) > 0 {
			// Δ(prev → cur), truncated to the shorter vector.
			key := ""
			for i := 0; i < len(prev) && i < len(c.cur); i++ {
				key += fmt.Sprintf("%d,", c.cur[i].Delta(prev[i]))
			}
			c.counts[key]++
			c.iterations++
		}
		c.prev[c.curBlock] = append([]mem.LineAddr(nil), c.cur...)
	case trace.Load, trace.Store:
		if !c.inBlock || len(c.cur) >= c.maxVec {
			return
		}
		l := mem.LineOf(e.Addr)
		for _, x := range c.cur {
			if x == l {
				return
			}
		}
		c.cur = append(c.cur, l)
	}
}

// Iterations returns the number of block instances with a differential.
func (c *RefCensus) Iterations() uint64 { return c.iterations }

// DistinctVectors returns the number of distinct differentials.
func (c *RefCensus) DistinctVectors() int { return len(c.counts) }

// Coverage returns the cumulative coverage curve: differentials by
// descending frequency, each point the fraction of iterations the
// vectors up to it explain.
func (c *RefCensus) Coverage() []RefCoveragePoint {
	if c.iterations == 0 {
		return nil
	}
	var freqs []uint64
	for _, n := range c.counts {
		freqs = append(freqs, n)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	out := make([]RefCoveragePoint, len(freqs))
	var cum uint64
	for i, n := range freqs {
		cum += n
		out[i] = RefCoveragePoint{
			VectorFrac:    float64(i+1) / float64(len(freqs)),
			IterationFrac: float64(cum) / float64(c.iterations),
		}
	}
	return out
}
