package core

import (
	"math"
	"testing"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// feedBlocks runs block instances through a census.
func feedBlocks(c *Census, id int, blocks [][]mem.LineAddr) {
	for _, b := range blocks {
		c.observe(&trace.Event{Kind: trace.BlockBegin, Block: id})
		for _, l := range b {
			c.observe(&trace.Event{Kind: trace.Load, PC: 1, Addr: l.Byte()})
		}
		c.observe(&trace.Event{Kind: trace.BlockEnd, Block: id})
	}
}

func TestCensusSingleVector(t *testing.T) {
	c := NewCensus(16)
	var blocks [][]mem.LineAddr
	for n := 0; n < 11; n++ {
		blocks = append(blocks, []mem.LineAddr{
			mem.LineAddr(100 + 7*n),
			mem.LineAddr(5000 + 7*n),
		})
	}
	feedBlocks(c, 0, blocks)
	if c.DistinctVectors() != 1 {
		t.Fatalf("distinct = %d, want 1", c.DistinctVectors())
	}
	if c.Iterations() != 10 {
		t.Errorf("iterations = %d, want 10", c.Iterations())
	}
	if got := c.CoverageAt(0.01); got != 1.0 {
		t.Errorf("CoverageAt(0.01) = %v, want 1.0", got)
	}
}

func TestCensusSkewedDistribution(t *testing.T) {
	c := NewCensus(16)
	var blocks [][]mem.LineAddr
	// 90 constant-stride iterations plus 10 with unique strides.
	for n := 0; n < 91; n++ {
		blocks = append(blocks, []mem.LineAddr{mem.LineAddr(1000 + 3*n)})
	}
	feedBlocks(c, 0, blocks)
	base := mem.LineAddr(1_000_000)
	for n := 0; n < 10; n++ {
		base = base.Add(int64(1000 + n*137))
		blocks = [][]mem.LineAddr{{base}}
		feedBlocks(c, 0, blocks)
	}
	if c.DistinctVectors() < 10 {
		t.Fatalf("distinct = %d", c.DistinctVectors())
	}
	// The top vector alone (~1/12 of distinct) covers ~90%.
	if got := c.CoverageAt(0.1); got < 0.85 {
		t.Errorf("CoverageAt(0.1) = %v, want >= 0.85", got)
	}
	// The full set covers everything.
	if got := c.CoverageAt(1.0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("CoverageAt(1.0) = %v", got)
	}
}

func TestCensusCoverageCurveMonotone(t *testing.T) {
	c := NewCensus(16)
	var blocks [][]mem.LineAddr
	for n := 0; n < 200; n++ {
		stride := int64(3 + n%7)
		blocks = append(blocks, []mem.LineAddr{mem.LineAddr(1000).Add(stride * int64(n))})
	}
	feedBlocks(c, 0, blocks)
	curve := c.Coverage()
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].IterationFrac < curve[i-1].IterationFrac ||
			curve[i].VectorFrac < curve[i-1].VectorFrac {
			t.Fatalf("curve not monotone at %d: %+v %+v", i, curve[i-1], curve[i])
		}
	}
	last := curve[len(curve)-1]
	if math.Abs(last.VectorFrac-1) > 1e-9 || math.Abs(last.IterationFrac-1) > 1e-9 {
		t.Errorf("curve does not end at (1,1): %+v", last)
	}
}

func TestCensusPerBlockSeparation(t *testing.T) {
	c := NewCensus(16)
	// Two interleaved static blocks with different strides: each keeps
	// its own previous-CBWS context.
	for n := 0; n < 10; n++ {
		feedBlocks(c, 0, [][]mem.LineAddr{{mem.LineAddr(100 + 5*n)}})
		feedBlocks(c, 1, [][]mem.LineAddr{{mem.LineAddr(90000 + 11*n)}})
	}
	// Each block's differential is constant, so exactly 2 distinct
	// vectors exist (one per block).
	if got := c.DistinctVectors(); got != 2 {
		t.Errorf("distinct = %d, want 2", got)
	}
}

func TestCensusEmpty(t *testing.T) {
	c := NewCensus(0)
	if c.Coverage() != nil || c.CoverageAt(0.5) != 0 {
		t.Error("empty census should have no coverage")
	}
}

func TestCensusIgnoresOutsideBlocks(t *testing.T) {
	c := NewCensus(16)
	c.observe(&trace.Event{Kind: trace.Load, PC: 1, Addr: 0x4000})
	if c.Iterations() != 0 || c.DistinctVectors() != 0 {
		t.Error("accesses outside blocks were counted")
	}
}
