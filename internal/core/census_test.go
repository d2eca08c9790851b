package core

import (
	"hash/maphash"
	"math"
	"slices"
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

// observe feeds c one event.
func (c *Census) observe(e *trace.Event) { c.ConsumeBatch([]trace.Event{*e}) }

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

// TestDiffTableSharedHash counts two distinct keys under one hash: the
// table must tell them apart by their bytes.
func TestDiffTableSharedHash(t *testing.T) {
	tab := newDiffTable(16)
	for _, k := range []string{"\x02", "\x04\x02", "\x02", "\x02"} {
		tab.addHashed([]byte(k), 42)
	}
	if tab.n != 2 {
		t.Fatalf("%d distinct keys, want 2", tab.n)
	}
	counts := tab.counts()
	slices.Sort(counts)
	if !slices.Equal(counts, []uint64{1, 3}) {
		t.Errorf("counts %v, want [1 3]", counts)
	}
}

// TestCensusSharedBucketVsRef feeds a census two differentials whose
// keys land in the same bucket of its table, alternately, and compares
// it with check.RefCensus: both must be counted, and apart.
func TestCensusSharedBucketVsRef(t *testing.T) {
	c, ref := NewCensus(16), check.NewRefCensus(16)
	bucket := func(d int64) uint64 {
		return maphash.Bytes(c.diffs.seed, appendDiffKey(nil, Diff{d})) >> c.diffs.shift
	}
	// Birthday search over one-element differentials: 256 buckets.
	seen := map[uint64]int64{}
	var d1, d2 int64
	for d := int64(1); d2 == 0; d++ {
		if other, ok := seen[bucket(d)]; ok {
			d1, d2 = other, d
		}
		seen[bucket(d)] = d
	}
	line := mem.LineAddr(1 << 20)
	var events []trace.Event
	for _, d := range []int64{0, d1, d2, d1, d2, d1} {
		line = line.Add(d)
		events = append(events,
			trace.Event{Kind: trace.BlockBegin, Block: 3},
			trace.Event{Kind: trace.Load, PC: 1, Addr: line.Byte()},
			trace.Event{Kind: trace.BlockEnd, Block: 3})
	}
	c.ConsumeBatch(events)
	ref.ConsumeBatch(events)
	if c.DistinctVectors() != 2 || ref.DistinctVectors() != 2 || c.Iterations() != 5 || ref.Iterations() != 5 {
		t.Fatalf("census %d vectors over %d iterations, ref %d over %d; want 2 over 5",
			c.DistinctVectors(), c.Iterations(), ref.DistinctVectors(), ref.Iterations())
	}
	got, want := c.Coverage(), ref.Coverage()
	for i := range want {
		if got[i].VectorFrac != want[i].VectorFrac || got[i].IterationFrac != want[i].IterationFrac {
			t.Fatalf("coverage point %d is %+v, ref %+v", i, got[i], want[i])
		}
	}
	if got[0].IterationFrac != 0.6 {
		t.Errorf("top differential covers %v of iterations, want 3 of 5", got[0].IterationFrac)
	}
}
