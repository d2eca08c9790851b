package check

import (
	"sort"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// RefAnalyze is the reference for trace.Analyze: the same summary,
// computed with a Go map for every set it keeps, including a fresh map
// of the current block's lines per dynamic block, and an unbounded
// count of each block's distinct lines that is bucketed only at block
// end.
func RefAnalyze(gen trace.Generator, max uint64) *trace.Summary {
	a := &refAnalyzer{
		lines:   make(map[mem.LineAddr]struct{}),
		regions: make(map[mem.Region]struct{}),
		lastPC:  make(map[uint64]mem.LineAddr),
		strides: make(map[int64]uint64),
		rc:      mem.RegionConfig{SizeBytes: 2 << 10},
	}
	a.s.Name = gen.Name()
	a.s.BlockSizes = make(map[int]uint64)
	src := gen
	if max > 0 {
		src = trace.Limit{Gen: gen, Max: max}
	}
	trace.DriveBatches(src, a)
	a.finish()
	return &a.s
}

type refAnalyzer struct {
	s       trace.Summary
	lines   map[mem.LineAddr]struct{}
	regions map[mem.Region]struct{}
	lastPC  map[uint64]mem.LineAddr
	strides map[int64]uint64
	rc      mem.RegionConfig

	inBlock  bool
	curLines map[mem.LineAddr]struct{}
}

func (a *refAnalyzer) ConsumeBatch(batch []trace.Event) bool {
	for _, e := range batch {
		a.observe(e)
	}
	return true
}

func (a *refAnalyzer) observe(e trace.Event) {
	a.s.Instructions += uint64(e.Count())
	switch e.Kind {
	case trace.Load, trace.Store:
		if e.Kind == trace.Load {
			a.s.Loads++
		} else {
			a.s.Stores++
		}
		l := mem.LineOf(e.Addr)
		a.lines[l] = struct{}{}
		a.regions[a.rc.RegionOf(e.Addr)] = struct{}{}
		if last, ok := a.lastPC[e.PC]; ok {
			a.strides[l.Delta(last)]++
		}
		a.lastPC[e.PC] = l
		if a.inBlock {
			a.curLines[l] = struct{}{}
		}
	case trace.Branch:
		a.s.Branches++
		if e.Taken {
			a.s.BranchTaken++
		}
	case trace.BlockBegin:
		a.inBlock = true
		a.curLines = make(map[mem.LineAddr]struct{})
	case trace.BlockEnd:
		if a.inBlock {
			a.inBlock = false
			a.s.Blocks++
			n := len(a.curLines)
			if n > 16 {
				n = 17 // ">16" bucket
			}
			a.s.BlockSizes[n]++
		}
	}
}

func (a *refAnalyzer) finish() {
	a.s.UniqueLines = len(a.lines)
	a.s.UniquePCs = len(a.lastPC)
	a.s.FootprintBytes = uint64(len(a.lines)) * mem.LineSize
	a.s.Regions2KB = len(a.regions)
	for st, n := range a.strides {
		a.s.TopStrides = append(a.s.TopStrides, trace.StrideCount{Stride: st, Count: n})
	}
	sort.Slice(a.s.TopStrides, func(i, j int) bool {
		x, y := a.s.TopStrides[i], a.s.TopStrides[j]
		if x.Count != y.Count {
			return x.Count > y.Count
		}
		return x.Stride < y.Stride
	})
	if len(a.s.TopStrides) > 8 {
		a.s.TopStrides = a.s.TopStrides[:8]
	}
}
