package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cbws/internal/mem"
)

// Summary characterizes a trace: event mix, footprint, access-pattern
// statistics and annotated-block structure. It powers `tracegen -stats`
// and the workload test suite's structural checks.
type Summary struct {
	Name string

	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	BranchTaken  uint64
	Blocks       uint64

	UniqueLines int
	UniquePCs   int

	// FootprintBytes is UniqueLines × the line size.
	FootprintBytes uint64

	// BlockSizes is the distribution of unique lines per dynamic block
	// (bucketed: 1,2,..,16,>16).
	BlockSizes map[int]uint64

	// TopStrides lists the most frequent per-PC line strides, most
	// frequent first; equal counts list the smaller stride first.
	TopStrides []StrideCount

	// Regions2KB counts distinct 2KB regions touched.
	Regions2KB int
}

// StrideCount is one entry of the stride histogram.
type StrideCount struct {
	Stride int64
	Count  uint64
}

// analyzer is the BatchSink behind Analyze.
type analyzer struct {
	s       Summary
	lines   map[mem.LineAddr]struct{}
	regions map[mem.Region]struct{}
	lastPC  map[uint64]mem.LineAddr
	strides map[int64]uint64
	rc      mem.RegionConfig

	inBlock  bool
	curLines map[mem.LineAddr]struct{}
}

// Analyze consumes up to max instructions of gen and summarizes them.
func Analyze(gen Generator, max uint64) *Summary {
	a := &analyzer{
		lines:   make(map[mem.LineAddr]struct{}),
		regions: make(map[mem.Region]struct{}),
		lastPC:  make(map[uint64]mem.LineAddr),
		strides: make(map[int64]uint64),
		rc:      mem.RegionConfig{SizeBytes: 2 << 10},
	}
	a.s.Name = gen.Name()
	a.s.BlockSizes = make(map[int]uint64)
	src := Generator(gen)
	if max > 0 {
		src = Limit{Gen: gen, Max: max}
	}
	DriveBatches(src, a)
	a.finish()
	return &a.s
}

// ConsumeBatch implements BatchSink.
func (a *analyzer) ConsumeBatch(batch []Event) bool {
	for i := range batch {
		a.observe(batch[i])
	}
	return true
}

func (a *analyzer) observe(e Event) {
	a.s.Instructions += uint64(e.Count())
	switch e.Kind {
	case Load, Store:
		if e.Kind == Load {
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
	case Branch:
		a.s.Branches++
		if e.Taken {
			a.s.BranchTaken++
		}
	case BlockBegin:
		a.inBlock = true
		a.curLines = make(map[mem.LineAddr]struct{}, 16)
	case BlockEnd:
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

func (a *analyzer) finish() {
	a.s.UniqueLines = len(a.lines)
	a.s.UniquePCs = len(a.lastPC)
	a.s.FootprintBytes = uint64(len(a.lines)) * mem.LineSize
	a.s.Regions2KB = len(a.regions)
	for st, n := range a.strides {
		a.s.TopStrides = append(a.s.TopStrides, StrideCount{Stride: st, Count: n})
	}
	// The histogram is a map, so ties must break on the stride itself
	// for the order, and the cut below, not to follow map iteration.
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

// BlocksWithin reports the fraction of dynamic blocks whose working set
// fits in maxLines cache lines (the paper sizes the CBWS buffer from
// this statistic: 16 lines cover >98% of blocks).
func (s *Summary) BlocksWithin(maxLines int) float64 {
	if s.Blocks == 0 {
		return 0
	}
	var within uint64
	for size, n := range s.BlockSizes {
		if size <= maxLines {
			within += n
		}
	}
	return float64(within) / float64(s.Blocks)
}

// Render writes a human-readable report.
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "trace %q\n", s.Name)
	fmt.Fprintf(w, "  instructions   %d\n", s.Instructions)
	fmt.Fprintf(w, "  loads          %d\n", s.Loads)
	fmt.Fprintf(w, "  stores         %d\n", s.Stores)
	if s.Branches > 0 {
		fmt.Fprintf(w, "  branches       %d (%.1f%% taken)\n",
			s.Branches, 100*float64(s.BranchTaken)/float64(s.Branches))
	}
	fmt.Fprintf(w, "  blocks         %d\n", s.Blocks)
	fmt.Fprintf(w, "  unique PCs     %d\n", s.UniquePCs)
	fmt.Fprintf(w, "  footprint      %d lines (%.1f KB) in %d 2KB regions\n",
		s.UniqueLines, float64(s.FootprintBytes)/1024, s.Regions2KB)
	if s.Blocks > 0 {
		fmt.Fprintf(w, "  blocks <= 16 lines: %.1f%%\n", 100*s.BlocksWithin(16))
	}
	if len(s.TopStrides) > 0 {
		var parts []string
		for _, sc := range s.TopStrides {
			parts = append(parts, fmt.Sprintf("%+d×%d", sc.Stride, sc.Count))
		}
		fmt.Fprintf(w, "  top per-PC line strides: %s\n", strings.Join(parts, ", "))
	}
}

// String renders to a string.
func (s *Summary) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}
