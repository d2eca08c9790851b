package trace

import (
	"fmt"
	"io"
	"slices"
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

// blockLineCap is the most distinct lines the analyzer tracks per
// dynamic block: BlockSizes tells apart 1..16 lines and ">16", so a
// 17th distinct line settles the bucket and later ones change nothing.
const blockLineCap = 17

// regionLineShift converts a line address to its 2 KB region (32 lines).
const regionLineShift = 11 - mem.LineShift

// regionLineMask selects a line's index within its 2 KB region.
const regionLineMask = 1<<regionLineShift - 1

// nearStride bounds the strides the analyzer counts in a flat array.
const nearStride = 64

// analyzer is the BatchSink behind Analyze. Steady state allocates
// nothing: its tables grow only on a first-seen region, PC or stride,
// and the current block's lines live in a fixed slice.
//
// The footprint is kept the way spatial prefetchers keep one: a table
// of the 2 KB regions touched, each with a bitmap of its 32 lines. A
// line sets its bit; a bit set for the first time is a new unique
// line, and the table's size is the region count.
type analyzer struct {
	s       Summary
	regions keyTable // mem.Region -> bitmap of the region's lines seen
	lines   int      // bits set across regions: the unique lines
	pcLine  keyTable // PC -> the mem.LineAddr of its latest access
	strides keyTable // per-PC line stride (an int64) -> count, outside nearStrides

	// nearStrides counts the strides in [-nearStride, nearStride), most
	// of them, at index stride+nearStride, without a table probe.
	nearStrides [2 * nearStride]uint64

	blockSizes [blockLineCap + 1]uint64

	inBlock  bool
	curLines []mem.LineAddr // distinct lines of the current block, at most blockLineCap
}

func newAnalyzer(name string) *analyzer {
	a := &analyzer{
		regions:  newKeyMap(),
		pcLine:   newKeyMap(),
		strides:  newKeyMap(),
		curLines: make([]mem.LineAddr, 0, blockLineCap),
	}
	a.s.Name = name
	return a
}

// Analyze consumes up to max instructions of gen and summarizes them.
func Analyze(gen Generator, max uint64) *Summary {
	a := newAnalyzer(gen.Name())
	src := gen
	if max > 0 {
		src = Limit{Gen: gen, Max: max}
	}
	DriveBatches(src, a)
	a.finish()
	return &a.s
}

// ConsumeBatch implements BatchSink. It is the analyzer's kernel: one
// loop over the batch with each event's work in line.
func (a *analyzer) ConsumeBatch(batch []Event) bool {
	for i := range batch {
		e := &batch[i]
		a.s.Instructions += uint64(e.Count())
		switch e.Kind {
		case Load, Store:
			if e.Kind == Load {
				a.s.Loads++
			} else {
				a.s.Stores++
			}
			l := mem.LineOf(e.Addr)
			bits, _ := a.regions.val(uint64(l >> regionLineShift))
			if bit := uint64(1) << (l & regionLineMask); *bits&bit == 0 {
				*bits |= bit
				a.lines++
			}
			last, seen := a.pcLine.val(e.PC)
			if seen {
				if st := l.Delta(mem.LineAddr(*last)); uint64(st+nearStride) < 2*nearStride {
					a.nearStrides[st+nearStride]++
				} else {
					n, _ := a.strides.val(uint64(st))
					*n++
				}
			}
			*last = uint64(l)
			if a.inBlock && len(a.curLines) < blockLineCap && !slices.Contains(a.curLines, l) {
				a.curLines = append(a.curLines, l)
			}
		case Branch:
			a.s.Branches++
			if e.Taken {
				a.s.BranchTaken++
			}
		case BlockBegin:
			a.inBlock = true
			a.curLines = a.curLines[:0]
		case BlockEnd:
			if a.inBlock {
				a.inBlock = false
				a.s.Blocks++
				a.blockSizes[len(a.curLines)]++ // index blockLineCap is the ">16" bucket
			}
		}
	}
	return true
}

func (a *analyzer) finish() {
	a.s.UniqueLines = a.lines
	a.s.UniquePCs = a.pcLine.count()
	a.s.FootprintBytes = uint64(a.s.UniqueLines) * mem.LineSize
	a.s.Regions2KB = a.regions.count()
	a.s.BlockSizes = make(map[int]uint64)
	for n, c := range a.blockSizes {
		if c > 0 {
			a.s.BlockSizes[n] = c
		}
	}
	a.s.TopStrides = make([]StrideCount, 0, topStrides)
	for i, n := range a.nearStrides {
		if n > 0 {
			a.offerStride(int64(i-nearStride), n)
		}
	}
	a.strides.each(func(st, n uint64) { a.offerStride(int64(st), n) })
	if len(a.s.TopStrides) == 0 {
		a.s.TopStrides = nil
	}
}

// topStrides is the most strides Summary.TopStrides lists.
const topStrides = 8

// offerStride keeps the stride st, seen n times, in TopStrides if it
// ranks among the topStrides most frequent so far, by insertion: one
// pass over the histogram, instead of sorting all of it to keep eight.
// The histogram is a hash table, so equal counts rank the smaller
// stride first, for the order and the cut not to follow bucket order.
func (a *analyzer) offerStride(st int64, n uint64) {
	before := func(x StrideCount) bool { return n > x.Count || n == x.Count && st < x.Stride }
	top := a.s.TopStrides
	if len(top) == topStrides && !before(top[topStrides-1]) {
		return
	}
	if len(top) < topStrides {
		top = append(top, StrideCount{})
	}
	i := len(top) - 1
	for ; i > 0 && before(top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = StrideCount{Stride: st, Count: n}
	a.s.TopStrides = top
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
