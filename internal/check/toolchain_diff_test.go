package check_test

import (
	"bytes"
	"reflect"
	"testing"

	"cbws/internal/check"
	"cbws/internal/core"
	"cbws/internal/mem"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// requireToolchainVsRef runs one event stream through trace.Analyze and
// core.Census (at the paper's 16-line and at a 3-line vector cap) and
// through their references, and requires equal summaries and equal
// census results.
func requireToolchainVsRef(t testingT, tr *trace.Trace) {
	t.Helper()
	if got, want := trace.Analyze(tr, 0), check.RefAnalyze(tr, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze diverged\n real %+v\n  ref %+v", tr.Name(), got, want)
	}
	for _, maxVec := range []int{0, 3} {
		c, ref := core.NewCensus(maxVec), check.NewRefCensus(maxVec)
		c.ConsumeBatch(tr.Events)
		ref.ConsumeBatch(tr.Events)
		if c.Iterations() != ref.Iterations() || c.DistinctVectors() != ref.DistinctVectors() {
			t.Fatalf("%s maxVec %d: census %d iterations over %d vectors, ref %d over %d",
				tr.Name(), maxVec, c.Iterations(), c.DistinctVectors(), ref.Iterations(), ref.DistinctVectors())
		}
		got, want := c.Coverage(), ref.Coverage()
		if len(got) != len(want) {
			t.Fatalf("%s maxVec %d: coverage has %d points, ref %d", tr.Name(), maxVec, len(got), len(want))
		}
		for i := range got {
			if got[i].VectorFrac != want[i].VectorFrac || got[i].IterationFrac != want[i].IterationFrac {
				t.Fatalf("%s maxVec %d: coverage point %d is %+v, ref %+v", tr.Name(), maxVec, i, got[i], want[i])
			}
		}
	}
}

// TestToolchainVsRefWorkloads compares the analyzer and the census
// with their references on every registered workload at 1M
// instructions (200k under -short or -race: both sinks run on one
// goroutine, so the race detector has nothing to find at full scale).
func TestToolchainVsRefWorkloads(t *testing.T) {
	n := uint64(1_000_000)
	if testing.Short() || raceEnabled {
		n = 200_000
	}
	for _, spec := range workload.All() {
		requireToolchainVsRef(t, trace.Capture(trace.Limit{Gen: spec.Make(), Max: n}))
	}
}

// TestToolchainVsRefEdgeCases covers the stream shapes the production
// sinks special-case: a block past the 17-line cap of the analyzer's
// block scratch (and past the census vector cap), a BlockBegin with no
// matching end, a BlockEnd outside any block, an empty block, and PCs
// revisited across blocks and outside them.
func TestToolchainVsRefEdgeCases(t *testing.T) {
	ld := func(pc uint64, line int) trace.Event {
		return trace.Event{Kind: trace.Load, PC: pc, Addr: mem.LineAddr(line).Byte() + mem.Addr(line%64)}
	}
	begin := func(id int) trace.Event { return trace.Event{Kind: trace.BlockBegin, Block: id} }
	end := func(id int) trace.Event { return trace.Event{Kind: trace.BlockEnd, Block: id} }
	streams := map[string][]trace.Event{}

	var wide []trace.Event
	for it := 0; it < 4; it++ {
		wide = append(wide, begin(1))
		for j := 0; j < 16+it*2; j++ { // 16, 18, 20, 22 distinct lines
			wide = append(wide, ld(0x40, 1000+it*7+j*3), ld(0x44, 1000+it*7+j*3)) // repeats too
		}
		wide = append(wide, end(1))
	}
	streams["over-cap"] = wide

	streams["unmatched-begin"] = []trace.Event{
		begin(2), ld(0x40, 10), ld(0x40, 11),
		begin(2), ld(0x40, 12), end(2), // the first instance never ends
		begin(3), ld(0x48, 50),
		begin(2), ld(0x40, 13), ld(0x40, 14), end(2),
		begin(4), ld(0x40, 99), // trace ends inside a block
	}
	streams["end-outside-block"] = []trace.Event{
		end(5), ld(0x40, 1),
		begin(5), ld(0x40, 2), end(5), end(5), end(5),
		begin(5), ld(0x40, 4), end(5),
		end(6),
	}
	streams["empty-blocks"] = []trace.Event{
		begin(7), end(7), begin(7), ld(0x40, 3), end(7), begin(7), end(7), begin(7), ld(0x40, 9), end(7),
	}
	var revisit []trace.Event
	for it := 0; it < 6; it++ {
		id := it % 2
		revisit = append(revisit, begin(id), ld(0x40, it*5), ld(0x80, 4000-it*33), end(id),
			ld(0x40, it*5+1), trace.Event{Kind: trace.Store, PC: 0x80, Addr: mem.Addr(it * 4096)},
			trace.Event{Kind: trace.Branch, PC: 0x90, Taken: it%3 == 0}, trace.Event{Kind: trace.Instr, N: it})
	}
	streams["pc-revisited"] = revisit

	// The analyzer keys its footprint by 2 KB region, 32 lines a
	// bitmap: region key 0 (the table's reserved key), the last line of
	// one region and the first two of the next, and the top of the
	// address space, where line addresses approach 2^58.
	top := mem.LineAddr(1<<58 - 1)
	var regions []trace.Event
	for it := 0; it < 5; it++ {
		regions = append(regions, begin(8),
			ld(0x40, 0), ld(0x44, 31+it%3), ld(0x48, 32), ld(0x4c, 33),
			trace.Event{Kind: trace.Store, PC: 0x50, Addr: (top - mem.LineAddr(it*31)).Byte()},
			trace.Event{Kind: trace.Load, PC: 0x54, Addr: (top - 32 - mem.LineAddr(it)).Byte() + 63},
			end(8),
			trace.Event{Kind: trace.Load, PC: 0x58, Addr: mem.Addr(it)})
	}
	streams["region-edges"] = regions

	for name, events := range streams {
		requireToolchainVsRef(t, &trace.Trace{TraceName: name, Events: events})
	}
}

// decodeToolchainEvents turns fuzz input into a trace event stream,
// three bytes a record: the op byte picks the kind, the PC (one of
// eight) and the block ID (one of four); the other two bytes pick an
// address over 2^15 × 24 bytes, at the bottom of the address space or,
// with the top bit of the first, as far below its top, so records share
// lines and regions, region 0 and the last regions included; they
// double as the instruction count and branch outcome.
func decodeToolchainEvents(data []byte) []trace.Event {
	feed := &byteFeed{data: data}
	events := make([]trace.Event, 0, len(data)/3)
	for i := 0; i < len(data)/3; i++ {
		op, hi, lo := feed.next(), feed.next(), feed.next()
		v := uint64(hi&0x7f)<<8 | uint64(lo)
		addr := mem.Addr(v * 24)
		if hi&0x80 != 0 {
			addr = ^addr
		}
		e := trace.Event{
			Kind:  trace.Kind(op % 6),
			PC:    0x400000 + uint64(op>>3&7)*0x40,
			Addr:  addr,
			Block: int(op >> 6),
			N:     int(lo),
			Taken: hi&1 != 0,
		}
		events = append(events, e)
	}
	return events
}

// FuzzAnalyzeVsRef drives fuzzer-shaped event streams (seeded with
// real kernel prefixes) through trace.Analyze and core.Census and
// their references, requiring equal summaries and census results.
func FuzzAnalyzeVsRef(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00, 0x00, 0x01, 0x00, 0x01, 0x01, 0x00, 0x02, 0x04, 0x00, 0x00,
		0x03, 0x00, 0x00, 0x01, 0x00, 0x03, 0x01, 0x00, 0x04, 0x04, 0x00, 0x00})
	// One block, three times over: region 0's first line, lines 31, 32
	// and 33 (a region's last and the next one's first two), and lines
	// near 2^58 at the top of the address space.
	edges := []byte{0x03, 0x00, 0x00}
	for _, v := range []uint16{0, 83, 86, 88, 0x8000, 0x8000 + 86, 0x8000 + 88} {
		edges = append(edges, 0x01, byte(v>>8), byte(v))
	}
	edges = append(edges, 0x04, 0x00, 0x00)
	f.Add(bytes.Repeat(edges, 3))
	for _, name := range []string{"stencil-default", "429.mcf-ref"} {
		spec, _ := workload.ByName(name)
		tr := trace.Capture(trace.Limit{Gen: spec.Make(), Max: 2048})
		seed := make([]byte, 0, 3*len(tr.Events))
		for _, e := range tr.Events {
			v := uint64(e.Addr) / 24
			seed = append(seed, byte(e.Kind)|byte(e.PC>>4&7)<<3|byte(e.Block&3)<<6, byte(v>>8), byte(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireToolchainVsRef(t, &trace.Trace{TraceName: "fuzz", Events: decodeToolchainEvents(data)})
	})
}
