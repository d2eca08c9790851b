package check_test

import (
	"testing"

	"cbws/internal/cache"
	"cbws/internal/check"
	"cbws/internal/core"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// byteFeed turns a fuzz payload into a bounded operand stream; once the
// payload is exhausted every draw returns zero, so every input encodes
// a finite deterministic scenario.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// FuzzCacheVsRef lets the fuzzer drive the operation stream of the
// cache differential directly: each input byte pair selects an
// operation, a line address and a time step, and the production cache
// must stay bit-identical to the map-based reference throughout.
func FuzzCacheVsRef(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x40, 0x01, 0x80, 0x01, 0x00, 0x01})       // re-access one line
	f.Add([]byte{0x00, 0x10, 0x20, 0x10, 0x40, 0x10, 0x60, 0x10, 0x80}) // MSHR pressure
	seed := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		seed = append(seed, byte(i*7), byte(i*13))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		prev := check.Enabled
		check.Enabled = true
		defer func() { check.Enabled = prev }()

		realCfg, refCfg := cacheConfig()
		c, err := cache.New(realCfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := check.NewRefCache(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		feed := &byteFeed{data: data}
		now := uint64(100)
		for i := 0; i < len(data)/2; i++ {
			op := feed.next()
			now += uint64(op >> 5) // forward steps 0..7
			at := now
			if op&0x10 != 0 && at > 10 {
				at -= uint64(op & 0x0F) // backward jitter
			}
			l := mem.LineAddr(feed.next()) // 256 lines over 64-line capacity
			switch {
			case op&0x03 != 0: // demand access + protocol fill
				got := c.Access(l, at)
				want := ref.Access(l, at)
				if got != cache.AccessResult(want) {
					t.Fatalf("op %d: access %v at %d diverged:\n real %+v\n  ref %+v",
						i, l, at, got, want)
				}
				if !got.Hit && !got.Merged {
					lat := uint64(op>>2) + 1
					if gf, wf := c.Fill(l, at, lat, false), ref.Fill(l, at, lat, false); gf != wf {
						t.Fatalf("op %d: fill %v: real completes %d, ref %d", i, l, gf, wf)
					}
				}
			case op&0x04 != 0: // prefetch
				gi, _ := c.TryPrefetch(l, at, 37)
				if wi := ref.TryPrefetch(l, at, 37); gi != wi {
					t.Fatalf("op %d: prefetch %v: real issued=%v, ref issued=%v", i, l, gi, wi)
				}
			case op&0x08 != 0:
				c.Invalidate(l)
				ref.Invalidate(l)
			default:
				c.MarkDirty(l)
				ref.MarkDirty(l)
			}
		}
		c.DrainWrong()
		ref.DrainWrong()
		compareCacheStats(t, len(data)/2, c.Stats, ref.Stats)
		if got, want := c.ResidentLines(), ref.ResidentLines(); got != want {
			t.Fatalf("resident lines: real %d, ref %d", got, want)
		}
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCBWSVsRef drives fuzzer-shaped block/access streams through the
// production CBWS prefetcher and the naive reference, comparing the
// issued prefetch stream at every BLOCK_END plus final statistics.
func FuzzCBWSVsRef(f *testing.F) {
	f.Add([]byte{})
	// A clean two-iteration strided loop.
	loop := []byte{0xF0, 0x00}
	for it := 0; it < 8; it++ {
		for j := 0; j < 4; j++ {
			loop = append(loop, 0x10, byte(it*4+j))
		}
		loop = append(loop, 0xF1, 0x00, 0xF0, 0x00)
	}
	f.Add(loop)
	f.Add([]byte{0xF1, 0x05, 0x10, 0x20, 0xF0, 0x01, 0xF0, 0x02, 0x10, 0x30, 0xF1, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		prev := check.Enabled
		check.Enabled = true
		defer func() { check.Enabled = prev }()

		cfg := core.Config{MaxVector: 8, Steps: 3, HistoryDepth: 2,
			TableEntries: 4, HashBits: 10, StrideBits: 12, AddrBits: 32}
		p := core.New(cfg)
		ref := check.NewRefCBWS(check.RefCBWSConfig{MaxVector: 8, Steps: 3, HistoryDepth: 2,
			TableEntries: 4, HashBits: 10, StrideBits: 12, AddrBits: 32})

		var gotIssued, wantIssued []mem.LineAddr
		issueGot := func(l mem.LineAddr) { gotIssued = append(gotIssued, l) }
		issueWant := func(l mem.LineAddr) { wantIssued = append(wantIssued, l) }

		feed := &byteFeed{data: data}
		for i := 0; i < len(data)/2; i++ {
			op := feed.next()
			switch op {
			case 0xF0:
				id := int(feed.next() & 0x03)
				p.OnBlockBegin(id)
				ref.OnBlockBegin(id)
			case 0xF1:
				id := int(feed.next() & 0x07) // can mismatch the open block
				p.OnBlockEnd(id, issueGot)
				ref.OnBlockEnd(id, issueWant)
				if len(gotIssued) != len(wantIssued) {
					t.Fatalf("op %d: issued %d prefetches, ref issued %d",
						i, len(gotIssued), len(wantIssued))
				}
				for j := range gotIssued {
					if gotIssued[j] != wantIssued[j] {
						t.Fatalf("op %d: prefetch %d diverged: real %v, ref %v",
							i, j, gotIssued[j], wantIssued[j])
					}
				}
				if p.Confident() != ref.Confident() {
					t.Fatalf("op %d: confidence diverged", i)
				}
				gotIssued, wantIssued = gotIssued[:0], wantIssued[:0]
			default:
				line := mem.LineAddr(op)<<8 | mem.LineAddr(feed.next())
				a := prefetch.Access{Line: line, Addr: mem.Addr(uint64(line) * mem.LineSize)}
				p.OnAccess(a, issueGot)
				ref.OnAccess(a, issueWant)
			}
		}
		got := check.RefCBWSStats{
			Blocks:         p.Stats.Blocks,
			Overflows:      p.Stats.Overflows,
			TableHits:      p.Stats.TableHits,
			TableMisses:    p.Stats.TableMisses,
			LinesPredicted: p.Stats.LinesPredicted,
		}
		if got != ref.Stats {
			t.Fatalf("stats diverged:\n real %+v\n  ref %+v", got, ref.Stats)
		}
	})
}
