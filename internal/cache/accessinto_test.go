package cache

import (
	"testing"

	"cbws/internal/engine"
	"cbws/internal/mem"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// hierOp is one recorded hierarchy call: a demand access, or (pf) a
// prefetch of line into the L2.
type hierOp struct {
	pc    uint64
	addr  mem.Addr
	line  mem.LineAddr
	write bool
	pf    bool
	now   uint64
}

// recordingPort is an engine.MemPort that serves demands from a
// Table II hierarchy and records every call it makes on it. After each
// L1 miss it prefetches the next two lines, so the recorded stream also
// carries timely and late L2 prefetches and the evictions they cause.
type recordingPort struct {
	h   *Hierarchy
	ops []hierOp
}

func (p *recordingPort) access(pc uint64, addr mem.Addr, write bool, now uint64) uint64 {
	info := p.h.Access(pc, addr, write, now)
	p.ops = append(p.ops, hierOp{pc: pc, addr: addr, write: write, now: now})
	if !info.HitL1 {
		for d := mem.LineAddr(1); d <= 2; d++ {
			p.h.Prefetch(info.Line+d, now)
			p.ops = append(p.ops, hierOp{line: info.Line + d, pf: true, now: now})
		}
	}
	return info.ReadyAt
}

func (p *recordingPort) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.access(pc, addr, false, now)
}

func (p *recordingPort) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.access(pc, addr, true, now)
}

// recordDemands runs the first n instructions of a workload through the
// timing engine and returns the hierarchy calls it made.
func recordDemands(t *testing.T, name string, n uint64) []hierOp {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingPort{h: h}
	eng, err := engine.New(engine.DefaultConfig(), p, engine.NopBlocks{})
	if err != nil {
		t.Fatal(err)
	}
	trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: n}, eng)
	return p.ops
}

// genericAccess is AccessInto with the L1 hit and merge arms done by
// the generic Cache.Access and MarkDirty instead of the inlined scan.
// On a generic L1 miss it undoes that step's counts and hands the
// access to AccessInto for the L2, memory and L1-fill tail; the inlined
// scan must then miss as well.
func genericAccess(t *testing.T, h *Hierarchy, info *AccessInfo, pc uint64, addr mem.Addr, write bool, now uint64) {
	t.Helper()
	l := mem.LineOf(addr)
	*info = AccessInfo{PC: pc, Addr: addr, Line: l, Write: write}
	r := h.L1.Access(l, now)
	if r.Hit || r.Merged {
		info.HitL1 = r.Hit
		info.ReadyAt = r.ReadyAt
		if write {
			h.L1.MarkDirty(l)
		}
		return
	}
	h.L1.Stats.Accesses--
	h.L1.Stats.Misses--
	before := h.L1.Stats
	h.AccessInto(info, pc, addr, write, now)
	if info.HitL1 || h.L1.Stats.MergedMiss != before.MergedMiss || h.L1.Stats.Hits != before.Hits {
		t.Fatalf("%v at %d: Cache.Access misses the L1, AccessInto's scan finds it (%+v)", l, now, *info)
	}
}

// compareWays requires identical resident lines and identical per-way
// state (fill time, LRU stamp, flags) for every resident way.
func compareWays(t *testing.T, step int, got, want *Cache) {
	t.Helper()
	if got.lruTick != want.lruTick || got.lastTime != want.lastTime {
		t.Fatalf("step %d: %s lruTick/lastTime %d/%d, generic %d/%d",
			step, got.cfg.Name, got.lruTick, got.lastTime, want.lruTick, want.lastTime)
	}
	for i, tag := range want.tags {
		if got.tags[i] != tag {
			t.Fatalf("step %d: %s way %d holds %#x, generic %#x", step, got.cfg.Name, i, got.tags[i], tag)
		}
		if tag != invalidTag && (got.fillAt[i] != want.fillAt[i] || got.lru[i] != want.lru[i] || got.flags[i] != want.flags[i]) {
			t.Fatalf("step %d: %s way %d (line %#x): fillAt/lru/flags %d/%d/%03b, generic %d/%d/%03b",
				step, got.cfg.Name, i, tag, got.fillAt[i], got.lru[i], got.flags[i],
				want.fillAt[i], want.lru[i], want.flags[i])
		}
	}
}

// compareHierarchies requires identical counters at both levels and in
// the hierarchy, and identical resident lines at both levels.
func compareHierarchies(t *testing.T, step int, got, want *Hierarchy) {
	t.Helper()
	if got.L1.Stats != want.L1.Stats {
		t.Fatalf("step %d: L1 stats\n inlined %+v\n generic %+v", step, got.L1.Stats, want.L1.Stats)
	}
	if got.L2.Stats != want.L2.Stats {
		t.Fatalf("step %d: L2 stats\n inlined %+v\n generic %+v", step, got.L2.Stats, want.L2.Stats)
	}
	if got.Timeliness != want.Timeliness || got.BytesFromMem != want.BytesFromMem ||
		got.DemandBytes != want.DemandBytes || got.WritebackBytes != want.WritebackBytes {
		t.Fatalf("step %d: hierarchy counters\n inlined %+v %d/%d/%d\n generic %+v %d/%d/%d", step,
			got.Timeliness, got.BytesFromMem, got.DemandBytes, got.WritebackBytes,
			want.Timeliness, want.BytesFromMem, want.DemandBytes, want.WritebackBytes)
	}
	compareWays(t, step, got.L1, want.L1)
	compareWays(t, step, got.L2, want.L2)
}

// TestAccessIntoMatchesGenericL1 replays recorded demand streams through
// two Table II hierarchies: one served by AccessInto's inlined L1 arm,
// one whose L1 step goes through the generic Cache methods. Each stream
// is replayed as recorded and with every fifth demand moved 8 cycles
// earlier, which exercises the L1's monotonic-time clamp. Every access
// must return the same AccessInfo, and both hierarchies must hold the
// same counters and resident lines throughout.
func TestAccessIntoMatchesGenericL1(t *testing.T) {
	n := uint64(150_000)
	if testing.Short() {
		n = 40_000
	}
	var merged, writeHits, writebacks, clamped uint64
	for _, name := range []string{"stencil-default", "433.milc-su3imp", "450.soplex-ref", "lbm-long"} {
		ops := recordDemands(t, name, n)
		for _, jitter := range []bool{false, true} {
			inl, err := NewHierarchy(DefaultHierarchyConfig())
			if err != nil {
				t.Fatal(err)
			}
			gen, _ := NewHierarchy(DefaultHierarchyConfig())
			var got, want AccessInfo
			for i, op := range ops {
				if op.pf {
					inl.Prefetch(op.line, op.now)
					gen.Prefetch(op.line, op.now)
					continue
				}
				now := op.now
				if jitter && i%5 == 0 && now >= 8 {
					now -= 8
					if now < inl.L1.lastTime {
						clamped++
					}
				}
				inl.AccessInto(&got, op.pc, op.addr, op.write, now)
				genericAccess(t, gen, &want, op.pc, op.addr, op.write, now)
				if got != want {
					t.Fatalf("%s jitter=%v op %d: inlined %+v, generic %+v", name, jitter, i, got, want)
				}
				if got.HitL1 && op.write {
					writeHits++
				}
				if i%20_000 == 0 {
					compareHierarchies(t, i, inl, gen)
				}
			}
			compareHierarchies(t, len(ops), inl, gen)
			merged += inl.L1.Stats.MergedMiss
			writebacks += inl.L1.Stats.Writebacks
		}
	}
	// The streams must reach every arm of the inlined L1 step.
	if merged == 0 || writeHits == 0 || writebacks == 0 || clamped == 0 {
		t.Fatalf("streams miss an L1 arm: %d merged misses, %d write hits, %d dirty evictions, %d clamped accesses",
			merged, writeHits, writebacks, clamped)
	}
}
