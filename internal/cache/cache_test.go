package cache

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"cbws/internal/mem"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func small() Config {
	return Config{Name: "t", SizeBytes: 8 * mem.LineSize, Ways: 2, LatencyCycles: 2, MSHRs: 2}
}

func TestAccessResultRegisterSized(t *testing.T) {
	// The compiler keeps a struct in registers (SSA) only when it has
	// at most 4 fields and fits in 32 bytes (MaxStruct in
	// cmd/compile's CanSSA). Past either bound every Access result is
	// spilled field by field and reloaded with wide loads that defeat
	// store-to-load forwarding, on each L1 miss of the simulation.
	typ := reflect.TypeOf(AccessResult{})
	if typ.NumField() > 4 || typ.Size() > 32 {
		t.Errorf("AccessResult has %d fields and %d bytes; want <= 4 and <= 32", typ.NumField(), typ.Size())
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		small(),
		{Name: "l1", SizeBytes: 32 << 10, Ways: 4, LatencyCycles: 2, MSHRs: 4},
		{Name: "l2", SizeBytes: 2 << 20, Ways: 8, LatencyCycles: 30, MSHRs: 32},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", c.Name, err)
		}
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "negWays", SizeBytes: 1024, Ways: -1, MSHRs: 1},
		{Name: "nonDiv", SizeBytes: 1000, Ways: 2, MSHRs: 1},
		{Name: "nonPow2Sets", SizeBytes: 3 * 2 * mem.LineSize, Ways: 2, MSHRs: 1},
		{Name: "noMSHR", SizeBytes: 1024, Ways: 2, MSHRs: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
}

func TestSets(t *testing.T) {
	cfg := Config{SizeBytes: 32 << 10, Ways: 4}
	if got := cfg.Sets(); got != 128 {
		t.Errorf("Sets = %d, want 128", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustCache(t, small())
	r := c.Access(100, 10)
	if r.Hit || r.Merged {
		t.Fatalf("first access should miss: %+v", r)
	}
	fillAt := c.Fill(100, 10, 300, false)
	if fillAt != 310 {
		t.Errorf("fillAt = %d, want 310", fillAt)
	}
	// Before the fill completes, the access merges.
	r = c.Access(100, 200)
	if !r.Merged || r.ReadyAt != 310 {
		t.Errorf("merge: %+v", r)
	}
	// After the fill completes, it's a hit.
	r = c.Access(100, 400)
	if !r.Hit || r.ReadyAt != 402 {
		t.Errorf("hit: %+v", r)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 2 || c.Stats.MergedMiss != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: lines mapping to the same set evict in LRU order.
	c := mustCache(t, small()) // 4 sets
	sameSet := func(i int) mem.LineAddr { return mem.LineAddr(i * 4) }

	for i := 0; i < 2; i++ {
		c.Access(sameSet(i), uint64(i))
		c.Fill(sameSet(i), uint64(i), 0, false)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(sameSet(0), 10)
	// Insert a third line: must evict line 1.
	c.Fill(sameSet(2), 20, 0, false)
	if !c.Contains(sameSet(0), 30) {
		t.Error("line 0 (MRU) was evicted")
	}
	if c.Contains(sameSet(1), 30) {
		t.Error("line 1 (LRU) survived")
	}
	if !c.Contains(sameSet(2), 30) {
		t.Error("line 2 missing after fill")
	}
}

func TestEvictionCallback(t *testing.T) {
	c := mustCache(t, small())
	var evicted []mem.LineAddr
	c.OnEvict(func(l mem.LineAddr, dirty bool) { evicted = append(evicted, l) })
	sameSet := func(i int) mem.LineAddr { return mem.LineAddr(i * 4) }
	for i := 0; i < 3; i++ {
		c.Fill(sameSet(i), uint64(i*400), 0, false)
	}
	if len(evicted) != 1 || evicted[0] != sameSet(0) {
		t.Errorf("evicted = %v, want [%v]", evicted, sameSet(0))
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, small())
	c.Fill(7, 0, 0, false)
	if !c.Contains(7, 10) {
		t.Fatal("line missing after fill")
	}
	c.Invalidate(7)
	if c.Contains(7, 10) {
		t.Error("line survived invalidation")
	}
	// Invalidating an absent line is a no-op.
	c.Invalidate(7)
}

func TestMSHRStall(t *testing.T) {
	c := mustCache(t, small()) // 2 MSHRs
	// Two outstanding fills occupy both MSHRs.
	f1 := c.Fill(1, 0, 300, false)
	f2 := c.Fill(2, 0, 300, false)
	if f1 != 300 || f2 != 300 {
		t.Fatalf("fills: %d %d", f1, f2)
	}
	// A third fill at cycle 10 must wait for an MSHR: completes at
	// 300 (earliest free) + 300.
	f3 := c.Fill(3, 10, 300, false)
	if f3 != 600 {
		t.Errorf("stalled fill completes at %d, want 600", f3)
	}
}

func TestMSHRReap(t *testing.T) {
	c := mustCache(t, small())
	c.Fill(1, 0, 100, false)
	c.Fill(2, 0, 100, false)
	// After both fills complete, MSHRs are free again: no stall.
	f := c.Fill(3, 200, 100, false)
	if f != 300 {
		t.Errorf("fill after reap completes at %d, want 300", f)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := mustCache(t, small())
	issued, _ := c.TryPrefetch(5, 0, 300)
	if !issued || c.Stats.PrefetchIssued != 1 {
		t.Fatalf("prefetch not issued: %+v", c.Stats)
	}
	// Same line again: redundant.
	issued, reason := c.TryPrefetch(5, 1, 300)
	if issued || reason != RefusedResident {
		t.Errorf("redundant prefetch: issued=%v reason=%v", issued, reason)
	}
	if c.Stats.PrefetchRedundant != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
	// Demand use while in flight: late prefetch.
	r := c.Access(5, 100)
	if !r.Merged || !r.Pf {
		t.Errorf("late merge: %+v", r)
	}
	if c.Stats.PrefetchLate != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestPrefetchTimelyUse(t *testing.T) {
	c := mustCache(t, small())
	c.TryPrefetch(5, 0, 100)
	r := c.Access(5, 200)
	if !r.Hit || !r.Pf {
		t.Fatalf("timely hit: %+v", r)
	}
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
	// Second use is a plain hit, not another useful prefetch.
	r = c.Access(5, 300)
	if !r.Hit || r.Pf {
		t.Errorf("second use: %+v", r)
	}
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("double-counted useful prefetch: %+v", c.Stats)
	}
}

func TestPrefetchMSHRDrop(t *testing.T) {
	c := mustCache(t, small()) // 2 MSHRs
	c.Fill(1, 0, 300, false)
	c.Fill(2, 0, 300, false)
	issued, reason := c.TryPrefetch(3, 10, 300)
	if issued || reason != RefusedNoMSHR {
		t.Errorf("prefetch with full MSHRs: issued=%v reason=%v", issued, reason)
	}
	if c.Stats.PrefetchDropped != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestWrongOnEviction(t *testing.T) {
	c := mustCache(t, small())
	sameSet := func(i int) mem.LineAddr { return mem.LineAddr(i * 4) }
	c.TryPrefetch(sameSet(0), 0, 0)
	// Fill two more lines into the set: the unused prefetch evicts.
	c.Fill(sameSet(1), 100, 0, false)
	c.Fill(sameSet(2), 200, 0, false)
	if c.Stats.PrefetchWrong != 1 {
		t.Errorf("wrong = %d, want 1", c.Stats.PrefetchWrong)
	}
}

func TestDrainWrong(t *testing.T) {
	c := mustCache(t, small())
	c.TryPrefetch(1, 0, 0)
	c.TryPrefetch(2, 0, 0)
	c.Access(1, 100) // line 1 used, line 2 not
	c.DrainWrong()
	if c.Stats.PrefetchWrong != 1 {
		t.Errorf("wrong = %d, want 1", c.Stats.PrefetchWrong)
	}
	// Draining twice must not double-count.
	c.DrainWrong()
	if c.Stats.PrefetchWrong != 1 {
		t.Errorf("wrong after second drain = %d", c.Stats.PrefetchWrong)
	}
}

// TestDrainWrongSkipsInvalidatedWays: an invalidated way keeps its stale
// flags, and validity is the tag alone, so an unused prefetch charged as
// wrong when invalidated must not be charged again by DrainWrong.
func TestDrainWrongSkipsInvalidatedWays(t *testing.T) {
	c := mustCache(t, small())
	c.TryPrefetch(1, 0, 0)
	c.Invalidate(1)
	c.DrainWrong()
	if c.Stats.PrefetchWrong != 1 {
		t.Errorf("wrong = %d, want 1", c.Stats.PrefetchWrong)
	}
}

func TestPinnedVictimSkipped(t *testing.T) {
	c := mustCache(t, small())
	sameSet := func(i int) mem.LineAddr { return mem.LineAddr(i * 4) }
	// Line 0 has an outstanding fill (pinned); line 1 is complete.
	c.Fill(sameSet(0), 0, 1000, false)
	c.Fill(sameSet(1), 0, 0, false)
	// New fill should evict the completed line 1, not the pinned one.
	c.Fill(sameSet(2), 10, 0, false)
	if resident, _, _ := c.Probe(sameSet(0)); !resident {
		t.Error("pinned line was evicted")
	}
	if resident, _, _ := c.Probe(sameSet(1)); resident {
		t.Error("completed line survived; pinned line should be kept")
	}
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(small())
		if err != nil {
			return false
		}
		now := uint64(0)
		for i := 0; i < 500; i++ {
			now += uint64(rng.Intn(10))
			l := mem.LineAddr(rng.Intn(64))
			if rng.Intn(2) == 0 {
				if r := c.Access(l, now); !r.Hit && !r.Merged {
					c.Fill(l, now, uint64(rng.Intn(50)), false)
				}
			} else {
				c.TryPrefetch(l, now, uint64(rng.Intn(50)))
			}
			if c.ResidentLines() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProbeContainsConsistency(t *testing.T) {
	// Property: Contains(l, now) is true iff Probe reports resident
	// with fillAt <= now.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(small())
		if err != nil {
			return false
		}
		now := uint64(0)
		for i := 0; i < 300; i++ {
			now += uint64(rng.Intn(20))
			l := mem.LineAddr(rng.Intn(32))
			if r := c.Access(l, now); !r.Hit && !r.Merged {
				c.Fill(l, now, uint64(rng.Intn(100)), rng.Intn(2) == 0)
			}
			probe := mem.LineAddr(rng.Intn(32))
			resident, fillAt, _ := c.Probe(probe)
			want := resident && fillAt <= now
			if c.Contains(probe, now) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := mustCache(t, small())
	sameSet := func(i int) mem.LineAddr { return mem.LineAddr(i * 4) }
	var dirtyEvicted []mem.LineAddr
	c.OnEvict(func(l mem.LineAddr, dirty bool) {
		if dirty {
			dirtyEvicted = append(dirtyEvicted, l)
		}
	})
	c.Fill(sameSet(0), 0, 0, false)
	c.MarkDirty(sameSet(0))
	c.Fill(sameSet(1), 100, 0, false) // clean
	// Third fill evicts line 0 (LRU, dirty).
	c.Fill(sameSet(2), 200, 0, false)
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if len(dirtyEvicted) != 1 || dirtyEvicted[0] != sameSet(0) {
		t.Errorf("dirty evictions: %v", dirtyEvicted)
	}
}

func TestMarkDirtyAbsentLineNoop(t *testing.T) {
	c := mustCache(t, small())
	c.MarkDirty(99) // must not panic or create state
	if c.ResidentLines() != 0 {
		t.Error("MarkDirty materialized a line")
	}
}

// footprintSink keeps the caches built by TestTableIIL2Footprint
// reachable, so each New is a heap allocation the counters see.
var footprintSink *Cache

// TestTableIIL2Footprint pins the host memory of the Table II L2, the
// largest array a simulated cell allocates. New makes four allocations:
// the Cache header, the MSHR list, and the way state's two arrays (one
// []uint64 carved into tags, fill times and LRU stamps, one byte of
// flags per way). Together they cost 25 bytes a way; a layout change
// that grows a way past 26 bytes fails here. The collector is off while
// counting: a collection triggered by these 1 MB allocations makes
// runtime allocations of its own, which would count as New's.
func TestTableIIL2Footprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultHierarchyConfig().L2
	ways := cfg.Sets() * cfg.Ways
	if allocs := testing.AllocsPerRun(5, func() { footprintSink, _ = New(cfg) }); allocs != 4 {
		t.Errorf("New(Table II L2) makes %v allocations, want 4", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	footprintSink, _ = New(cfg)
	runtime.ReadMemStats(&after)
	perWay := float64(after.TotalAlloc-before.TotalAlloc) / float64(ways)
	if perWay > 26 {
		t.Errorf("New(Table II L2) allocates %.2f bytes per way over %d ways, want <= 26", perWay, ways)
	}
	t.Logf("Table II L2: %d ways, %.2f bytes per way", ways, perWay)
	footprintSink = nil
}

// TestCheckMSHRCatchesCorruptMinimum corrupts the MSHR state of a
// cache with outstanding fills and expects checkMSHR to fail: a
// minimum that is not the earliest outstanding fill, and more fills
// than MSHRs.
func TestCheckMSHRCatchesCorruptMinimum(t *testing.T) {
	loaded := func() *Cache {
		c := mustCache(t, small()) // 2 MSHRs
		c.Fill(0, 0, 100, false)
		c.Fill(1, 0, 50, false)
		if len(c.mshr) != 2 {
			t.Fatalf("%d outstanding fills, want 2", len(c.mshr))
		}
		c.checkMSHR()
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"minimum is not the earliest fill", func(c *Cache) { c.mshrMin = 100 }},
		{"more fills than MSHRs", func(c *Cache) { c.mshr = append(c.mshr, 200) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := loaded()
			tc.corrupt(c)
			defer func() {
				if recover() == nil {
					t.Error("checkMSHR accepted a corrupted MSHR list")
				}
			}()
			c.checkMSHR()
		})
	}
}
