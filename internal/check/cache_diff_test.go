package check_test

import (
	"math/rand"
	"testing"

	"cbws/internal/cache"
	"cbws/internal/check"
	"cbws/internal/mem"
)

// cacheConfig is the geometry used by the cache differential tests:
// small enough that evictions, MSHR stalls and pinned-victim fallbacks
// all occur constantly under a random stream.
func cacheConfig() (cache.Config, check.RefCacheConfig) {
	const sets, ways, mshrs = 16, 4, 3
	real := cache.Config{
		Name:          "diff",
		SizeBytes:     sets * ways * mem.LineSize,
		Ways:          ways,
		LatencyCycles: 2,
		MSHRs:         mshrs,
	}
	ref := check.RefCacheConfig{Sets: sets, Ways: ways, LatencyCycles: 2, MSHRs: mshrs}
	return real, ref
}

// compareCacheStats asserts counter-for-counter equality between the
// production and reference statistics.
func compareCacheStats(t *testing.T, step int, got cache.Stats, want check.RefCacheStats) {
	t.Helper()
	mirror := check.RefCacheStats{
		Accesses:          got.Accesses,
		Hits:              got.Hits,
		Misses:            got.Misses,
		MergedMiss:        got.MergedMiss,
		PrefetchIssued:    got.PrefetchIssued,
		PrefetchRedundant: got.PrefetchRedundant,
		PrefetchDropped:   got.PrefetchDropped,
		PrefetchUseful:    got.PrefetchUseful,
		PrefetchLate:      got.PrefetchLate,
		PrefetchWrong:     got.PrefetchWrong,
		Writebacks:        got.Writebacks,
	}
	if mirror != want {
		t.Fatalf("step %d: stats diverged:\n real %+v\n  ref %+v", step, mirror, want)
	}
}

// driveCachePair feeds one pseudo-random operation stream — demand
// accesses with protocol-correct fills, prefetches, invalidations,
// dirty marks, and deliberately non-monotonic timestamps — to the
// production cache and the reference model, requiring bit-identical
// outcomes at every step. It returns the number of operations driven.
func driveCachePair(t testingT, c *cache.Cache, ref *check.RefCache, rng *rand.Rand, ops int) {
	const memLatency = 37
	now := uint64(100)
	for i := 0; i < ops; i++ {
		// Mostly forward time, with occasional backward jitter: demand
		// fills run at now+latency while prefetch issues run at now, so
		// the MSHR reap must tolerate non-monotonic call times.
		now += uint64(rng.Intn(8))
		at := now
		if j := rng.Intn(16); j == 0 && at > 10 {
			at -= uint64(rng.Intn(10))
		}
		l := mem.LineAddr(rng.Intn(3 * 16 * 4)) // ~3x capacity: hits and evictions
		switch op := rng.Intn(10); {
		case op < 6: // demand access + protocol fill
			got := c.Access(l, at)
			want := ref.Access(l, at)
			if got != cache.AccessResult(want) {
				t.Fatalf("op %d: access %v at %d diverged:\n real %+v\n  ref %+v",
					i, l, at, got, want)
			}
			if !got.Hit && !got.Merged {
				lat := uint64(rng.Intn(memLatency))
				gf := c.Fill(l, at, lat, false)
				wf := ref.Fill(l, at, lat, false)
				if gf != wf {
					t.Fatalf("op %d: fill %v at %d: real completes %d, ref %d", i, l, at, gf, wf)
				}
			}
		case op < 8: // prefetch
			gi, _ := c.TryPrefetch(l, at, memLatency)
			wi := ref.TryPrefetch(l, at, memLatency)
			if gi != wi {
				t.Fatalf("op %d: prefetch %v at %d: real issued=%v, ref issued=%v", i, l, at, gi, wi)
			}
		case op < 9: // back-invalidation
			c.Invalidate(l)
			ref.Invalidate(l)
		default: // write
			c.MarkDirty(l)
			ref.MarkDirty(l)
		}
	}
}

// testingT is the subset of testing.T/testing.F shared by the
// differential drivers.
type testingT interface {
	Helper()
	Fatalf(format string, args ...any)
}

// TestCacheVsReference drives over a million random operations through
// the production cache and the map-based reference, with the embedded
// invariant checkers enabled, and requires bit-identical behaviour:
// every access outcome, every fill time, every statistics counter.
func TestCacheVsReference(t *testing.T) {
	prev := check.Enabled
	check.Enabled = true
	defer func() { check.Enabled = prev }()

	realCfg, refCfg := cacheConfig()
	const seeds, opsPerSeed = 8, 150_000 // 1.2M operations total
	for seed := int64(0); seed < seeds; seed++ {
		c, err := cache.New(realCfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := check.NewRefCache(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		driveCachePair(t, c, ref, rand.New(rand.NewSource(seed)), opsPerSeed)

		c.DrainWrong()
		ref.DrainWrong()
		compareCacheStats(t, opsPerSeed, c.Stats, ref.Stats)
		if got, want := c.ResidentLines(), ref.ResidentLines(); got != want {
			t.Fatalf("seed %d: resident lines: real %d, ref %d", seed, got, want)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
