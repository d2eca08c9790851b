package cache

import (
	"math/rand"
	"testing"

	"cbws/internal/mem"
)

// refCache is a deliberately naive reference implementation of a
// set-associative LRU cache with instant fills (no MSHR/timing): per
// set, an ordered slice from MRU to LRU. The real Cache, when driven
// with fills that complete instantly, must agree with it on every
// hit/miss outcome.
type refCache struct {
	ways int
	sets map[uint64][]mem.LineAddr
	mask uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{ways: ways, sets: make(map[uint64][]mem.LineAddr), mask: uint64(sets - 1)}
}

// access returns true on hit and updates LRU/contents like a
// write-allocate cache with instant fill.
func (r *refCache) access(l mem.LineAddr) bool {
	idx := uint64(l) & r.mask
	set := r.sets[idx]
	for i, tag := range set {
		if tag == l {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = l
			return true
		}
	}
	// Miss: insert at MRU, evict LRU if full.
	set = append([]mem.LineAddr{l}, set...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets[idx] = set
	return false
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	const sets, ways = 8, 4
	cfg := Config{Name: "ref", SizeBytes: sets * ways * mem.LineSize, Ways: ways, LatencyCycles: 1, MSHRs: 4}
	for seed := int64(0); seed < 20; seed++ {
		c := mustCache(t, cfg)
		ref := newRefCache(sets, ways)
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		for i := 0; i < 5000; i++ {
			now += 10 // instant fills: every prior fill has completed
			// Skewed address distribution to exercise both hits and
			// evictions.
			l := mem.LineAddr(rng.Intn(3 * sets * ways))
			got := c.Access(l, now)
			want := ref.access(l)
			if got.Hit != want {
				t.Fatalf("seed %d access %d line %v: cache hit=%v, reference hit=%v",
					seed, i, l, got.Hit, want)
			}
			if !got.Hit && !got.Merged {
				c.Fill(l, now, 0, false)
			}
			if got.Merged {
				t.Fatalf("seed %d access %d: unexpected merge with instant fills", seed, i)
			}
		}
	}
}

func TestCacheMatchesReferenceWithInvalidations(t *testing.T) {
	const sets, ways = 4, 2
	cfg := Config{Name: "ref2", SizeBytes: sets * ways * mem.LineSize, Ways: ways, LatencyCycles: 1, MSHRs: 4}
	c := mustCache(t, cfg)
	ref := newRefCache(sets, ways)
	rng := rand.New(rand.NewSource(42))
	now := uint64(0)
	// Mirror invalidations into the reference by removing the line.
	refInvalidate := func(l mem.LineAddr) {
		idx := uint64(l) & ref.mask
		set := ref.sets[idx]
		for i, tag := range set {
			if tag == l {
				ref.sets[idx] = append(set[:i], set[i+1:]...)
				return
			}
		}
	}
	for i := 0; i < 5000; i++ {
		now += 10
		l := mem.LineAddr(rng.Intn(2 * sets * ways))
		if rng.Intn(10) == 0 {
			c.Invalidate(l)
			refInvalidate(l)
			continue
		}
		got := c.Access(l, now)
		want := ref.access(l)
		if got.Hit != want {
			t.Fatalf("access %d line %v: cache hit=%v, reference hit=%v", i, l, got.Hit, want)
		}
		if !got.Hit && !got.Merged {
			c.Fill(l, now, 0, false)
		}
	}
}
