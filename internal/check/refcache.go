package check

import (
	"fmt"

	"cbws/internal/mem"
)

// RefCacheConfig mirrors the geometry of one internal/cache level. It is
// declared here rather than imported so the reference stays free of any
// dependency on the code it cross-checks.
type RefCacheConfig struct {
	Sets          int
	Ways          int
	LatencyCycles uint64
	MSHRs         int
}

// RefCacheStats mirrors cache.Stats field for field; differential tests
// compare the two structs counter by counter.
type RefCacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MergedMiss uint64

	PrefetchIssued    uint64
	PrefetchRedundant uint64
	PrefetchDropped   uint64
	PrefetchUseful    uint64
	PrefetchLate      uint64
	PrefetchWrong     uint64

	Writebacks uint64
}

// RefAccessResult mirrors cache.AccessResult field for field, so a
// differential test compares the two by conversion.
type RefAccessResult struct {
	Hit     bool
	Merged  bool
	Pf      bool
	ReadyAt uint64
}

// refLine is one resident line of the reference cache.
type refLine struct {
	prefetch bool
	used     bool
	dirty    bool
	fillAt   uint64
	lru      uint64
}

// RefCache is the functional reference model of a set-associative LRU
// cache with MSHR-limited miss handling: a map of resident lines per
// set, naive linear scans everywhere, allocation on every reap. Its
// observable behaviour — hit/miss/merge outcomes, fill completion
// times, eviction choices, statistics — must be bit-identical to
// cache.Cache driven with the same operation sequence.
type RefCache struct {
	cfg      RefCacheConfig
	sets     []map[mem.LineAddr]*refLine
	lruTick  uint64
	mshr     []uint64
	lastTime uint64
	Stats    RefCacheStats
}

// NewRefCache builds the reference model.
func NewRefCache(cfg RefCacheConfig) (*RefCache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.MSHRs <= 0 {
		return nil, fmt.Errorf("refcache: sets, ways and MSHRs must be positive, got %+v", cfg)
	}
	if !mem.IsPow2(uint64(cfg.Sets)) {
		return nil, fmt.Errorf("refcache: set count %d not a power of two", cfg.Sets)
	}
	sets := make([]map[mem.LineAddr]*refLine, cfg.Sets)
	for i := range sets {
		sets[i] = make(map[mem.LineAddr]*refLine)
	}
	return &RefCache{cfg: cfg, sets: sets}, nil
}

func (c *RefCache) set(l mem.LineAddr) map[mem.LineAddr]*refLine {
	return c.sets[uint64(l)&uint64(c.cfg.Sets-1)]
}

func (c *RefCache) touch(w *refLine) {
	c.lruTick++
	w.lru = c.lruTick
}

// mshrFree reports whether an MSHR is available at cycle now, reaping
// completed entries first (eagerly, like the production cache — see the
// non-monotonic-call-time note on Cache.mshrFree). When none is free it
// returns the earliest cycle at which one frees.
func (c *RefCache) mshrFree(now uint64) (bool, uint64) {
	var live []uint64
	earliest := ^uint64(0)
	for _, t := range c.mshr {
		if t > now {
			live = append(live, t)
			if t < earliest {
				earliest = t
			}
		}
	}
	c.mshr = live
	if len(c.mshr) < c.cfg.MSHRs {
		return true, now
	}
	return false, earliest
}

// MSHROccupancy counts fills still outstanding at cycle now without
// reaping.
func (c *RefCache) MSHROccupancy(now uint64) int {
	n := 0
	for _, t := range c.mshr {
		if t > now {
			n++
		}
	}
	return n
}

// Probe reports residency without touching replacement state.
func (c *RefCache) Probe(l mem.LineAddr) (resident bool, fillAt uint64, isPrefetchUnused bool) {
	if w, ok := c.set(l)[l]; ok {
		return true, w.fillAt, w.prefetch && !w.used
	}
	return false, 0, false
}

// evict removes l from its set, charging wrong-prefetch and write-back
// accounting exactly like cache.Cache.evict.
func (c *RefCache) evict(l mem.LineAddr) {
	set := c.set(l)
	w, ok := set[l]
	if !ok {
		return
	}
	if w.prefetch && !w.used {
		c.Stats.PrefetchWrong++
	}
	if w.dirty {
		c.Stats.Writebacks++
	}
	delete(set, l)
}

// Invalidate removes l if resident.
func (c *RefCache) Invalidate(l mem.LineAddr) { c.evict(l) }

// MarkDirty flags line l as written, if resident.
func (c *RefCache) MarkDirty(l mem.LineAddr) {
	if w, ok := c.set(l)[l]; ok {
		w.dirty = true
	}
}

// victim returns the line to evict from l's set, or false when an empty
// way exists: the LRU line among those without an outstanding fill at
// cycle now, falling back to the plain LRU line when every way is
// pinned. LRU stamps are unique, so the choice is deterministic even
// over map iteration.
func (c *RefCache) victim(l mem.LineAddr, now uint64) (mem.LineAddr, bool) {
	set := c.set(l)
	if len(set) < c.cfg.Ways {
		return 0, false
	}
	var victim mem.LineAddr
	best := ^uint64(0)
	for a, w := range set {
		if w.fillAt > now {
			continue // pinned: fill outstanding
		}
		if w.lru < best {
			best = w.lru
			victim = a
		}
	}
	if best == ^uint64(0) {
		for a, w := range set {
			if w.lru < best {
				best = w.lru
				victim = a
			}
		}
	}
	return victim, true
}

// Access performs a demand lookup of line l at cycle now, mirroring
// cache.Cache.Access (including the monotonic-time clamp).
func (c *RefCache) Access(l mem.LineAddr, now uint64) RefAccessResult {
	c.Stats.Accesses++
	if now < c.lastTime {
		now = c.lastTime
	}
	c.lastTime = now
	if w, ok := c.set(l)[l]; ok {
		c.touch(w)
		if w.fillAt <= now {
			c.Stats.Hits++
			res := RefAccessResult{Hit: true, ReadyAt: now + c.cfg.LatencyCycles}
			if w.prefetch && !w.used {
				w.used = true
				c.Stats.PrefetchUseful++
				res.Pf = true
			}
			return res
		}
		c.Stats.Misses++
		c.Stats.MergedMiss++
		res := RefAccessResult{Merged: true, ReadyAt: w.fillAt}
		if w.prefetch && !w.used {
			w.used = true
			c.Stats.PrefetchLate++
			res.Pf = true
		}
		return res
	}
	c.Stats.Misses++
	return RefAccessResult{}
}

// Fill installs line l with data arriving latency cycles after the MSHR
// allocation, stalling the allocation when no MSHR is free, mirroring
// cache.Cache.Fill.
func (c *RefCache) Fill(l mem.LineAddr, now uint64, latency uint64, isPrefetch bool) (fillAt uint64) {
	free, at := c.mshrFree(now)
	if !free {
		now = at
		_, _ = c.mshrFree(now)
	}
	fillAt = now + latency
	c.mshr = append(c.mshr, fillAt)
	if v, full := c.victim(l, now); full {
		c.evict(v)
	}
	w := &refLine{prefetch: isPrefetch, fillAt: fillAt}
	c.set(l)[l] = w
	c.touch(w)
	if isPrefetch {
		c.Stats.PrefetchIssued++
	}
	return fillAt
}

// TryPrefetch mirrors cache.Cache.TryPrefetch: refuse on residency or
// MSHR exhaustion, otherwise allocate a prefetch fill.
func (c *RefCache) TryPrefetch(l mem.LineAddr, now uint64, latency uint64) bool {
	if resident, _, _ := c.Probe(l); resident {
		c.Stats.PrefetchRedundant++
		return false
	}
	if free, _ := c.mshrFree(now); !free {
		c.Stats.PrefetchDropped++
		return false
	}
	c.Fill(l, now, latency, true)
	return true
}

// DrainWrong charges resident never-used prefetched lines as wrong, as
// at end of simulation.
func (c *RefCache) DrainWrong() {
	for _, set := range c.sets {
		for _, w := range set {
			if w.prefetch && !w.used {
				c.Stats.PrefetchWrong++
				w.used = true
			}
		}
	}
}

// ResidentLines returns the number of resident lines.
func (c *RefCache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		n += len(set)
	}
	return n
}
