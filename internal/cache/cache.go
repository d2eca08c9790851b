// Package cache implements the simulated memory hierarchy: set-associative
// caches with LRU replacement and MSHR-limited miss handling, composed
// into the two-level hierarchy of Table II (32KB 4-way L1D, inclusive 2MB
// 8-way L2, 300-cycle memory). Prefetches fill into the L2, as in the
// paper.
//
// The model is functional-with-latency: each access is resolved
// synchronously into a completion cycle. Lines are installed at miss time
// but carry a fillAt stamp; accesses that arrive before fillAt merge with
// the outstanding fill, which models MSHR hit-under-miss and late
// ("shorter-waiting-time") prefetches. The timing model guarantees that
// access times are monotonically non-decreasing, which the MSHR occupancy
// accounting relies on.
package cache

import (
	"fmt"

	"cbws/internal/check"
	"cbws/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name          string
	SizeBytes     int
	Ways          int
	LatencyCycles uint64
	MSHRs         int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// Validate checks that the geometry is a realizable power-of-two design.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size and ways must be positive", c.Name)
	}
	if c.SizeBytes%(mem.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*linesize", c.Name, c.SizeBytes)
	}
	if !mem.IsPow2(uint64(c.Sets())) {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, c.Sets())
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: need at least one MSHR", c.Name)
	}
	return nil
}

// Per-way flag bits.
const (
	flagPrefetch uint8 = 1 << iota // brought in by a prefetch ...
	flagUsed                       // ... and demanded at least once since
	flagDirty                      // written since fill (write-back policy)

	// pfUnused masks the prefetch-use state: a way is a prefetched,
	// not yet demanded line when its masked flags equal flagPrefetch.
	pfUnused = flagPrefetch | flagUsed
)

// Stats aggregates per-level counters.
type Stats struct {
	Accesses   uint64 // demand lookups
	Hits       uint64 // demand hits on resident, filled lines
	Misses     uint64 // demand misses (including merges with in-flight fills)
	MergedMiss uint64 // subset of Misses that merged with an in-flight fill

	PrefetchIssued    uint64 // prefetch fills allocated
	PrefetchRedundant uint64 // dropped: line already present or in flight
	PrefetchDropped   uint64 // dropped: no MSHR available
	PrefetchUseful    uint64 // prefetched lines demanded after fill (timely)
	PrefetchLate      uint64 // demanded while the prefetch was in flight
	PrefetchWrong     uint64 // prefetched lines evicted or left unused

	Writebacks uint64 // dirty lines evicted (write-back traffic)
}

// invalidTag marks an empty way. It can never collide with a real tag:
// line addresses are byte addresses shifted right by the line-size
// bits, so the top bits are always zero.
const invalidTag = ^uint64(0)

// Cache is one set-associative level. Way state is held
// structure-of-arrays style, 25 bytes a way: tags, fillAt and lru are
// three views of one []uint64 allocation and flags is a byte per way.
// Ways are flat: set s occupies [s*ways, (s+1)*ways) of every array. A
// way is valid exactly when its tag is not invalidTag; the other arrays
// are stale for an invalid way and are rewritten by the Fill that
// claims it. The find-by-tag scan that dominates the simulator's
// profile touches only the tag array.
type Cache struct {
	cfg      Config
	tags     []uint64 // tag per way, invalidTag when empty
	fillAt   []uint64 // cycle at which the way's data arrives
	lru      []uint64 // last-touch stamp per way
	flags    []uint8  // flagPrefetch | flagUsed | flagDirty per way
	ways     int
	setMask  uint64
	lruTick  uint64
	mshr     []uint64 // fillAt cycles of outstanding fills
	mshrMin  uint64   // min(mshr), or ^0 when empty: nothing retires before it
	evictCB  func(l mem.LineAddr, dirty bool)
	Stats    Stats
	lastTime uint64
}

// New builds a cache from cfg; cfg must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets() * cfg.Ways
	words := make([]uint64, 3*n)
	tags := words[:n:n]
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:     cfg,
		tags:    tags,
		fillAt:  words[n : 2*n : 2*n],
		lru:     words[2*n:],
		flags:   make([]uint8, n),
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
		mshr:    make([]uint64, 0, cfg.MSHRs),
		mshrMin: ^uint64(0),
	}, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// OnEvict registers a callback invoked with the line address and dirty
// state of every evicted line; the hierarchy uses it for inclusive
// back-invalidation and write-back propagation.
func (c *Cache) OnEvict(fn func(l mem.LineAddr, dirty bool)) { c.evictCB = fn }

// MarkDirty flags line l as written, if resident. Dirty lines charge a
// write-back on eviction.
func (c *Cache) MarkDirty(l mem.LineAddr) {
	if i := c.findWay(l); i >= 0 {
		c.flags[i] |= flagDirty
	}
}

// findWay returns the flat way index holding l, or -1. A tag match
// implies validity: empty ways hold invalidTag.
//
//cbws:hotpath
func (c *Cache) findWay(l mem.LineAddr) int {
	base := int(uint64(l)&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == uint64(l) {
			return base + i
		}
	}
	return -1
}

// Probe reports whether l is resident (possibly still in flight) without
// updating replacement state.
//
//cbws:hotpath
func (c *Cache) Probe(l mem.LineAddr) (resident bool, fillAt uint64, isPrefetchUnused bool) {
	if i := c.findWay(l); i >= 0 {
		return true, c.fillAt[i], c.flags[i]&pfUnused == flagPrefetch
	}
	return false, 0, false
}

// Contains reports whether l is resident and filled by cycle now.
func (c *Cache) Contains(l mem.LineAddr, now uint64) bool {
	resident, fillAt, _ := c.Probe(l)
	return resident && fillAt <= now
}

// mshrFree reaps completed entries and reports whether an MSHR is
// available at cycle now; if not, it returns the earliest cycle at which
// one frees.
//
// Reaping must stay eager (every call), not deferred until the list is
// full: call times are not monotonic — a demand fill is allocated at
// now + L1 latency while the same access's prefetch issue runs at now —
// so an entry discarded at a later timestamp may still be "live" at an
// earlier one, and deferring the reap would change availability
// decisions.
//
// A call at a cycle before the earliest outstanding fill skips the
// scan: that reap could retire nothing, so skipping it is the eager
// reap's exact result, not a deferral.
//
//cbws:hotpath
func (c *Cache) mshrFree(now uint64) (bool, uint64) {
	if now < c.mshrMin {
		if len(c.mshr) < c.cfg.MSHRs {
			return true, now
		}
		return false, c.mshrMin
	}
	out := c.mshr[:0]
	earliest := ^uint64(0)
	for _, t := range c.mshr {
		if t > now {
			out = append(out, t)
			if t < earliest {
				earliest = t
			}
		}
	}
	c.mshr = out
	c.mshrMin = earliest
	if len(c.mshr) < c.cfg.MSHRs {
		return true, now
	}
	return false, earliest
}

// MSHROccupancy returns the number of fills still outstanding at cycle
// now. It is a read-only observability accessor: unlike mshrFree it
// never reaps, so sampling cannot perturb allocation decisions.
func (c *Cache) MSHROccupancy(now uint64) int {
	n := 0
	for _, t := range c.mshr {
		if t > now {
			n++
		}
	}
	return n
}

// victim selects the replacement way in l's set: an invalid way if any,
// otherwise the LRU way. Ways with outstanding fills are skipped when
// possible (they are pinned by their MSHR). Returns a flat way index.
//
//cbws:hotpath
func (c *Cache) victim(l mem.LineAddr, now uint64) int {
	base := int(uint64(l)&c.setMask) * c.ways
	lru := -1
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			return i
		}
		if c.fillAt[i] > now {
			continue // pinned: fill outstanding
		}
		if lru < 0 || c.lru[i] < c.lru[lru] {
			lru = i
		}
	}
	if lru < 0 {
		// Every way has an outstanding fill; fall back to plain LRU.
		lru = base
		for i := base; i < base+c.ways; i++ {
			if c.lru[i] < c.lru[lru] {
				lru = i
			}
		}
	}
	return lru
}

// evict notifies about, and accounts for, the eviction of way i.
//
//cbws:hotpath
func (c *Cache) evict(i int) {
	tag := c.tags[i]
	if tag == invalidTag {
		return
	}
	f := c.flags[i]
	if f&pfUnused == flagPrefetch {
		c.Stats.PrefetchWrong++
	}
	dirty := f&flagDirty != 0
	if dirty {
		c.Stats.Writebacks++
	}
	if c.evictCB != nil {
		c.evictCB(mem.LineAddr(tag), dirty)
	}
	c.tags[i] = invalidTag
}

// Invalidate removes l if resident (back-invalidation). The eviction
// callback is invoked.
func (c *Cache) Invalidate(l mem.LineAddr) {
	if i := c.findWay(l); i >= 0 {
		c.evict(i)
	}
}

// touch updates the LRU state of way i.
//
//cbws:hotpath
func (c *Cache) touch(i int) {
	c.lruTick++
	c.lru[i] = c.lruTick
}

// checkMSHR verifies the MSHR occupancy bound and that mshrMin is the
// earliest outstanding fill. Called only under check.Enabled.
func (c *Cache) checkMSHR() {
	check.Assertf(len(c.mshr) <= c.cfg.MSHRs,
		"cache %s: %d outstanding fills exceed %d MSHRs",
		c.cfg.Name, len(c.mshr), c.cfg.MSHRs)
	earliest := ^uint64(0)
	for _, t := range c.mshr {
		earliest = min(earliest, t)
	}
	check.Assertf(c.mshrMin == earliest,
		"cache %s: MSHR minimum %d, earliest outstanding fill %d", c.cfg.Name, c.mshrMin, earliest)
}

// Check runs every structural invariant over the whole cache: the MSHR
// bound, every resident tag indexing the set that holds it, and no
// duplicate resident tags within a set. Tests and fuzz targets call it
// at sequence boundaries; unlike the embedded checkpoints it does not
// require check.Enabled.
func (c *Cache) Check() error {
	if len(c.mshr) > c.cfg.MSHRs {
		return fmt.Errorf("cache %s: %d outstanding fills exceed %d MSHRs",
			c.cfg.Name, len(c.mshr), c.cfg.MSHRs)
	}
	for s := 0; s < c.cfg.Sets(); s++ {
		base := s * c.ways
		seen := make(map[uint64]bool, c.ways)
		for i := base; i < base+c.ways; i++ {
			tag := c.tags[i]
			if tag == invalidTag {
				continue
			}
			if int(tag&c.setMask) != s {
				return fmt.Errorf("cache %s way %d: tag %#x belongs to set %d, not %d",
					c.cfg.Name, i, tag, tag&c.setMask, s)
			}
			if seen[tag] {
				return fmt.Errorf("cache %s set %d: duplicate resident tag %#x",
					c.cfg.Name, s, tag)
			}
			seen[tag] = true
		}
	}
	return nil
}

// AccessResult describes the outcome of one demand access at a level.
// It has at most four fields and fits in 32 bytes, so the compiler keeps
// it in registers (see TestAccessResultRegisterSized): a larger result
// is spilled field by field and reloaded wide on every access.
type AccessResult struct {
	Hit     bool   // resident and filled
	Merged  bool   // missed but merged with an outstanding fill
	Pf      bool   // first demand use of a prefetched line (a hit on it or a merge with its fill)
	ReadyAt uint64 // cycle at which the data is available at this level
}

// Access performs a demand lookup of line l at cycle now. If the line
// misses and does not merge, the caller must complete the fill by calling
// Fill with the backing-store completion time; Access returns the zero
// AccessResult (neither Hit nor Merged, ReadyAt=0) in that case.
//
//cbws:hotpath
func (c *Cache) Access(l mem.LineAddr, now uint64) AccessResult {
	c.Stats.Accesses++
	if now < c.lastTime {
		now = c.lastTime // enforce monotonic time for MSHR accounting
	}
	c.lastTime = now
	if check.Enabled {
		c.checkMSHR()
	}
	if i := c.findWay(l); i >= 0 {
		c.touch(i)
		fillAt := c.fillAt[i]
		pf := c.flags[i]&pfUnused == flagPrefetch
		if pf {
			c.flags[i] |= flagUsed
		}
		if fillAt <= now {
			c.Stats.Hits++
			if pf {
				c.Stats.PrefetchUseful++
			}
			return AccessResult{Hit: true, Pf: pf, ReadyAt: now + c.cfg.LatencyCycles}
		}
		// In flight: merge with the outstanding fill.
		c.Stats.Misses++
		c.Stats.MergedMiss++
		if pf {
			c.Stats.PrefetchLate++
		}
		return AccessResult{Merged: true, Pf: pf, ReadyAt: fillAt}
	}
	c.Stats.Misses++
	return AccessResult{}
}

// Fill installs line l with data arriving at cycle fillAt, allocated at
// cycle now (MSHR occupancy spans [now, fillAt)). If no MSHR is free the
// allocation is delayed and the returned actual fill time reflects the
// stall; callers use the return value as the completion time.
//
//cbws:hotpath
func (c *Cache) Fill(l mem.LineAddr, now uint64, latency uint64, isPrefetch bool) (fillAt uint64) {
	free, at := c.mshrFree(now)
	if !free {
		now = at
		_, _ = c.mshrFree(now) // reap at the new time
	}
	fillAt = now + latency
	c.mshr = append(c.mshr, fillAt)
	c.mshrMin = min(c.mshrMin, fillAt)
	i := c.victim(l, now)
	c.evict(i)
	c.tags[i] = uint64(l)
	c.fillAt[i] = fillAt
	c.flags[i] = 0
	c.touch(i)
	if isPrefetch {
		c.flags[i] = flagPrefetch
		c.Stats.PrefetchIssued++
	}
	if check.Enabled {
		c.checkMSHR()
	}
	return fillAt
}

// TryPrefetch attempts to allocate a prefetch fill for l at cycle now with
// the given backing latency. It returns (issued, reason) where reason
// explains a refusal.
//
//cbws:hotpath
func (c *Cache) TryPrefetch(l mem.LineAddr, now uint64, latency uint64) (bool, PrefetchRefusal) {
	if resident, _, _ := c.Probe(l); resident {
		c.Stats.PrefetchRedundant++
		return false, RefusedResident
	}
	if free, _ := c.mshrFree(now); !free {
		c.Stats.PrefetchDropped++
		return false, RefusedNoMSHR
	}
	c.Fill(l, now, latency, true)
	return true, 0
}

// PrefetchRefusal explains why a prefetch was not issued.
type PrefetchRefusal int

const (
	// RefusedResident means the target line is already present or in flight.
	RefusedResident PrefetchRefusal = iota + 1
	// RefusedNoMSHR means all MSHRs were busy.
	RefusedNoMSHR
)

// DrainWrong counts lines still resident that were prefetched and never
// used, charging them as wrong predictions. Called once at end of
// simulation so that unused prefetches are fully accounted.
func (c *Cache) DrainWrong() {
	for i, tag := range c.tags {
		if tag != invalidTag && c.flags[i]&pfUnused == flagPrefetch {
			c.Stats.PrefetchWrong++
			c.flags[i] |= flagUsed
		}
	}
}

// ResidentLines returns the number of valid lines (for tests).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, tag := range c.tags {
		if tag != invalidTag {
			n++
		}
	}
	return n
}
