package cache

import (
	"fmt"

	"cbws/internal/check"
	"cbws/internal/mem"
)

// HierarchyConfig describes the full memory system (Table II defaults via
// DefaultHierarchyConfig).
type HierarchyConfig struct {
	L1            Config
	L2            Config
	MemoryLatency uint64
	// PrefetchQueueDepth bounds the prefetch request queue between the
	// prefetcher and the L2. Zero models direct issue (candidates go
	// straight to the MSHR check, the default); a positive depth
	// models a hardware FIFO drained at PrefetchIssueRate requests per
	// demand access, with overflow dropped (and classified non-timely
	// if later demanded).
	PrefetchQueueDepth int
	// PrefetchIssueRate is the queue drain rate in requests per demand
	// access (default 2 when a queue is configured).
	PrefetchIssueRate int
	// MemoryChannels bounds concurrent memory transfers (0: unlimited,
	// the paper's flat-latency model). With channels configured, each
	// transfer occupies a channel for MemoryOccupancy cycles, so
	// prefetch traffic—including wrong prefetches—contends with demand
	// fills for bandwidth.
	MemoryChannels int
	// MemoryOccupancy is the per-transfer channel busy time in cycles
	// (default 16 when channels are configured: 64B over a 4B/cycle
	// channel).
	MemoryOccupancy uint64
}

// DefaultHierarchyConfig returns the Table II configuration: 32KB 4-way
// L1D at 2 cycles with 4 MSHRs; inclusive 2MB 8-way L2 at 30 cycles with
// 32 MSHRs; 300-cycle memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:            Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LatencyCycles: 2, MSHRs: 4},
		L2:            Config{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LatencyCycles: 30, MSHRs: 32},
		MemoryLatency: 300,
	}
}

// Timeliness aggregates the five demand-classification counters of
// Figure 13. Timely, ShorterWaiting, NonTimely and Missing partition the
// non-plain-hit demand L2 accesses; Wrong counts prefetched lines that
// were never demanded and is reported beyond 100% in the paper's plot.
type Timeliness struct {
	DemandL2   uint64 // all demand accesses that reached the L2
	Timely     uint64 // demand hit on a completed, unused prefetch
	ShorterWT  uint64 // demand merged with an in-flight prefetch
	NonTimely  uint64 // demand miss on a line the prefetcher identified but never issued
	Missing    uint64 // demand miss never identified by the prefetcher
	PlainHit   uint64 // demand hit on a non-prefetched (or already-used) line
	MergedDem  uint64 // demand merged with an in-flight demand fill
	WrongFinal uint64 // filled in by Finish from the L2 prefetch-wrong count
}

// Hierarchy wires the two cache levels to the memory model, implements
// the prefetch-into-L2 path, and classifies every demand L2 access for
// the timeliness/accuracy analysis.
type Hierarchy struct {
	cfg HierarchyConfig
	L1  *Cache
	L2  *Cache

	// identified remembers lines the prefetcher targeted but the
	// hierarchy refused to issue (MSHR pressure), so a later demand
	// miss on them is classified non-timely rather than missing. The
	// set holds the remembered lines and the ring records insertions in
	// order. An insertion that overwrites the oldest ring entry drops
	// that entry's line from the set, even when a demand miss consumed
	// the line since and it was remembered again after that.
	identified     mem.Index
	identifiedRing []mem.LineAddr
	identifiedPos  int // next ring slot, the oldest once the ring is full
	identifiedFull bool

	Timeliness     Timeliness
	BytesFromMem   uint64 // all bytes transferred from memory (demand + prefetch)
	DemandBytes    uint64 // bytes transferred from memory on demand misses
	WritebackBytes uint64 // dirty-eviction traffic back to memory

	// l1Evict is the prefetcher's eviction observer (SMS generation
	// tracking), invoked on every L1 eviction.
	l1Evict func(mem.LineAddr)

	// pfQueue is the bounded prefetch request queue (nil: direct issue).
	pfQueue []mem.LineAddr
	// PrefetchQueueDrops counts candidates lost to queue overflow.
	PrefetchQueueDrops uint64

	// channels holds the busy-until cycle of each memory channel when
	// bandwidth modelling is enabled.
	channels []uint64
	// MemoryStallCycles accumulates the total transfer start delay due
	// to channel contention.
	MemoryStallCycles uint64
}

// AccessInfo describes one demand access as seen by a prefetcher's
// training input and by the timing model.
type AccessInfo struct {
	PC      uint64
	Addr    mem.Addr
	Line    mem.LineAddr
	Write   bool
	HitL1   bool
	HitL2   bool // meaningful only when !HitL1; true also for in-flight merges
	PfHit   bool // first demand use of a prefetched line
	ReadyAt uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:            cfg,
		L1:             l1,
		L2:             l2,
		identified:     mem.NewIndex(identifiedCap),
		identifiedRing: make([]mem.LineAddr, identifiedCap),
	}
	if cfg.MemoryChannels > 0 {
		h.channels = make([]uint64, cfg.MemoryChannels)
	}
	// Inclusive L2: evicting an L2 line back-invalidates the L1 copy;
	// a dirty eviction writes the line back to memory.
	l2.OnEvict(func(l mem.LineAddr, dirty bool) {
		l1.Invalidate(l)
		if dirty {
			h.WritebackBytes += mem.LineSize
		}
	})
	// L1 dirty evictions write through to the L2 copy.
	l1.OnEvict(func(l mem.LineAddr, dirty bool) {
		if dirty {
			l2.MarkDirty(l)
		}
		if h.l1Evict != nil {
			h.l1Evict(l)
		}
	})
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// OnL1Evict registers an observer for L1 evictions (the SMS
// generation-end trigger).
func (h *Hierarchy) OnL1Evict(fn func(mem.LineAddr)) { h.l1Evict = fn }

// identifiedCap bounds the identified-line memory (ring entries).
const identifiedCap = 4096

//cbws:hotpath
func (h *Hierarchy) rememberIdentified(l mem.LineAddr) {
	if _, ok := h.identified.Get(uint64(l)); ok {
		return
	}
	slot := &h.identifiedRing[h.identifiedPos]
	if h.identifiedFull {
		h.identified.Delete(uint64(*slot))
	}
	*slot = l
	h.identified.Put(uint64(l), 0)
	if h.identifiedPos++; h.identifiedPos == len(h.identifiedRing) {
		h.identifiedPos = 0
		h.identifiedFull = true
	}
}

//cbws:hotpath
func (h *Hierarchy) wasIdentified(l mem.LineAddr) bool {
	return h.identified.Delete(uint64(l))
}

// memTransferStart allocates a memory channel for a transfer requested
// at cycle now and returns the cycle at which the transfer begins. With
// bandwidth modelling disabled it returns now.
func (h *Hierarchy) memTransferStart(now uint64) uint64 {
	ch, start := h.memChannel(now)
	h.commitChannel(ch, now, start)
	return start
}

// memChannel picks the memory channel that frees first for a transfer
// requested at cycle now and returns it with the cycle the transfer
// would begin, reserving nothing. ch is -1 with bandwidth modelling
// disabled, and start is then now.
func (h *Hierarchy) memChannel(now uint64) (ch int, start uint64) {
	if len(h.channels) == 0 {
		return -1, now
	}
	best := 0
	for i := 1; i < len(h.channels); i++ {
		if h.channels[i] < h.channels[best] {
			best = i
		}
	}
	return best, max(now, h.channels[best])
}

// commitChannel reserves channel ch, as picked by memChannel(now), for
// a transfer beginning at start, and charges the wait as stall cycles.
func (h *Hierarchy) commitChannel(ch int, now, start uint64) {
	if ch < 0 {
		return
	}
	occ := h.cfg.MemoryOccupancy
	if occ == 0 {
		occ = 16
	}
	h.MemoryStallCycles += start - now
	h.channels[ch] = start + occ
}

// Access performs a demand access (load or store) at cycle now and
// returns the completion cycle together with hit/miss information for
// prefetcher training.
func (h *Hierarchy) Access(pc uint64, addr mem.Addr, write bool, now uint64) AccessInfo {
	var info AccessInfo
	h.AccessInto(&info, pc, addr, write, now)
	return info
}

// AccessInto is Access with the result written through info instead of
// returned, saving the struct copy on the per-access hot path.
func (h *Hierarchy) AccessInto(info *AccessInfo, pc uint64, addr mem.Addr, write bool, now uint64) {
	l := mem.LineOf(addr)
	*info = AccessInfo{PC: pc, Addr: addr, Line: l, Write: write}

	// The L1 lookup is specialized inline rather than going through
	// Cache.Access: prefetches fill into the L2 only, so no L1 line is
	// ever in the prefetched-unused state and the hit and merge arms
	// need none of the prefetch-use accounting. Folding the write case
	// into the same scan also saves MarkDirty's second walk of the set.
	c1 := h.L1
	c1.Stats.Accesses++
	n1 := now
	if n1 < c1.lastTime {
		n1 = c1.lastTime // enforce monotonic time for MSHR accounting
	}
	c1.lastTime = n1
	base := int(uint64(l)&c1.setMask) * c1.ways
	if check.Enabled {
		// The inlined L1 scan bypasses Cache.Access, so it carries its
		// own checkpoint for the MSHR invariants.
		c1.checkMSHR()
	}
	tags := c1.tags[base : base+c1.ways]
	for i := range tags {
		if tags[i] != uint64(l) {
			continue
		}
		w := base + i
		c1.lruTick++
		c1.lru[w] = c1.lruTick
		if write {
			c1.flags[w] |= flagDirty
		}
		if fillAt := c1.fillAt[w]; fillAt <= n1 {
			c1.Stats.Hits++
			info.HitL1 = true
			info.ReadyAt = n1 + c1.cfg.LatencyCycles
		} else {
			// Wait for the L1 fill already in flight; the matching L2
			// access was classified when the fill was allocated.
			c1.Stats.Misses++
			c1.Stats.MergedMiss++
			info.ReadyAt = fillAt
		}
		return
	}
	c1.Stats.Misses++

	// L1 miss: access the L2 after the L1 lookup latency.
	t2 := now + h.cfg.L1.LatencyCycles
	h.Timeliness.DemandL2++
	r2 := h.L2.Access(l, t2)
	var ready uint64
	switch {
	case r2.Hit:
		info.HitL2 = true
		ready = r2.ReadyAt
		if r2.Pf {
			info.PfHit = true
			h.Timeliness.Timely++
		} else {
			h.Timeliness.PlainHit++
		}
	case r2.Merged:
		info.HitL2 = true
		ready = r2.ReadyAt
		if r2.Pf {
			info.PfHit = true
			h.Timeliness.ShorterWT++
		} else {
			h.Timeliness.MergedDem++
		}
	default:
		// L2 miss: fetch from memory (waiting for a channel when
		// bandwidth modelling is enabled).
		start := h.memTransferStart(t2)
		ready = h.L2.Fill(l, start, h.cfg.MemoryLatency, false)
		h.BytesFromMem += mem.LineSize
		h.DemandBytes += mem.LineSize
		if h.wasIdentified(l) {
			h.Timeliness.NonTimely++
		} else {
			h.Timeliness.Missing++
		}
	}

	// Fill the L1 with the line; the data is usable once both the L2
	// (or memory) delivery and the L1 fill complete.
	info.ReadyAt = h.L1.Fill(l, now, ready-now, false)
	if write {
		h.L1.MarkDirty(l)
	}
}

// Prefetch requests that line l be brought into the L2 at cycle now.
// With a configured prefetch queue the request is enqueued (dropping on
// overflow) and issued when the queue drains; otherwise it is issued
// directly. It returns true if a fill was allocated immediately.
func (h *Hierarchy) Prefetch(l mem.LineAddr, now uint64) bool {
	if h.cfg.PrefetchQueueDepth > 0 {
		if len(h.pfQueue) >= h.cfg.PrefetchQueueDepth {
			h.PrefetchQueueDrops++
			h.rememberIdentified(l)
			return false
		}
		h.pfQueue = append(h.pfQueue, l)
		return false
	}
	return h.issuePrefetch(l, now)
}

// issuePrefetch offers l to the L2 at the cycle a memory channel would
// start its transfer. The channel is reserved only when the L2
// allocates a fill: a resident line or a full MSHR file moves no data.
func (h *Hierarchy) issuePrefetch(l mem.LineAddr, now uint64) bool {
	ch, start := h.memChannel(now)
	issued, reason := h.L2.TryPrefetch(l, start, h.cfg.MemoryLatency)
	if issued {
		h.commitChannel(ch, now, start)
		h.BytesFromMem += mem.LineSize
		return true
	}
	if reason == RefusedNoMSHR {
		h.rememberIdentified(l)
	}
	return false
}

// DrainPrefetchQueue issues up to the configured rate of queued
// prefetches at cycle now. The simulator calls it once per demand
// access, modelling the queue's issue bandwidth. The empty check lives
// in this inlinable wrapper so the common no-queue case costs one
// length test at the call site.
func (h *Hierarchy) DrainPrefetchQueue(now uint64) {
	if len(h.pfQueue) == 0 {
		return
	}
	h.drainPrefetchQueue(now)
}

func (h *Hierarchy) drainPrefetchQueue(now uint64) {
	rate := h.cfg.PrefetchIssueRate
	if rate <= 0 {
		rate = 2
	}
	for i := 0; i < rate && len(h.pfQueue) > 0; i++ {
		l := h.pfQueue[0]
		h.pfQueue = h.pfQueue[1:]
		h.issuePrefetch(l, now)
	}
}

// Finish settles end-of-run accounting: remaining unused prefetched
// lines are charged as wrong.
func (h *Hierarchy) Finish() {
	h.L1.DrainWrong()
	h.L2.DrainWrong()
	h.Timeliness.WrongFinal = h.L2.Stats.PrefetchWrong
}

// DemandL2Misses returns the demand L2 accesses not covered by
// prefetching — the numerator of the paper's MPKI metric (Figure 12).
// Accesses that merge with an in-flight prefetch reduced their waiting
// time and are accounted in the shorter-waiting-time class of
// Figure 13 rather than as misses.
func (h *Hierarchy) DemandL2Misses() uint64 {
	t := &h.Timeliness
	return t.NonTimely + t.Missing + t.MergedDem
}

// String summarizes the hierarchy state for debugging.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("hierarchy{L1 %d/%d hits, L2 %d/%d hits, %d bytes from mem}",
		h.L1.Stats.Hits, h.L1.Stats.Accesses, h.L2.Stats.Hits, h.L2.Stats.Accesses, h.BytesFromMem)
}
