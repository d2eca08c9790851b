package cache

import (
	"testing"

	"cbws/internal/mem"
)

func tinyHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		L1:            Config{Name: "L1", SizeBytes: 4 * mem.LineSize * 2, Ways: 2, LatencyCycles: 2, MSHRs: 2},
		L2:            Config{Name: "L2", SizeBytes: 16 * mem.LineSize * 4, Ways: 4, LatencyCycles: 30, MSHRs: 4},
		MemoryLatency: 300,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func TestDefaultHierarchyConfigMatchesTableII(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.Ways != 4 || cfg.L1.LatencyCycles != 2 || cfg.L1.MSHRs != 4 {
		t.Errorf("L1 config %+v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.Ways != 8 || cfg.L2.LatencyCycles != 30 || cfg.L2.MSHRs != 32 {
		t.Errorf("L2 config %+v", cfg.L2)
	}
	if cfg.MemoryLatency != 300 {
		t.Errorf("memory latency %d", cfg.MemoryLatency)
	}
	if _, err := NewHierarchy(cfg); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestColdMissLatency(t *testing.T) {
	h := tinyHierarchy(t)
	info := h.Access(1, 0x1000, false, 0)
	// Cold miss: L1 lookup (2) + memory (300), L1 fill completes then.
	if info.HitL1 || info.HitL2 {
		t.Errorf("cold access reported as hit: %+v", info)
	}
	if info.ReadyAt != 302 {
		t.Errorf("ReadyAt = %d, want 302", info.ReadyAt)
	}
	if h.Timeliness.Missing != 1 {
		t.Errorf("timeliness: %+v", h.Timeliness)
	}
	if h.BytesFromMem != mem.LineSize || h.DemandBytes != mem.LineSize {
		t.Errorf("bytes: %d/%d", h.BytesFromMem, h.DemandBytes)
	}
}

func TestL1HitLatency(t *testing.T) {
	h := tinyHierarchy(t)
	h.Access(1, 0x1000, false, 0)
	info := h.Access(1, 0x1000, false, 1000)
	if !info.HitL1 || info.ReadyAt != 1002 {
		t.Errorf("L1 hit: %+v", info)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := tinyHierarchy(t)
	// Fill enough lines mapping to one L1 set to evict the first, while
	// the larger L2 keeps them all.
	l1Sets := h.Config().L1.Sets()
	for i := 0; i < 3; i++ {
		h.Access(1, mem.Addr(i*l1Sets*mem.LineSize), false, uint64(i)*1000)
	}
	info := h.Access(1, 0, false, 10_000)
	if info.HitL1 {
		t.Fatalf("line should have been evicted from L1: %+v", info)
	}
	if !info.HitL2 {
		t.Fatalf("line should hit in L2: %+v", info)
	}
	// L1 lookup (2) + L2 latency (30).
	if info.ReadyAt != 10_032 {
		t.Errorf("ReadyAt = %d, want 10032", info.ReadyAt)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	h := tinyHierarchy(t)
	// Fill L2 set 0 beyond capacity; the evicted L2 line must leave L1.
	l2Sets := h.Config().L2.Sets()
	step := l2Sets * mem.LineSize
	for i := 0; i <= 4; i++ { // 4-way L2 set: fifth line evicts the first
		h.Access(1, mem.Addr(i*step), false, uint64(i)*1000)
	}
	// The first line must now miss both levels.
	info := h.Access(1, 0, false, 50_000)
	if info.HitL1 || info.HitL2 {
		t.Errorf("line should have been back-invalidated: %+v", info)
	}
}

func TestPrefetchTimelinessClasses(t *testing.T) {
	h := tinyHierarchy(t)

	// Timely: prefetch completes before the demand.
	h.Prefetch(mem.LineOf(0x1000), 0)
	info := h.Access(1, 0x1000, false, 1000)
	if !info.PfHit || h.Timeliness.Timely != 1 {
		t.Errorf("timely: info=%+v timeliness=%+v", info, h.Timeliness)
	}

	// Shorter-waiting-time: demand arrives while prefetch in flight.
	h.Prefetch(mem.LineOf(0x2000), 2000)
	info = h.Access(1, 0x2000, false, 2010)
	if !info.PfHit || h.Timeliness.ShorterWT != 1 {
		t.Errorf("shorter-wait: info=%+v timeliness=%+v", info, h.Timeliness)
	}
	if info.ReadyAt < 2300 {
		t.Errorf("late prefetch should still wait for the fill: %d", info.ReadyAt)
	}

	// Missing: plain demand miss.
	h.Access(1, 0x9000, false, 5000)
	if h.Timeliness.Missing == 0 {
		t.Errorf("missing not counted: %+v", h.Timeliness)
	}
}

func TestNonTimelyClassification(t *testing.T) {
	h := tinyHierarchy(t)
	// Exhaust the L2 MSHRs with demand misses so a prefetch is dropped.
	for i := 0; i < 4; i++ {
		h.Access(1, mem.Addr(0x10000+i*mem.LineSize), false, 0)
	}
	target := mem.LineOf(0xF0000)
	if h.Prefetch(target, 1) {
		t.Fatal("prefetch should have been dropped (no MSHRs)")
	}
	// A later demand miss on the identified line is non-timely.
	h.Access(1, 0xF0000, false, 10_000)
	if h.Timeliness.NonTimely != 1 {
		t.Errorf("timeliness: %+v", h.Timeliness)
	}
}

func TestPrefetchRedundantNotCounted(t *testing.T) {
	h := tinyHierarchy(t)
	h.Access(1, 0x1000, false, 0)
	before := h.BytesFromMem
	if h.Prefetch(mem.LineOf(0x1000), 500) {
		t.Error("prefetch of resident line should be refused")
	}
	if h.BytesFromMem != before {
		t.Error("redundant prefetch generated traffic")
	}
}

func TestFinishDrainsWrong(t *testing.T) {
	h := tinyHierarchy(t)
	h.Prefetch(mem.LineOf(0x1000), 0)
	h.Prefetch(mem.LineOf(0x2000), 0)
	h.Access(1, 0x1000, false, 1000)
	h.Finish()
	if h.Timeliness.WrongFinal != 1 {
		t.Errorf("wrong = %d, want 1", h.Timeliness.WrongFinal)
	}
}

func TestDemandL2MissesExcludesShorterWT(t *testing.T) {
	h := tinyHierarchy(t)
	h.Prefetch(mem.LineOf(0x2000), 0)
	h.Access(1, 0x2000, false, 10) // merges with in-flight prefetch
	if h.DemandL2Misses() != 0 {
		t.Errorf("shorter-wait counted as miss: %d", h.DemandL2Misses())
	}
	h.Access(1, 0x9000, false, 1000) // plain miss
	if h.DemandL2Misses() != 1 {
		t.Errorf("misses = %d, want 1", h.DemandL2Misses())
	}
}

func TestMergedDemandCountsAsMiss(t *testing.T) {
	h := tinyHierarchy(t)
	h.Access(1, 0x3000, false, 0)
	// Second access to a different line in the same L1 set... actually
	// same line, while the demand fill is still in flight, arriving via
	// a second L1 set? Same line merges at L1 and never reaches L2.
	// Force an L2 merge: access a second address in the same L2 line
	// but a different L1 line is impossible (L1 lines == L2 lines), so
	// instead verify the L1 merge path: the second access merges at L1
	// and the L2 demand count stays 1.
	h.Access(2, 0x3000, false, 10)
	if h.Timeliness.DemandL2 != 1 {
		t.Errorf("L1 merge should not reach L2: %+v", h.Timeliness)
	}
	if h.DemandL2Misses() != 1 {
		t.Errorf("misses = %d, want 1", h.DemandL2Misses())
	}
}

func TestMonotonicReadyTimes(t *testing.T) {
	// Property: for monotonically non-decreasing access times, ReadyAt
	// is always strictly after the access time.
	h := tinyHierarchy(t)
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		now += uint64(i % 7)
		addr := mem.Addr((i * 37 % 256) * mem.LineSize)
		info := h.Access(1, addr, i%3 == 0, now)
		if info.ReadyAt <= now {
			t.Fatalf("access %d at %d ready at %d", i, now, info.ReadyAt)
		}
	}
}

func TestWritebackPropagation(t *testing.T) {
	h := tinyHierarchy(t)
	// Write a line, then force it out of the L2 (which back-invalidates
	// the L1): one write-back to memory must be charged.
	h.Access(1, 0x3000, true, 0)
	l2Sets := h.Config().L2.Sets()
	step := l2Sets * mem.LineSize
	for i := 1; i <= 4; i++ {
		h.Access(1, mem.Addr(0x3000+i*step), false, uint64(i)*1000)
	}
	if h.WritebackBytes != mem.LineSize {
		t.Errorf("writeback bytes = %d, want %d", h.WritebackBytes, mem.LineSize)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	h := tinyHierarchy(t)
	h.Access(1, 0x3000, false, 0) // read only
	l2Sets := h.Config().L2.Sets()
	step := l2Sets * mem.LineSize
	for i := 1; i <= 4; i++ {
		h.Access(1, mem.Addr(0x3000+i*step), false, uint64(i)*1000)
	}
	if h.WritebackBytes != 0 {
		t.Errorf("clean eviction charged %d writeback bytes", h.WritebackBytes)
	}
}

func TestL1DirtyEvictionMarksL2(t *testing.T) {
	h := tinyHierarchy(t)
	// Dirty a line in L1, evict it from L1 (small L1), then evict the
	// L2 copy: the writeback must still be charged because the L1
	// eviction propagated the dirty state.
	h.Access(1, 0, true, 0)
	l1Sets := h.Config().L1.Sets()
	for i := 1; i <= 2; i++ { // evict from 2-way L1
		h.Access(1, mem.Addr(i*l1Sets*mem.LineSize), false, uint64(i)*1000)
	}
	l2Sets := h.Config().L2.Sets()
	step := l2Sets * mem.LineSize
	for i := 1; i <= 4; i++ {
		h.Access(1, mem.Addr(i*step), false, 10_000+uint64(i)*1000)
	}
	if h.WritebackBytes == 0 {
		t.Error("dirty state lost on L1 eviction")
	}
}

func queuedHierarchy(t *testing.T, depth, rate int) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		L1:                 Config{Name: "L1", SizeBytes: 4 * mem.LineSize * 2, Ways: 2, LatencyCycles: 2, MSHRs: 2},
		L2:                 Config{Name: "L2", SizeBytes: 16 * mem.LineSize * 4, Ways: 4, LatencyCycles: 30, MSHRs: 8},
		MemoryLatency:      300,
		PrefetchQueueDepth: depth,
		PrefetchIssueRate:  rate,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func TestPrefetchQueueEnqueuesAndDrains(t *testing.T) {
	h := queuedHierarchy(t, 8, 2)
	// Queued prefetches do not issue immediately.
	if h.Prefetch(mem.LineOf(0x10000), 0) {
		t.Fatal("queued prefetch reported immediate issue")
	}
	if h.L2.Stats.PrefetchIssued != 0 {
		t.Fatal("prefetch issued before drain")
	}
	h.DrainPrefetchQueue(10)
	if h.L2.Stats.PrefetchIssued != 1 {
		t.Errorf("issued = %d after drain", h.L2.Stats.PrefetchIssued)
	}
}

func TestPrefetchQueueOverflowDrops(t *testing.T) {
	h := queuedHierarchy(t, 4, 2)
	for i := 0; i < 10; i++ {
		h.Prefetch(mem.LineOf(mem.Addr(0x10000+i*mem.LineSize)), 0)
	}
	if h.PrefetchQueueDrops != 6 {
		t.Errorf("drops = %d, want 6", h.PrefetchQueueDrops)
	}
	// A dropped candidate demanded later is non-timely.
	h.Access(1, 0x10000+9*mem.LineSize, false, 1000)
	if h.Timeliness.NonTimely != 1 {
		t.Errorf("timeliness: %+v", h.Timeliness)
	}
}

func TestPrefetchQueueRateBound(t *testing.T) {
	h := queuedHierarchy(t, 8, 2)
	for i := 0; i < 6; i++ {
		h.Prefetch(mem.LineOf(mem.Addr(0x20000+i*mem.LineSize)), 0)
	}
	h.DrainPrefetchQueue(5)
	if h.L2.Stats.PrefetchIssued != 2 {
		t.Errorf("issued = %d after one drain, want 2", h.L2.Stats.PrefetchIssued)
	}
	h.DrainPrefetchQueue(6)
	h.DrainPrefetchQueue(7)
	if h.L2.Stats.PrefetchIssued != 6 {
		t.Errorf("issued = %d after three drains, want 6", h.L2.Stats.PrefetchIssued)
	}
}

func TestDirectIssueWhenNoQueue(t *testing.T) {
	h := tinyHierarchy(t)
	if !h.Prefetch(mem.LineOf(0x30000), 0) {
		t.Error("direct prefetch did not issue")
	}
}

func TestMemoryChannelContention(t *testing.T) {
	cfg := HierarchyConfig{
		L1:              Config{Name: "L1", SizeBytes: 4 * mem.LineSize * 2, Ways: 2, LatencyCycles: 2, MSHRs: 4},
		L2:              Config{Name: "L2", SizeBytes: 16 * mem.LineSize * 4, Ways: 4, LatencyCycles: 30, MSHRs: 8},
		MemoryLatency:   300,
		MemoryChannels:  1,
		MemoryOccupancy: 50,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two simultaneous misses on one channel: the second transfer
	// starts only when the channel frees.
	a := h.Access(1, 0x10000, false, 0)
	b := h.Access(1, 0x20000, false, 0)
	if b.ReadyAt < a.ReadyAt+50 {
		t.Errorf("no contention: a ready %d, b ready %d", a.ReadyAt, b.ReadyAt)
	}
	if h.MemoryStallCycles == 0 {
		t.Error("stall cycles not recorded")
	}
}

func TestUnlimitedChannelsNoContention(t *testing.T) {
	h := tinyHierarchy(t)
	a := h.Access(1, 0x10000, false, 0)
	b := h.Access(1, 0x20000, false, 0)
	if a.ReadyAt != b.ReadyAt {
		t.Errorf("flat model should overlap fully: %d vs %d", a.ReadyAt, b.ReadyAt)
	}
	if h.MemoryStallCycles != 0 {
		t.Error("stall cycles recorded in flat model")
	}
}

func TestPrefetchContendsForChannels(t *testing.T) {
	cfg := HierarchyConfig{
		L1:              Config{Name: "L1", SizeBytes: 4 * mem.LineSize * 2, Ways: 2, LatencyCycles: 2, MSHRs: 4},
		L2:              Config{Name: "L2", SizeBytes: 16 * mem.LineSize * 4, Ways: 4, LatencyCycles: 30, MSHRs: 8},
		MemoryLatency:   300,
		MemoryChannels:  1,
		MemoryOccupancy: 50,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of prefetches occupies the channel; the demand miss that
	// follows starts late.
	for i := 0; i < 4; i++ {
		h.Prefetch(mem.LineOf(mem.Addr(0x40000+i*mem.LineSize)), 0)
	}
	d := h.Access(1, 0x80000, false, 0)
	if d.ReadyAt < 4*50+300 {
		t.Errorf("demand did not wait for prefetch transfers: ready %d", d.ReadyAt)
	}
}

// TestRefusedPrefetchReservesNoChannel checks that a prefetch the L2
// refuses (the line already in flight, or no MSHR free) neither waits
// for nor occupies a memory channel: only an allocated fill moves data.
func TestRefusedPrefetchReservesNoChannel(t *testing.T) {
	cfg := HierarchyConfig{
		L1:             Config{Name: "L1", SizeBytes: 4 * mem.LineSize * 2, Ways: 2, LatencyCycles: 2, MSHRs: 4},
		L2:             Config{Name: "L2", SizeBytes: 16 * mem.LineSize * 4, Ways: 4, LatencyCycles: 30, MSHRs: 1},
		MemoryLatency:  300,
		MemoryChannels: 1, // default occupancy: 16 cycles a transfer
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := mem.LineOf(0x40000)
	if !h.Prefetch(l, 0) {
		t.Fatal("first prefetch did not issue")
	}
	// Redundant: l is in flight.
	if h.Prefetch(l, 5) {
		t.Fatal("redundant prefetch issued")
	}
	// Dropped: the L2's only MSHR holds l's fill.
	if h.Prefetch(mem.LineOf(0x50000), 6) {
		t.Fatal("prefetch issued with no MSHR free")
	}
	if h.MemoryStallCycles != 0 {
		t.Errorf("refused prefetches charged %d stall cycles, want 0", h.MemoryStallCycles)
	}
	if h.L2.Stats.PrefetchRedundant != 1 || h.L2.Stats.PrefetchDropped != 1 {
		t.Errorf("redundant %d, dropped %d, want 1 and 1", h.L2.Stats.PrefetchRedundant, h.L2.Stats.PrefetchDropped)
	}
	// The channel frees at cycle 16, after the one issued transfer: a
	// demand miss at cycle 10 reaches memory after the L1's 2 cycles
	// and waits 4, with nothing queued behind the refusals.
	h.Access(1, 0x80000, false, 10)
	if h.MemoryStallCycles != 4 {
		t.Errorf("demand miss at cycle 10 stalled %d cycles, want 4", h.MemoryStallCycles)
	}
}
