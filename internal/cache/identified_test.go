package cache

import (
	"math/rand"
	"testing"

	"cbws/internal/mem"
)

// identifiedModel is the plain form of the hierarchy's identified-line
// memory: a set plus an insertion FIFO of 4096 entries. A demand miss
// consumes a line from the set but leaves its FIFO entry, so when that
// entry is popped it drops the line from the set even if the line was
// remembered again since.
type identifiedModel struct {
	set  map[mem.LineAddr]bool
	fifo []mem.LineAddr
	occ  map[mem.LineAddr]int // FIFO entries per line
	// stale counts pops that dropped a line re-remembered after a
	// consume, the case that makes the FIFO semantics observable.
	stale int
}

func (m *identifiedModel) remember(l mem.LineAddr) {
	if m.set[l] {
		return
	}
	if len(m.fifo) >= 4096 {
		old := m.fifo[0]
		m.fifo = m.fifo[1:]
		m.occ[old]--
		if m.set[old] && m.occ[old] > 0 {
			m.stale++
		}
		delete(m.set, old)
	}
	m.set[l] = true
	m.fifo = append(m.fifo, l)
	m.occ[l]++
}

func (m *identifiedModel) consume(l mem.LineAddr) bool {
	was := m.set[l]
	delete(m.set, l)
	return was
}

// TestIdentifiedClassification pins the non-timely/missing split of
// demand L2 misses. A tiny L2 with two MSHRs refuses most prefetches;
// demand misses then consume remembered lines, and the same lines are
// refused again, over a line pool large enough to wrap the 4096-entry
// memory many times. Every classification must match the model, and
// the final counts are pinned.
func TestIdentifiedClassification(t *testing.T) {
	cfg := HierarchyConfig{
		L1:            Config{Name: "L1D", SizeBytes: 256, Ways: 2, LatencyCycles: 2, MSHRs: 8},
		L2:            Config{Name: "L2", SizeBytes: 1024, Ways: 4, LatencyCycles: 10, MSHRs: 2},
		MemoryLatency: 300,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &identifiedModel{set: map[mem.LineAddr]bool{}, occ: map[mem.LineAddr]int{}}
	rng := rand.New(rand.NewSource(1))
	now := uint64(0)
	var info AccessInfo
	for op := 0; op < 200_000; op++ {
		now += uint64(rng.Intn(12))
		l := mem.LineAddr(rng.Intn(6000))
		if rng.Intn(10) < 7 {
			dropped := h.L2.Stats.PrefetchDropped
			h.Prefetch(l, now)
			if h.L2.Stats.PrefetchDropped != dropped {
				m.remember(l)
			}
			continue
		}
		nt, miss := h.Timeliness.NonTimely, h.Timeliness.Missing
		h.AccessInto(&info, 0x400000, l.Byte(), false, now)
		switch {
		case h.Timeliness.NonTimely == nt && h.Timeliness.Missing == miss:
			// Not an L2 demand miss: nothing consumed.
		case m.consume(l) != (h.Timeliness.NonTimely > nt):
			t.Fatalf("op %d: line %v classified non-timely=%v, model disagrees",
				op, l, h.Timeliness.NonTimely > nt)
		}
	}
	if m.stale == 0 {
		t.Fatal("stream never popped a re-remembered line; the test lost its edge case")
	}
	const wantNonTimely, wantMissing = 26377, 33273
	if h.Timeliness.NonTimely != wantNonTimely || h.Timeliness.Missing != wantMissing {
		t.Errorf("NonTimely/Missing = %d/%d, want %d/%d (stale pops %d)",
			h.Timeliness.NonTimely, h.Timeliness.Missing, wantNonTimely, wantMissing, m.stale)
	}
}

// TestIdentifiedAllocFree requires remembering and consuming refused
// lines not to allocate once the ring has wrapped.
func TestIdentifiedAllocFree(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	iter := func() {
		h.rememberIdentified(mem.LineAddr(i % 9000))
		if i%3 == 0 {
			h.wasIdentified(mem.LineAddr(i / 2 % 9000))
		}
		i++
	}
	for k := 0; k < 20000; k++ {
		iter()
	}
	if avg := testing.AllocsPerRun(1000, iter); avg != 0 {
		t.Errorf("identified-line memory allocates %.1f objects per op, want 0", avg)
	}
}
