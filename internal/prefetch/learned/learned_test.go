package learned

import (
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// skipIfChecksEnabled guards the zero-allocation pins: they assert a
// property of the production build, which the cbwscheck diagnostic
// build deliberately trades for invariant checking.
func skipIfChecksEnabled(t *testing.T) {
	t.Helper()
	if check.Enabled {
		t.Skip("invariant checks enabled; zero-alloc pins apply to the production build")
	}
}

func missAt(pc uint64, line mem.LineAddr) prefetch.Access {
	return prefetch.Access{PC: pc, Addr: line.Byte(), Line: line}
}

func TestPythiaConfigDefaults(t *testing.T) {
	p := NewPythia(PythiaConfig{})
	c := p.Config()
	d := DefaultPythiaConfig()
	if len(c.Actions) != len(d.Actions) || c.Feature1Entries != 4096 || c.Feature2Entries != 1024 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.EQSize != 64 || c.DeltaHistory != 4 || c.QBits != 16 || c.TimelyAge != 8 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// Table sizes round up to powers of two; EpsilonShift clamps.
	c2 := NewPythia(PythiaConfig{Feature1Entries: 100, Feature2Entries: 33, EpsilonShift: 40}).Config()
	if c2.Feature1Entries != 128 || c2.Feature2Entries != 64 {
		t.Errorf("pow2 rounding: got %d/%d", c2.Feature1Entries, c2.Feature2Entries)
	}
	if c2.EpsilonShift != 31 {
		t.Errorf("EpsilonShift clamp: got %d", c2.EpsilonShift)
	}
}

func TestPythiaName(t *testing.T) {
	if got := NewPythia(PythiaConfig{}).Name(); got != "pythia" {
		t.Errorf("Name = %q", got)
	}
}

// A steady sequential miss stream must teach the agent to leave the
// no-prefetch action: queued no-prefetch decisions watch their page
// miss again and again, driving Q(no-prefetch) down until a forward
// offset wins the argmax, after which issued prefetches are rewarded
// as accurate.
func TestPythiaLearnsSequentialStream(t *testing.T) {
	check.Enabled = true
	defer func() { check.Enabled = false }()
	p := NewPythia(PythiaConfig{})
	var issued []mem.LineAddr
	sink := func(l mem.LineAddr) { issued = append(issued, l) }
	for i := 0; i < 5000; i++ {
		p.OnAccess(missAt(0x401000, mem.LineAddr(1<<20+uint64(i))), sink)
	}
	if p.Stats.Triggers != 5000 {
		t.Fatalf("Triggers = %d, want 5000", p.Stats.Triggers)
	}
	if p.Stats.Issued == 0 || len(issued) == 0 {
		t.Fatal("sequential stream never escaped the no-prefetch action")
	}
	if p.Stats.AccurateTimely+p.Stats.AccurateLate == 0 {
		t.Error("no issued prefetch was ever rewarded accurate")
	}
	if p.Stats.NoPrefBad == 0 {
		t.Error("no-prefetch decisions on a missing stream were never punished")
	}
	if p.Stats.QUpdates == 0 {
		t.Error("no Q-updates applied")
	}
	classes := p.Stats.AccurateTimely + p.Stats.AccurateLate + p.Stats.Inaccurate +
		p.Stats.NoPrefGood + p.Stats.NoPrefBad
	if classes < p.Stats.QUpdates {
		t.Errorf("reward classes %d < evictions %d: an entry retired unclassified", classes, p.Stats.QUpdates)
	}
}

// Issued prefetches must stay within the trigger's 4KB page.
func TestPythiaStaysInPage(t *testing.T) {
	p := NewPythia(PythiaConfig{})
	var trigger mem.LineAddr
	bad := 0
	sink := func(l mem.LineAddr) {
		if uint64(l)>>pageLineShift != uint64(trigger)>>pageLineShift {
			bad++
		}
	}
	// A stride-3 miss stream crossing many pages.
	for i := 0; i < 4000; i++ {
		trigger = mem.LineAddr(1<<18 + uint64(i*3))
		p.OnAccess(missAt(0x400A00, trigger), sink)
	}
	if bad != 0 {
		t.Errorf("%d prefetches crossed their trigger page", bad)
	}
	if p.Stats.Issued == 0 {
		t.Error("stride stream issued nothing")
	}
}

// The agent is bit-deterministic: identical streams produce identical
// issue sequences and statistics, and Reset restores power-on state.
func TestPythiaDeterministicAndResets(t *testing.T) {
	run := func(p *Pythia) ([]mem.LineAddr, PythiaStats) {
		var out []mem.LineAddr
		sink := func(l mem.LineAddr) { out = append(out, l) }
		// Mixed pattern: two PCs, stride 2 and a page-local walk.
		for i := 0; i < 3000; i++ {
			p.OnAccess(missAt(0x400100, mem.LineAddr(1<<22+uint64(i*2))), sink)
			p.OnAccess(missAt(0x400200, mem.LineAddr(1<<24+uint64(i%64))), sink)
		}
		return out, p.Stats
	}
	a := NewPythia(PythiaConfig{})
	outA, statsA := run(a)
	b := NewPythia(PythiaConfig{})
	outB, statsB := run(b)
	if statsA != statsB {
		t.Fatalf("stats diverge across identical runs: %+v vs %+v", statsA, statsB)
	}
	if len(outA) != len(outB) {
		t.Fatalf("issue streams diverge: %d vs %d lines", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("issue %d diverges: %#x vs %#x", i, outA[i], outB[i])
		}
	}
	a.Reset()
	outR, statsR := run(a)
	if statsR != statsA || len(outR) != len(outA) {
		t.Fatal("Reset did not restore power-on state")
	}
}

func TestPythiaStorageBits(t *testing.T) {
	p := NewPythia(PythiaConfig{})
	// Q-tables: (4096+1024) rows × 16 actions × 16 bits; EQ: 64 ×
	// (48 line tag + 12+10 row indexes + 4 action + 8 age/flags);
	// delta history: 4 × 8.
	want := uint64(5120*16*16 + 64*(48+22+4+8) + 4*8)
	if got := p.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
}

func TestPythiaOnAccessAllocFree(t *testing.T) {
	skipIfChecksEnabled(t)
	p := NewPythia(PythiaConfig{})
	drop := func(mem.LineAddr) {}
	i := 0
	iter := func() {
		p.OnAccess(missAt(0x401000, mem.LineAddr(1<<20+uint64(i))), drop)
		i++
	}
	for k := 0; k < 2000; k++ {
		iter() // warm: fill the EQ, train the tables
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Errorf("warm OnAccess allocates %.1f objects, want 0", avg)
	}
}

func TestGazeConfigDefaults(t *testing.T) {
	g := NewGaze(GazeConfig{})
	c := g.Config()
	if c.RegionBytes != 4096 || c.ActiveEntries != 64 || c.PatternEntries != 512 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.OrderLines != 8 || c.ConfMax != 3 || c.ConfThreshold != 2 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if got := NewGaze(GazeConfig{OrderLines: 99}).Config().OrderLines; got != gazeMaxOrder {
		t.Errorf("OrderLines clamp: got %d", got)
	}
	if got := NewGaze(GazeConfig{PatternEntries: 100}).Config().PatternEntries; got != 128 {
		t.Errorf("pow2 rounding: got %d", got)
	}
}

func TestGazeName(t *testing.T) {
	if got := NewGaze(GazeConfig{}).Name(); got != "gaze" {
		t.Errorf("Name = %q", got)
	}
}

// trainGaze drives one region generation (offsets touched in order,
// all misses, same PC) and commits it via an eviction of its first
// line.
func trainGaze(g *Gaze, pc uint64, region uint64, offs []int16, sink prefetch.IssueFunc) {
	base := mem.LineAddr(region << 6) // default 64-line regions
	for _, o := range offs {
		g.OnAccess(missAt(pc, base.Add(int64(o))), sink)
	}
	g.OnCacheEvict(base.Add(int64(offs[0])))
}

// After two confirming generations the trigger pair replays the
// pattern: ordered lines first (minus the two trigger offsets), then
// nothing else because every touched line is in the order list.
func TestGazeLearnsAndReplays(t *testing.T) {
	check.Enabled = true
	defer func() { check.Enabled = false }()
	g := NewGaze(GazeConfig{})
	drop := func(mem.LineAddr) {}
	offs := []int16{0, 3, 5, 9}
	trainGaze(g, 0x400500, 100, offs, drop) // learn: conf=1
	trainGaze(g, 0x400500, 200, offs, drop) // confirm: conf=2
	if g.Stats.PatternsLearned != 1 || g.Stats.PatternsConfirmed != 1 {
		t.Fatalf("training stats: %+v", g.Stats)
	}

	var issued []mem.LineAddr
	sink := func(l mem.LineAddr) { issued = append(issued, l) }
	base := mem.LineAddr(uint64(300) << 6)
	g.OnAccess(missAt(0x400500, base.Add(0)), sink)
	g.OnAccess(missAt(0x400500, base.Add(3)), sink) // trigger pair complete
	if g.Stats.Replays != 1 {
		t.Fatalf("Replays = %d, want 1 (stats %+v)", g.Stats.Replays, g.Stats)
	}
	want := []mem.LineAddr{base.Add(5), base.Add(9)}
	if len(issued) != len(want) {
		t.Fatalf("issued %v, want %v", issued, want)
	}
	for i := range want {
		if issued[i] != want[i] {
			t.Fatalf("issued %v, want %v (temporal order violated)", issued, want)
		}
	}
	if g.Stats.LinesPrefetched != 2 {
		t.Errorf("LinesPrefetched = %d, want 2", g.Stats.LinesPrefetched)
	}
}

// Lines beyond the recorded order window replay from the footprint in
// ascending offset order, after the ordered prefix.
func TestGazeReplayFootprintTail(t *testing.T) {
	g := NewGaze(GazeConfig{OrderLines: 4})
	drop := func(mem.LineAddr) {}
	offs := []int16{7, 2, 9, 4, 30, 20} // order window keeps 7,2,9,4
	trainGaze(g, 0x400700, 100, offs, drop)
	trainGaze(g, 0x400700, 200, offs, drop)

	var issued []mem.LineAddr
	sink := func(l mem.LineAddr) { issued = append(issued, l) }
	base := mem.LineAddr(uint64(300) << 6)
	g.OnAccess(missAt(0x400700, base.Add(7)), sink)
	g.OnAccess(missAt(0x400700, base.Add(2)), sink)
	// Ordered: 9, 4 (skipping triggers 7, 2); then footprint tail
	// ascending: 20, 30.
	want := []mem.LineAddr{base.Add(9), base.Add(4), base.Add(20), base.Add(30)}
	if len(issued) != len(want) {
		t.Fatalf("issued %v, want %v", issued, want)
	}
	for i := range want {
		if issued[i] != want[i] {
			t.Fatalf("issued %v, want %v", issued, want)
		}
	}
}

// A generation that only ever touches one line trains nothing.
func TestGazeSingleLineDropped(t *testing.T) {
	g := NewGaze(GazeConfig{})
	drop := func(mem.LineAddr) {}
	base := mem.LineAddr(uint64(100) << 6)
	g.OnAccess(missAt(0x400600, base), drop)
	g.OnCacheEvict(base)
	if g.Stats.SingleLine != 1 || g.Stats.Generations != 0 {
		t.Errorf("stats: %+v", g.Stats)
	}
}

// A diverging footprint drains confidence; at zero the entry is
// replaced by the new pattern.
func TestGazeDivergenceReplaces(t *testing.T) {
	g := NewGaze(GazeConfig{})
	drop := func(mem.LineAddr) {}
	trainGaze(g, 0x400800, 100, []int16{0, 3, 5}, drop) // conf=1
	trainGaze(g, 0x400800, 200, []int16{0, 3, 8}, drop) // diverge: conf=0 → replace
	if g.Stats.PatternsDiverged != 1 {
		t.Fatalf("PatternsDiverged = %d (stats %+v)", g.Stats.PatternsDiverged, g.Stats)
	}
	if g.Stats.PatternsLearned != 2 {
		t.Errorf("PatternsLearned = %d, want 2 (replacement)", g.Stats.PatternsLearned)
	}
}

// Filling the active table commits the LRU generation, keeping the
// pattern table learning under capacity pressure.
func TestGazeActiveEvictionCommits(t *testing.T) {
	g := NewGaze(GazeConfig{ActiveEntries: 4})
	drop := func(mem.LineAddr) {}
	for r := uint64(1); r <= 5; r++ { // 5 regions through 4 slots
		base := mem.LineAddr(r << 6)
		g.OnAccess(missAt(0x400900, base.Add(0)), drop)
		g.OnAccess(missAt(0x400900, base.Add(1)), drop)
	}
	if g.Stats.Generations != 1 {
		t.Errorf("Generations = %d, want 1 (LRU commit)", g.Stats.Generations)
	}
}

func TestGazeDeterministicAndResets(t *testing.T) {
	run := func(g *Gaze) ([]mem.LineAddr, GazeStats) {
		var out []mem.LineAddr
		sink := func(l mem.LineAddr) { out = append(out, l) }
		for i := 0; i < 2000; i++ {
			r := uint64(1 + i%7)
			base := mem.LineAddr(r << 6)
			g.OnAccess(missAt(0x400500+uint64(i%3), base.Add(int64(i%5)*2)), sink)
			if i%11 == 0 {
				g.OnCacheEvict(base)
			}
		}
		return out, g.Stats
	}
	a := NewGaze(GazeConfig{})
	outA, statsA := run(a)
	b := NewGaze(GazeConfig{})
	outB, statsB := run(b)
	if statsA != statsB || len(outA) != len(outB) {
		t.Fatalf("diverged: %+v vs %+v, %d vs %d lines", statsA, statsB, len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("issue %d diverges", i)
		}
	}
	a.Reset()
	outR, statsR := run(a)
	if statsR != statsA || len(outR) != len(outA) {
		t.Fatal("Reset did not restore power-on state")
	}
}

func TestGazeStorageBits(t *testing.T) {
	g := NewGaze(GazeConfig{})
	// Active: 64 × (36 tag + 32 pc + 2×6 offsets + 64 bitmap + 8×6
	// order + 16 lru); patterns: 512 × (32 tag + 64 bitmap + 48 order
	// + 2 conf).
	want := uint64(64*(36+32+12+64+48+16) + 512*(32+64+48+2))
	if got := g.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
}

func TestGazeOnAccessAllocFree(t *testing.T) {
	skipIfChecksEnabled(t)
	g := NewGaze(GazeConfig{})
	drop := func(mem.LineAddr) {}
	i := 0
	iter := func() {
		r := uint64(1 + i%9)
		base := mem.LineAddr(r << 6)
		g.OnAccess(missAt(0x400500, base.Add(int64(i%13))), drop)
		if i%17 == 0 {
			g.OnCacheEvict(base)
		}
		i++
	}
	for k := 0; k < 2000; k++ {
		iter() // warm: populate active and pattern tables
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Errorf("warm OnAccess allocates %.1f objects, want 0", avg)
	}
}

// TestPythiaCheckQueueCatchesCorruptKeys corrupts one reward-scan key
// of a trained queue and expects checkQueue to fail: a page key on an
// issued entry, and a pending line moved to another filter bucket.
func TestPythiaCheckQueueCatchesCorruptKeys(t *testing.T) {
	trained := func() *Pythia {
		p := NewPythia(PythiaConfig{})
		drop := func(mem.LineAddr) {}
		for i := 0; i < 500; i++ {
			l := mem.LineAddr(1<<20 + i*3)
			p.OnAccess(prefetch.Access{PC: 0x401000, Addr: l.Byte(), Line: l}, drop)
		}
		p.checkQueue()
		return p
	}
	// liveSlot returns a queued slot of the wanted kind.
	liveSlot := func(t *testing.T, p *Pythia, pending bool) int {
		t.Helper()
		for k := 0; k < p.eqLen; k++ {
			j := (p.eqHead + k) % len(p.eq)
			if (p.pendKey[j] != noKey) == pending && p.eq[j].issued == pending {
				return j
			}
		}
		t.Fatalf("no queued slot with pending=%v", pending)
		return -1
	}
	t.Run("page key on an issued entry", func(t *testing.T) {
		p := trained()
		j := liveSlot(t, p, true)
		p.openKey[j] = p.pendKey[j] >> pageLineShift
		mustPanic(t, p.checkQueue)
	})
	t.Run("pending line in another bucket", func(t *testing.T) {
		p := trained()
		j := liveSlot(t, p, true)
		k := p.pendKey[j] + 1
		for p.bucket(k) == p.bucket(p.pendKey[j]) {
			k++
		}
		p.pendKey[j] = k
		mustPanic(t, p.checkQueue)
	})
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("checker accepted a corrupted structure")
		}
	}()
	f()
}
