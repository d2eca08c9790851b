package core

import (
	"testing"

	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// harness drives the prefetcher with synthetic block streams.
type driver struct {
	p      *Prefetcher
	issued []mem.LineAddr
}

func newDriver(cfg Config) *driver {
	return &driver{p: New(cfg)}
}

func (d *driver) issue(l mem.LineAddr) { d.issued = append(d.issued, l) }

// block runs one block instance over the given lines.
func (d *driver) block(id int, lines []mem.LineAddr) {
	d.p.OnBlockBegin(id)
	for _, l := range lines {
		d.p.OnAccess(prefetch.Access{Addr: l.Byte(), Line: l}, d.issue)
	}
	d.p.OnBlockEnd(id, d.issue)
}

// stridedBlock returns the line vector of iteration n for a loop whose
// working set is `lanes` lines spaced `gap` apart, advancing by `stride`
// lines per iteration.
func stridedBlock(n int, lanes, gap int, stride int64) []mem.LineAddr {
	base := mem.LineAddr(1 << 20).Add(stride * int64(n))
	out := make([]mem.LineAddr, lanes)
	for i := range out {
		out[i] = base.Add(int64(i * gap))
	}
	return out
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := New(Config{}).Config()
	if cfg.MaxVector != 16 || cfg.Steps != 4 || cfg.HistoryDepth != 3 ||
		cfg.TableEntries != 16 || cfg.HashBits != 12 || cfg.StrideBits != 16 || cfg.AddrBits != 32 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestStorageUnder1KB(t *testing.T) {
	p := New(Config{})
	bits := p.StorageBits()
	if bits >= 8192 {
		t.Errorf("storage = %d bits (%.2f KB), want < 1KB", bits, float64(bits)/8192)
	}
	// Figure 8 arithmetic: 512 + 2048 + 1024 + 144 + 4352 = 8080 bits.
	if bits != 8080 {
		t.Errorf("storage = %d bits, want 8080", bits)
	}
}

func TestConstantStridePrediction(t *testing.T) {
	d := newDriver(Config{})
	// Warm up: enough iterations to fill histories and the table.
	for n := 0; n < 10; n++ {
		d.block(0, stridedBlock(n, 4, 100, 7))
	}
	d.issued = nil
	d.block(0, stridedBlock(10, 4, 100, 7))
	if len(d.issued) == 0 {
		t.Fatal("no predictions for a constant-stride loop")
	}
	// Every predicted line must belong to a future iteration (steps
	// 1..4): base + 7*(11..14) + i*100.
	valid := map[mem.LineAddr]bool{}
	for step := 1; step <= 4; step++ {
		for _, l := range stridedBlock(10+step, 4, 100, 7) {
			valid[l] = true
		}
	}
	for _, l := range d.issued {
		if !valid[l] {
			t.Errorf("predicted %v, not in any future working set", l)
		}
	}
	// The complete next working set must be covered.
	next := map[mem.LineAddr]bool{}
	for _, l := range d.issued {
		next[l] = true
	}
	for _, l := range stridedBlock(11, 4, 100, 7) {
		if !next[l] {
			t.Errorf("next iteration line %v not predicted", l)
		}
	}
	if d.p.Stats.TableHits == 0 {
		t.Error("no table hits recorded")
	}
	if !d.p.Confident() {
		t.Error("prefetcher not confident after constant stride")
	}
}

func TestNoPredictionWithoutHistory(t *testing.T) {
	d := newDriver(Config{})
	// The very first blocks cannot predict (histories cold).
	for n := 0; n < 3; n++ {
		d.block(0, stridedBlock(n, 2, 10, 5))
	}
	if len(d.issued) != 0 {
		t.Errorf("predicted with cold history: %v", d.issued)
	}
}

func TestRandomPatternStaysSilent(t *testing.T) {
	d := newDriver(Config{})
	rng := uint64(12345)
	next := func() mem.LineAddr {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return mem.LineAddr(rng >> 24)
	}
	for n := 0; n < 50; n++ {
		d.block(0, []mem.LineAddr{next(), next(), next()})
	}
	// A random stream may occasionally collide in the 16-entry table;
	// the standalone prefetcher must stay near-silent.
	if len(d.issued) > 100 {
		t.Errorf("issued %d predictions on random blocks", len(d.issued))
	}
	if d.p.Stats.TableMisses == 0 {
		t.Error("expected table misses on random blocks")
	}
}

func TestZeroStrideSkipped(t *testing.T) {
	d := newDriver(Config{})
	// The same working set every iteration: differentials are zero and
	// nothing useful can be prefetched.
	lines := []mem.LineAddr{100, 200, 300}
	for n := 0; n < 10; n++ {
		d.block(0, lines)
	}
	if len(d.issued) != 0 {
		t.Errorf("issued %v for a stationary working set", d.issued)
	}
}

func TestOverflowBeyondMaxVector(t *testing.T) {
	d := newDriver(Config{MaxVector: 4})
	big := make([]mem.LineAddr, 10)
	for i := range big {
		big[i] = mem.LineAddr(1000 + i)
	}
	d.block(0, big)
	if d.p.Stats.Overflows == 0 {
		t.Error("overflow not recorded")
	}
	// Tracing is capped: predictions later never exceed MaxVector lines
	// per step.
	for n := 1; n < 10; n++ {
		shifted := make([]mem.LineAddr, 10)
		for i := range shifted {
			shifted[i] = big[i].Add(int64(20 * n))
		}
		d.block(0, shifted)
	}
	// Per block end at most Steps × MaxVector predictions, over the 9
	// post-warmup blocks.
	if len(d.issued) > 4*4*10 {
		t.Errorf("issued %d predictions with MaxVector=4", len(d.issued))
	}
	// Predictions may reach Steps=4 iterations beyond the last block
	// (n=9): lines up to 1009 + 20*13.
	for _, l := range d.issued {
		if l < 1000 || l > 1000+10+20*13 {
			t.Errorf("prediction %v outside the traced stream", l)
		}
	}
}

func TestDedupWithinBlock(t *testing.T) {
	d := newDriver(Config{})
	// Accessing the same line repeatedly inside a block must record it
	// once (Eq. 1: unique addresses).
	for n := 0; n < 6; n++ {
		base := mem.LineAddr(5000 + n*3)
		d.block(0, []mem.LineAddr{base, base, base.Add(1), base, base.Add(1)})
	}
	// The internal current CBWS is cleared at end; verify via the last
	// predecessor: it must have 2 unique lines.
	if got := len(d.p.LastCBWS(0)); got != 2 {
		t.Errorf("last CBWS has %d lines, want 2", got)
	}
}

func TestBlockIDChangeResetsContext(t *testing.T) {
	d := newDriver(Config{})
	for n := 0; n < 10; n++ {
		d.block(0, stridedBlock(n, 3, 50, 9))
	}
	// Switch to a different static loop: the context clears, no stale
	// predictions from block 0's history.
	d.issued = nil
	d.block(1, stridedBlock(0, 3, 50, 9))
	if len(d.issued) != 0 {
		t.Errorf("stale context predicted after block switch: %v", d.issued)
	}
	if d.p.Confident() {
		t.Error("confidence survived a block switch")
	}
}

func TestAccessesOutsideBlocksIgnored(t *testing.T) {
	d := newDriver(Config{})
	d.p.OnAccess(prefetch.Access{Addr: 0x1000, Line: 64}, d.issue)
	if len(d.p.CurrentCBWS()) != 0 {
		t.Error("access outside a block was traced")
	}
	// BlockEnd without matching Begin is a no-op.
	d.p.OnBlockEnd(0, d.issue)
	if len(d.issued) != 0 {
		t.Error("unmatched BlockEnd issued predictions")
	}
}

func TestEmptyBlocksDoNotPolluteHistory(t *testing.T) {
	d := newDriver(Config{})
	for n := 0; n < 10; n++ {
		d.block(0, stridedBlock(n, 3, 50, 9))
		// Interleave empty instances (e.g. the final header-test
		// iteration of a for-loop).
		d.block(0, nil)
	}
	d.issued = nil
	d.block(0, stridedBlock(10, 3, 50, 9))
	if len(d.issued) == 0 {
		t.Error("empty blocks destroyed the prediction context")
	}
}

func TestSaturatedStrideNotPredicted(t *testing.T) {
	d := newDriver(Config{})
	// Alternate between two far-apart regions so deltas overflow 16
	// bits; the prefetcher must not emit clamped garbage addresses.
	for n := 0; n < 20; n++ {
		base := mem.LineAddr(1 << 20)
		if n%2 == 1 {
			base = mem.LineAddr(1 << 30)
		}
		d.block(0, []mem.LineAddr{base.Add(int64(n)), base.Add(int64(n) + 10)})
	}
	for _, l := range d.issued {
		near20 := l >= 1<<20 && l < 1<<20+1<<10
		near30 := l >= 1<<30 && l < 1<<30+1<<10
		if !near20 && !near30 {
			t.Errorf("issued far-out line %v (clamped-stride garbage)", l)
		}
	}
}

func TestMultiStepPredictsFartherIterations(t *testing.T) {
	d := newDriver(Config{Steps: 4})
	for n := 0; n < 12; n++ {
		d.block(0, stridedBlock(n, 1, 0, 100))
	}
	d.issued = nil
	d.block(0, stridedBlock(12, 1, 0, 100))
	// With 4 steps, lines of iterations 13..16 should all appear.
	want := map[mem.LineAddr]bool{}
	for s := 1; s <= 4; s++ {
		want[stridedBlock(12+s, 1, 0, 100)[0]] = true
	}
	got := map[mem.LineAddr]bool{}
	for _, l := range d.issued {
		got[l] = true
	}
	for l := range want {
		if !got[l] {
			t.Errorf("multi-step line %v not predicted (issued %v)", l, d.issued)
		}
	}
}

func TestDivergentLengthsAlignToShorter(t *testing.T) {
	d := newDriver(Config{})
	// Alternate 3-line and 2-line instances (branch divergence); the
	// prefetcher must keep functioning and only predict within the
	// aligned prefix.
	for n := 0; n < 20; n++ {
		lanes := 3
		if n%2 == 1 {
			lanes = 2
		}
		d.block(0, stridedBlock(n, lanes, 40, 6))
	}
	// No panic, and any predictions stay near the stream.
	for _, l := range d.issued {
		if l < 1<<20 || l > 1<<20+1<<12 {
			t.Errorf("divergent blocks predicted far-out line %v", l)
		}
	}
}

func TestResetClearsEverything(t *testing.T) {
	d := newDriver(Config{})
	for n := 0; n < 10; n++ {
		d.block(0, stridedBlock(n, 4, 100, 7))
	}
	d.p.Reset()
	if d.p.Confident() || d.p.Stats.Blocks != 0 {
		t.Error("reset incomplete")
	}
	d.issued = nil
	d.block(0, stridedBlock(10, 4, 100, 7))
	if len(d.issued) != 0 {
		t.Errorf("predictions survived reset: %v", d.issued)
	}
}

func TestTableRandomReplacementKeepsWorking(t *testing.T) {
	// Far more distinct patterns than table entries: the table churns
	// but the prefetcher must remain functional and bounded.
	d := newDriver(Config{TableEntries: 4})
	for n := 0; n < 200; n++ {
		stride := int64(3 + n%13)
		d.block(0, stridedBlock(n, 2, 30, stride))
	}
	if d.p.Stats.Blocks != 200 {
		t.Errorf("blocks = %d", d.p.Stats.Blocks)
	}
}

func TestNameAndInterface(t *testing.T) {
	var _ prefetch.Prefetcher = New(Config{})
	if New(Config{}).Name() != "cbws" {
		t.Error("name")
	}
}

// TestCheckWorkingSetCatchesCorruptTable corrupts one history-table
// slot of a trained prefetcher and expects checkWorkingSet to fail: a
// diff longer than MaxVector, and a valid tag past the fill cursor.
func TestCheckWorkingSetCatchesCorruptTable(t *testing.T) {
	trained := func() *Prefetcher {
		d := newDriver(Config{})
		for n := 0; n < 10; n++ {
			d.block(0, stridedBlock(n, 4, 100, 7))
		}
		if d.p.filled == 0 || d.p.filled == len(d.p.tags) {
			t.Fatalf("trained table fills %d of %d slots", d.p.filled, len(d.p.tags))
		}
		d.p.checkWorkingSet()
		return d.p
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Prefetcher)
	}{
		{"diff longer than MaxVector", func(p *Prefetcher) { p.diffLen[0] = p.mv + 1 }},
		{"valid tag past the fill cursor", func(p *Prefetcher) { p.tags[p.filled] = tableValid | 5 }},
		{"fill cursor behind the valid tags", func(p *Prefetcher) { p.filled-- }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := trained()
			tc.corrupt(p)
			defer func() {
				if recover() == nil {
					t.Error("checkWorkingSet accepted a corrupted table")
				}
			}()
			p.checkWorkingSet()
		})
	}
}
