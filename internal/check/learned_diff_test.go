package check_test

import (
	"math/rand"
	"slices"
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/prefetch/learned"
)

// pythiaConfigs returns matched production/reference parameter sets.
// Every field is explicit (the reference does no defaulting); the
// non-default variants shrink the tables and queue so aliasing,
// evaluation-queue churn, Q saturation and exploration all trigger
// under short streams.
func pythiaConfigs() []struct {
	name string
	real learned.PythiaConfig
	ref  check.RefPythiaConfig
} {
	mk := func(name string, actions []int8, f1, f2, hist, eq, qbits int,
		alpha, gamma, eps uint, age uint64) struct {
		name string
		real learned.PythiaConfig
		ref  check.RefPythiaConfig
	} {
		return struct {
			name string
			real learned.PythiaConfig
			ref  check.RefPythiaConfig
		}{
			name: name,
			real: learned.PythiaConfig{Actions: actions, Feature1Entries: f1, Feature2Entries: f2,
				DeltaHistory: hist, EQSize: eq, QBits: qbits,
				AlphaShift: alpha, GammaShift: gamma, EpsilonShift: eps, TimelyAge: age,
				RewardAccurateTimely: 20, RewardAccurateLate: 12, RewardInaccurate: -14,
				RewardNoPrefGood: 12, RewardNoPrefBad: -4},
			ref: check.RefPythiaConfig{Actions: actions, Feature1Entries: f1, Feature2Entries: f2,
				DeltaHistory: hist, EQSize: eq, QBits: qbits,
				AlphaShift: alpha, GammaShift: gamma, EpsilonShift: eps, TimelyAge: age,
				RewardAccurateTimely: 20, RewardAccurateLate: 12, RewardInaccurate: -14,
				RewardNoPrefGood: 12, RewardNoPrefBad: -4},
		}
	}
	return []struct {
		name string
		real learned.PythiaConfig
		ref  check.RefPythiaConfig
	}{
		mk("default", []int8{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, -1, -2, -3, -6},
			4096, 1024, 4, 64, 16, 3, 2, 6, 8),
		// Tiny tables and a 4-deep queue: constant aliasing and
		// eviction churn; 8-bit Q saturates quickly.
		mk("tiny", []int8{0, 1, -1, 2}, 64, 32, 2, 4, 8, 2, 1, 3, 2),
		// Deep history, heavy exploration.
		mk("deep", []int8{0, 1, 2, 4, 8, -1, -4, 63, -63}, 256, 128, 6, 16, 12, 4, 3, 4, 4),
	}
}

// learnedPythiaStats converts production stats for struct comparison.
func learnedPythiaStats(s learned.PythiaStats) check.RefPythiaStats {
	return check.RefPythiaStats{
		Triggers:       s.Triggers,
		Issued:         s.Issued,
		Explores:       s.Explores,
		AccurateTimely: s.AccurateTimely,
		AccurateLate:   s.AccurateLate,
		Inaccurate:     s.Inaccurate,
		NoPrefGood:     s.NoPrefGood,
		NoPrefBad:      s.NoPrefBad,
		QUpdates:       s.QUpdates,
	}
}

// drivePythiaPair feeds one pseudo-random access stream to the
// production agent and the naive reference, comparing the issued
// prefetch stream after every event plus final statistics. The stream
// mixes strided loop phases (which the agent learns), phase changes,
// random noise, cache hits (reward-scan-only events) and prefetched
// first uses.
func drivePythiaPair(t testingT, p *learned.Pythia, ref *check.RefPythia, rng *rand.Rand, events int) {
	var gotIssued, wantIssued []mem.LineAddr
	issueGot := func(l mem.LineAddr) { gotIssued = append(gotIssued, l) }
	issueWant := func(l mem.LineAddr) { wantIssued = append(wantIssued, l) }

	base := mem.LineAddr(rng.Intn(1 << 22))
	stride := int64(rng.Intn(7) - 3)
	pc := uint64(0x400000 + rng.Intn(8)*0x40)
	pos := int64(0)
	for i := 0; i < events; i++ {
		if rng.Intn(400) == 0 { // phase change
			base = mem.LineAddr(rng.Intn(1 << 22))
			stride = int64(rng.Intn(7) - 3)
			pc = uint64(0x400000 + rng.Intn(8)*0x40)
			pos = 0
		}
		var line mem.LineAddr
		if rng.Intn(6) != 0 {
			line = base.Add(pos*stride + int64(rng.Intn(2)))
			pos++
		} else {
			line = mem.LineAddr(rng.Intn(1 << 22))
		}
		a := prefetch.Access{PC: pc, Line: line, Addr: line.Byte()}
		switch rng.Intn(5) {
		case 0:
			a.HitL1 = true
		case 1:
			a.HitL2 = true
		case 2:
			a.PfHit = true
		}
		p.OnAccess(a, issueGot)
		ref.OnAccess(a, issueWant)
		if len(gotIssued) != len(wantIssued) {
			t.Fatalf("event %d: issued %d prefetches, ref issued %d",
				i, len(gotIssued), len(wantIssued))
		}
		for j := range gotIssued {
			if gotIssued[j] != wantIssued[j] {
				t.Fatalf("event %d: prefetch %d diverged: real %v, ref %v",
					i, j, gotIssued[j], wantIssued[j])
			}
		}
		gotIssued, wantIssued = gotIssued[:0], wantIssued[:0]
	}
	if got := learnedPythiaStats(p.Stats); got != ref.Stats {
		t.Fatalf("stats diverged:\n real %+v\n  ref %+v", got, ref.Stats)
	}
}

// TestPythiaVsReference drives over a million events through the
// production Pythia-style agent (flat preallocated Q-tables, ring
// buffers) and the naive map-and-slice reference, across three
// hardware configurations, requiring identical prefetch streams and
// statistics — including the ε-greedy exploration sequence and the
// fixed-point SARSA updates.
func TestPythiaVsReference(t *testing.T) {
	prev := check.Enabled
	check.Enabled = true
	defer func() { check.Enabled = prev }()

	const seeds, eventsPerSeed = 3, 120_000 // 3 cfgs × 3 seeds × 120k ≈ 1.1M
	for _, cfg := range pythiaConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				p := learned.NewPythia(cfg.real)
				ref := check.NewRefPythia(cfg.ref)
				drivePythiaPair(t, p, ref, rand.New(rand.NewSource(seed)), eventsPerSeed)
			}
		})
	}
}

// collidingKeys returns n keys at or above from whose mem.Hash values
// share their top 16 bits, so they fall in one bucket of any table of
// up to 2^16 buckets bucketed by those bits.
func collidingKeys(from uint64, n int) []uint64 {
	var count [1 << 16]uint8
	target := -1
	for x := from; target < 0; x++ {
		b := mem.Hash(x) >> 48
		if count[b]++; int(count[b]) == n {
			target = int(b)
		}
	}
	keys := make([]uint64, 0, n)
	for x := from; len(keys) < n; x++ {
		if int(mem.Hash(x)>>48) == target {
			keys = append(keys, x)
		}
	}
	return keys
}

// TestPythiaFilterCollisions drives the 4-deep-queue Pythia through
// lines and pages chosen to share one reward-scan filter bucket: the
// prefetch targets of the stream collide, so a demand access often
// finds its bucket nonzero for another line's pending prefetch, and
// misses on colliding pages share one no-prefetch count. With the
// invariant checks on, every access also recounts the filter against
// the queue; the reference must see the same prefetches and rewards.
func TestPythiaFilterCollisions(t *testing.T) {
	prev := check.Enabled
	check.Enabled = true
	defer func() { check.Enabled = prev }()

	cfg := pythiaConfigs()[1] // "tiny": EQSize 4, actions {0, 1, -1, 2}
	if cfg.real.EQSize != 4 {
		t.Fatalf("tiny config has EQSize %d", cfg.real.EQSize)
	}
	lines := collidingKeys(1<<20, 8)
	pages := collidingKeys(1<<14, 4)
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := learned.NewPythia(cfg.real), check.NewRefPythia(cfg.ref)
		var gotIssued, wantIssued []mem.LineAddr
		for i := 0; i < 50_000; i++ {
			var line mem.LineAddr
			switch rng.Intn(3) {
			case 0: // a colliding line: claims or false filter hits
				line = mem.LineAddr(lines[rng.Intn(len(lines))])
			case 1: // a trigger whose prefetch targets a colliding line
				line = mem.LineAddr(lines[rng.Intn(len(lines))]).Add(int64(rng.Intn(4) - 2))
			default: // a line of a colliding page
				line = mem.LineAddr(pages[rng.Intn(len(pages))]<<6 | uint64(rng.Intn(64)))
			}
			a := prefetch.Access{PC: 0x400000 + uint64(rng.Intn(2))*0x40, Line: line, Addr: line.Byte()}
			switch rng.Intn(4) {
			case 0:
				a.HitL1 = true
			case 1:
				a.PfHit = true
			}
			p.OnAccess(a, func(l mem.LineAddr) { gotIssued = append(gotIssued, l) })
			ref.OnAccess(a, func(l mem.LineAddr) { wantIssued = append(wantIssued, l) })
			if !slices.Equal(gotIssued, wantIssued) {
				t.Fatalf("seed %d event %d: issued %v, ref %v", seed, i, gotIssued, wantIssued)
			}
			gotIssued, wantIssued = gotIssued[:0], wantIssued[:0]
		}
		if got := learnedPythiaStats(p.Stats); got != ref.Stats {
			t.Fatalf("seed %d: stats diverged:\n real %+v\n  ref %+v", seed, got, ref.Stats)
		}
		if ref.Stats.AccurateTimely+ref.Stats.AccurateLate == 0 || ref.Stats.NoPrefBad == 0 {
			t.Fatalf("seed %d: stream never rewarded a prefetch or punished a no-prefetch: %+v", seed, ref.Stats)
		}
	}
}

// gazeConfigs returns matched production/reference parameter sets.
func gazeConfigs() []struct {
	name string
	real learned.GazeConfig
	ref  check.RefGazeConfig
} {
	mk := func(name string, region, active, patterns, order int, confMax, confThr int8) struct {
		name string
		real learned.GazeConfig
		ref  check.RefGazeConfig
	} {
		return struct {
			name string
			real learned.GazeConfig
			ref  check.RefGazeConfig
		}{
			name: name,
			real: learned.GazeConfig{RegionBytes: region, ActiveEntries: active,
				PatternEntries: patterns, OrderLines: order, ConfMax: confMax, ConfThreshold: confThr},
			ref: check.RefGazeConfig{RegionBytes: region, ActiveEntries: active,
				PatternEntries: patterns, OrderLines: order, ConfMax: confMax, ConfThreshold: confThr},
		}
	}
	return []struct {
		name string
		real learned.GazeConfig
		ref  check.RefGazeConfig
	}{
		mk("default", 4096, 64, 512, 8, 3, 2),
		// 4 active regions and 16 patterns: constant LRU eviction and
		// row aliasing; replay gate at one confirmation.
		mk("tiny", 512, 4, 16, 4, 2, 1),
		mk("wide", 2048, 16, 64, 16, 5, 3),
	}
}

func learnedGazeStats(s learned.GazeStats) check.RefGazeStats {
	return check.RefGazeStats{
		Generations:       s.Generations,
		SingleLine:        s.SingleLine,
		PatternsLearned:   s.PatternsLearned,
		PatternsConfirmed: s.PatternsConfirmed,
		PatternsDiverged:  s.PatternsDiverged,
		Replays:           s.Replays,
		LinesPrefetched:   s.LinesPrefetched,
	}
}

// driveGazePair feeds one pseudo-random access/eviction stream to the
// production prefetcher and the naive reference, comparing the issued
// prefetch stream after every event plus final statistics. The stream
// revisits a small set of regions with recurring per-PC footprints (so
// patterns confirm and replay), mixed with noise accesses, hits, and
// cache evictions that close generations.
func driveGazePair(t testingT, g *learned.Gaze, ref *check.RefGaze, rng *rand.Rand, events int) {
	var gotIssued, wantIssued []mem.LineAddr
	issueGot := func(l mem.LineAddr) { gotIssued = append(gotIssued, l) }
	issueWant := func(l mem.LineAddr) { wantIssued = append(wantIssued, l) }

	lines := g.Config().RegionBytes >> 6
	for i := 0; i < events; i++ {
		if rng.Intn(10) == 0 { // eviction, sometimes of an active region
			line := mem.LineAddr(uint64(rng.Intn(32))<<uint(mem.Log2(uint64(lines))) | uint64(rng.Intn(lines)))
			g.OnCacheEvict(line)
			ref.OnCacheEvict(line)
			continue
		}
		region := uint64(rng.Intn(32))
		pc := uint64(0x400000 + (region%4)*0x40) // PC correlated with region class
		// Footprint shape recurs per PC class with occasional deviation.
		off := int64((int(region%4)*7 + rng.Intn(6)*3) % lines)
		if rng.Intn(12) == 0 {
			off = int64(rng.Intn(lines))
		}
		line := mem.LineAddr(region<<uint(mem.Log2(uint64(lines))) | uint64(off))
		a := prefetch.Access{PC: pc, Line: line, Addr: line.Byte()}
		switch rng.Intn(5) {
		case 0:
			a.HitL1 = true
		case 1:
			a.PfHit = true
		}
		g.OnAccess(a, issueGot)
		ref.OnAccess(a, issueWant)
		if len(gotIssued) != len(wantIssued) {
			t.Fatalf("event %d: issued %d prefetches, ref issued %d",
				i, len(gotIssued), len(wantIssued))
		}
		for j := range gotIssued {
			if gotIssued[j] != wantIssued[j] {
				t.Fatalf("event %d: prefetch %d diverged: real %v, ref %v",
					i, j, gotIssued[j], wantIssued[j])
			}
		}
		gotIssued, wantIssued = gotIssued[:0], wantIssued[:0]
	}
	if got := learnedGazeStats(g.Stats); got != ref.Stats {
		t.Fatalf("stats diverged:\n real %+v\n  ref %+v", got, ref.Stats)
	}
}

// TestGazeVsReference drives over a million events through the
// production Gaze-style prefetcher (fixed bitmap tables, an indexed
// active table) and the naive map-based reference, across three hardware
// configurations, requiring identical prefetch streams and statistics
// — including replay order and the LRU eviction sequence.
func TestGazeVsReference(t *testing.T) {
	prev := check.Enabled
	check.Enabled = true
	defer func() { check.Enabled = prev }()

	const seeds, eventsPerSeed = 3, 120_000 // 3 cfgs × 3 seeds × 120k ≈ 1.1M
	for _, cfg := range gazeConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				g := learned.NewGaze(cfg.real)
				ref := check.NewRefGaze(cfg.ref)
				driveGazePair(t, g, ref, rand.New(rand.NewSource(seed)), eventsPerSeed)
			}
		})
	}
}
