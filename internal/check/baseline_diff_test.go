package check_test

import (
	"math/rand"
	"slices"
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// baselineModel is the training surface the stride, GHB and SMS
// production tables share with their reference models.
type baselineModel interface {
	OnAccess(prefetch.Access, prefetch.IssueFunc)
}

// baselineEvent is one step of a baseline stream: a demand access, or
// (evict) an L1 eviction of a.Line.
type baselineEvent struct {
	a     prefetch.Access
	evict bool
}

// evictTag marks an eviction in a side's output log, so issued lines
// and eviction callbacks interleave in one comparable sequence.
const evictTag = 1 << 63

// baselineSide wraps one model of a pair and logs its observable
// output. For a model that observes evictions, some issued lines fire
// an eviction back into the model from inside the issue callback, as
// an L2 fill's back-invalidation of the L1 does in the hierarchy.
// Which lines do so, and which line they evict, depends only on the
// issued line and the shared access history, so both sides of a pair
// see the same callbacks for as long as their outputs agree.
type baselineSide struct {
	m      baselineModel
	eo     prefetch.EvictionObserver // nil when the model has none
	recent *[8]mem.LineAddr          // lines of the latest accesses, shared by the pair
	log    []uint64
	issue  prefetch.IssueFunc
}

func newBaselineSide(m baselineModel, recent *[8]mem.LineAddr) *baselineSide {
	s := &baselineSide{m: m, recent: recent}
	s.eo, _ = m.(prefetch.EvictionObserver)
	s.issue = func(l mem.LineAddr) {
		s.log = append(s.log, uint64(l))
		if s.eo != nil && uint64(l)%3 == 0 {
			s.evict(s.recent[uint64(l)>>2&7])
		}
	}
	return s
}

func (s *baselineSide) evict(l mem.LineAddr) {
	if s.eo == nil {
		return
	}
	s.log = append(s.log, evictTag|uint64(l))
	s.eo.OnCacheEvict(l)
}

// driveBaselinePair feeds events to a production model and its
// reference and requires the same issued lines and eviction callbacks,
// in the same order, after every event. A production model with a
// Check method (SMS's index-versus-region-array agreement) must also
// pass it after every event.
func driveBaselinePair(t testingT, got, want baselineModel, events []baselineEvent) {
	t.Helper()
	var recent [8]mem.LineAddr
	g, w := newBaselineSide(got, &recent), newBaselineSide(want, &recent)
	checker, _ := got.(interface{ Check() error })
	for i, ev := range events {
		if ev.evict {
			g.evict(ev.a.Line)
			w.evict(ev.a.Line)
		} else {
			got.OnAccess(ev.a, g.issue)
			want.OnAccess(ev.a, w.issue)
			recent[i&7] = ev.a.Line
		}
		if len(g.log) != len(w.log) {
			t.Fatalf("event %d (%+v): %d outputs, ref %d\n real %x\n  ref %x",
				i, ev, len(g.log), len(w.log), g.log, w.log)
		}
		for j := range g.log {
			if g.log[j] != w.log[j] {
				t.Fatalf("event %d (%+v): output %d diverged: real %#x, ref %#x",
					i, ev, j, g.log[j], w.log[j])
			}
		}
		g.log, w.log = g.log[:0], w.log[:0]
		if checker != nil {
			if err := checker.Check(); err != nil {
				t.Fatalf("event %d (%+v): %v", i, ev, err)
			}
		}
	}
}

// baselineStream is one synthetic access stream of genBaselineEvents.
type baselineStream struct {
	pc     uint64
	kind   int // 0 constant stride, 1 periodic deltas, 2 region footprints
	line   mem.LineAddr
	stride int64
	deltas []int64
	offs   []int
	pos    int
}

// genBaselineEvents builds a pseudo-random event stream shaped for the
// three baselines: per-PC constant strides (stride steady state),
// periodic delta sequences (GHB delta correlation), recurring per-PC
// footprints over fresh regions (SMS generations), random noise, every
// combination of hit flags, and L1 evictions of recently touched lines.
// 24 PCs overflow the tiny tables; regionLines sizes the footprints.
func genBaselineEvents(rng *rand.Rand, n, regionLines int) []baselineEvent {
	newStream := func() baselineStream {
		s := baselineStream{
			pc:     0x400000 + uint64(rng.Intn(24))*0x40,
			kind:   rng.Intn(3),
			line:   mem.LineAddr(rng.Intn(1 << 16)),
			stride: int64(rng.Intn(9) - 4),
		}
		for k := 2 + rng.Intn(3); k > 0; k-- {
			s.deltas = append(s.deltas, int64(rng.Intn(11)-5))
		}
		// A footprint recurs per PC, with an occasional deviation.
		class := int(s.pc >> 6 & 7)
		for j := 0; j < 2+class%4; j++ {
			s.offs = append(s.offs, (class*5+j*3)%regionLines)
		}
		if rng.Intn(4) == 0 {
			s.offs = append(s.offs, rng.Intn(regionLines))
		}
		return s
	}
	streams := make([]baselineStream, 12)
	for i := range streams {
		streams[i] = newStream()
	}
	var touched [16]mem.LineAddr
	events := make([]baselineEvent, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			l := touched[rng.Intn(len(touched))]
			events = append(events, baselineEvent{a: prefetch.Access{Line: l, Addr: l.Byte()}, evict: true})
			continue
		}
		k := rng.Intn(len(streams))
		if rng.Intn(300) == 0 {
			streams[k] = newStream()
		}
		s := &streams[k]
		pc := s.pc
		var line mem.LineAddr
		switch {
		case rng.Intn(8) == 0: // noise
			pc = 0x400000 + uint64(rng.Intn(24))*0x40
			line = mem.LineAddr(rng.Intn(1 << 16))
		case s.kind == 0:
			s.line = s.line.Add(s.stride)
			line = s.line
		case s.kind == 1:
			s.line = s.line.Add(s.deltas[s.pos%len(s.deltas)])
			s.pos++
			line = s.line
		default:
			j := s.pos % len(s.offs)
			if j == 0 { // next generation: a fresh region
				s.line = mem.LineAddr(rng.Intn(1<<16) / regionLines * regionLines)
			}
			s.pos++
			line = s.line.Add(int64(s.offs[j]))
		}
		a := prefetch.Access{PC: pc, Line: line, Addr: line.Byte() + mem.Addr(rng.Intn(mem.LineSize))}
		switch rng.Intn(6) {
		case 0:
			a.HitL1 = true
		case 1:
			a.HitL2 = true
		case 2:
			a.PfHit = true
		case 3:
			a.HitL2, a.PfHit = true, true
		}
		touched[i%len(touched)] = line
		events = append(events, baselineEvent{a: a})
	}
	return events
}

const baselineSeeds, baselineEventsPerSeed = 3, 100_000

// TestStrideVsRef pins the fixed-array stride table to the map-based
// reference on the default table and on a 4-entry table that evicts
// constantly, with and without issue-on-hit.
func TestStrideVsRef(t *testing.T) {
	for _, c := range []struct {
		name    string
		entries int
		degree  int
		hits    bool
	}{
		{"default", 256, 2, false},
		{"tiny", 4, 2, false},
		{"tiny-hits", 4, 3, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < baselineSeeds; seed++ {
				got := prefetch.NewStride(prefetch.StrideConfig{TableEntries: c.entries, Degree: c.degree, IssueOnHits: c.hits})
				want := check.NewRefStride(check.RefStrideConfig{TableEntries: c.entries, Degree: c.degree, IssueOnHits: c.hits})
				driveBaselinePair(t, got, want, genBaselineEvents(rand.New(rand.NewSource(seed)), baselineEventsPerSeed, 32))
			}
		})
	}
}

// ghbConfigs returns matched production/reference GHB parameter sets
// for one mode: the Table II buffer, a 5-entry buffer (not a power of
// two, so the ring wraps at an odd slot and links break mid-walk), a
// 7-entry buffer that trains on hits with a deeper degree than its
// match distance, and history lengths 1 and 5 (one-delta and
// four-delta correlation keys), also on the 5-entry buffer.
func ghbConfigs(mode prefetch.GHBIndexMode) []struct {
	name string
	real prefetch.GHBConfig
	ref  check.RefGHBConfig
} {
	type cfg = struct {
		name string
		real prefetch.GHBConfig
		ref  check.RefGHBConfig
	}
	mk := func(name string, entries, hist, degree int, hits bool) cfg {
		return cfg{
			name: name,
			real: prefetch.GHBConfig{Mode: mode, BufferEntries: entries, HistoryLength: hist, Degree: degree, TrainOnHits: hits},
			ref:  check.RefGHBConfig{PCDC: mode == prefetch.PCDC, BufferEntries: entries, HistoryLength: hist, Degree: degree, TrainOnHits: hits},
		}
	}
	return []cfg{
		mk("default", 256, 3, 3, false),
		mk("tiny5", 5, 3, 3, false),
		mk("hits7", 7, 2, 4, true),
		mk("hist1", 256, 1, 3, false),
		mk("hist5", 256, 5, 3, false),
		mk("tiny5-hist1", 5, 1, 2, false),
		mk("tiny5-hist5", 5, 5, 2, true),
	}
}

// TestGHBVsRef pins the ring-walked GHB with its fixed index to the
// map-and-modulo reference in both index modes.
func TestGHBVsRef(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode prefetch.GHBIndexMode
	}{{"pc-dc", prefetch.PCDC}, {"g-dc", prefetch.GlobalDC}} {
		for _, c := range ghbConfigs(mode.mode) {
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				for seed := int64(0); seed < baselineSeeds; seed++ {
					driveBaselinePair(t, prefetch.NewGHB(c.real), check.NewRefGHB(c.ref),
						genBaselineEvents(rand.New(rand.NewSource(seed)), baselineEventsPerSeed, 32))
				}
			})
		}
	}
}

// TestGHBLastWindowMatch builds a miss stream whose correlation key
// recurs only in the last window a history walk can reach, so the
// early-exit walk must run to its bound to find it, and the same
// stream one entry longer, whose recurrence lies just past the bound
// and must not be found. The production GHB and the reference must
// agree on every access, and the final access must prefetch exactly
// when the recurrence is within reach.
func TestGHBLastWindowMatch(t *testing.T) {
	const hist, degree = 3, 3
	walk := 8 * (hist + degree) // the walk bound of a 256-entry buffer
	for _, mode := range []prefetch.GHBIndexMode{prefetch.PCDC, prefetch.GlobalDC} {
		for _, extra := range []int{0, 1} {
			// deltas[i] is the i-th newest delta of the final walk. The
			// key (5, 7) recurs at window walk-3+extra, the last window
			// of the walk when extra is 0; every other delta is unique.
			n := walk - 1 + extra
			deltas := make([]int64, n)
			for i := range deltas {
				deltas[i] = int64(100 + i)
			}
			deltas[0], deltas[1] = 5, 7
			deltas[n-2], deltas[n-1] = 5, 7
			line := mem.LineAddr(1 << 20)
			events := []baselineEvent{{a: prefetch.Access{PC: 0x400100, Line: line, Addr: line.Byte()}}}
			for i := n - 1; i >= 0; i-- {
				line = line.Add(deltas[i])
				events = append(events, baselineEvent{a: prefetch.Access{PC: 0x400100, Line: line, Addr: line.Byte()}})
			}
			cfg := prefetch.GHBConfig{Mode: mode, BufferEntries: 256, HistoryLength: hist, Degree: degree}
			ref := check.RefGHBConfig{PCDC: mode == prefetch.PCDC, BufferEntries: 256, HistoryLength: hist, Degree: degree}
			driveBaselinePair(t, prefetch.NewGHB(cfg), check.NewRefGHB(ref), events)

			g := prefetch.NewGHB(cfg)
			var issued []mem.LineAddr
			for i, ev := range events {
				if i == len(events)-1 {
					issued = issued[:0]
				}
				g.OnAccess(ev.a, func(l mem.LineAddr) { issued = append(issued, l) })
			}
			// A match at window n-2 replays deltas n-3 down to 0.
			var want []mem.LineAddr
			if extra == 0 {
				want = []mem.LineAddr{line.Add(deltas[n-3]), line.Add(deltas[n-3] + deltas[n-4]),
					line.Add(deltas[n-3] + deltas[n-4] + deltas[n-5])}
			}
			if !slices.Equal(issued, want) {
				t.Errorf("%v, recurrence %d entries past the bound: final access issued %v, want %v",
					mode, extra, issued, want)
			}
		}
	}
}

// smsConfigs returns matched production/reference SMS parameter sets:
// Table II, 4-entry AGT and filter with an 8-entry PHT (constant
// eviction in all three tables), the same over 512-byte and 256-byte
// regions (the latter four lines, so generations end and replay
// often), and 8KB regions whose 128 lines overflow the 64-bit pattern.
func smsConfigs() []struct {
	name string
	real prefetch.SMSConfig
	ref  check.RefSMSConfig
} {
	type cfg = struct {
		name string
		real prefetch.SMSConfig
		ref  check.RefSMSConfig
	}
	mk := func(name string, agt, filter, pht int, region uint64) cfg {
		return cfg{
			name: name,
			real: prefetch.SMSConfig{AGTEntries: agt, FilterEntries: filter, PHTEntries: pht, RegionBytes: region, OffsetBits: 5},
			ref:  check.RefSMSConfig{AGTEntries: agt, FilterEntries: filter, PHTEntries: pht, RegionBytes: region, OffsetBits: 5},
		}
	}
	return []cfg{
		mk("default", 32, 32, 512, 2048),
		mk("tiny", 4, 4, 8, 2048),
		mk("tiny-512B", 4, 4, 8, 512),
		mk("tiny-256B", 4, 4, 8, 256),
		mk("wide-8KB", 8, 8, 16, 8192),
	}
}

// TestSMSVsRef pins the fixed-array SMS tables to the map-based
// reference, including evictions fired from inside the issue loop.
func TestSMSVsRef(t *testing.T) {
	for _, c := range smsConfigs() {
		t.Run(c.name, func(t *testing.T) {
			lines := int(c.real.RegionBytes / mem.LineSize)
			for seed := int64(0); seed < baselineSeeds; seed++ {
				driveBaselinePair(t, prefetch.NewSMS(c.real), check.NewRefSMS(c.ref),
					genBaselineEvents(rand.New(rand.NewSource(seed)), baselineEventsPerSeed, lines))
			}
		})
	}
}
