package sim

import (
	"testing"

	"cbws/internal/cache"
	"cbws/internal/core"
	"cbws/internal/engine"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/stats"
	"cbws/internal/trace"
)

// genFunc adapts a test body that emits events one at a time to
// trace.Generator; events emitted after the sink stops are dropped.
type genFunc struct {
	name string
	body func(emit func(trace.Event) bool)
}

func (g genFunc) Name() string { return g.name }

func (g genFunc) GenerateBatches(sink trace.BatchSink) {
	b := trace.NewBatcher(sink)
	g.body(b.Event)
	b.Flush()
}

// stridedLoop is a synthetic generator: an annotated loop whose
// iteration touches `lanes` lines spaced `gap` lines apart, advancing by
// `stride` lines per iteration, with `compute` filler instructions.
func stridedLoop(iters, lanes, gap int, stride int64, compute int) trace.Generator {
	return genFunc{name: "strided", body: func(emit func(trace.Event) bool) {
		base := mem.LineAddr(1 << 24)
		for n := 0; n < iters; n++ {
			emit(trace.Event{Kind: trace.BlockBegin, Block: 0})
			cur := base.Add(stride * int64(n))
			for l := 0; l < lanes; l++ {
				emit(trace.Event{
					Kind: trace.Load,
					PC:   uint64(0x1000 + 4*l),
					Addr: cur.Add(int64(l * gap)).Byte(),
				})
			}
			emit(trace.Event{Kind: trace.Instr, N: compute})
			emit(trace.Event{Kind: trace.BlockEnd, Block: 0})
		}
	}}
}

func TestRunBasicAccounting(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, stridedLoop(1000, 4, 100, 17, 10), prefetch.NewNone())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Metrics
	if res.Workload != "strided" || res.Prefetcher != "none" {
		t.Errorf("names: %s/%s", res.Workload, res.Prefetcher)
	}
	// 1000 iterations × (4 loads + 10 instrs + 2 markers).
	if m.Instructions != 1000*16 {
		t.Errorf("instructions = %d", m.Instructions)
	}
	if m.Loads != 4000 || m.Blocks != 1000 {
		t.Errorf("loads=%d blocks=%d", m.Loads, m.Blocks)
	}
	if m.Cycles == 0 || m.IPC() <= 0 {
		t.Error("no cycles simulated")
	}
	if m.LoopFrac < 0.9 {
		t.Errorf("loop frac = %v", m.LoopFrac)
	}
	// Every line is fresh: all demand accesses miss.
	if m.DemandL2Misses == 0 || m.BytesFromMem == 0 {
		t.Error("no misses recorded for a streaming loop")
	}
}

func TestMaxInstructionsTruncates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 500
	res, err := Run(cfg, stridedLoop(100000, 4, 100, 17, 10), prefetch.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Instructions > 520 {
		t.Errorf("instructions = %d, want <= ~500", res.Metrics.Instructions)
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 10_000
	cfg.WarmupInstructions = 5_000
	res, err := Run(cfg, stridedLoop(100000, 4, 100, 17, 10), prefetch.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Instructions < 4_000 || m.Instructions > 6_000 {
		t.Errorf("measured instructions = %d, want ~5000", m.Instructions)
	}
	// Full-window run for comparison.
	cfg.WarmupInstructions = 0
	full, _ := Run(cfg, stridedLoop(100000, 4, 100, 17, 10), prefetch.NewNone())
	if m.Cycles >= full.Metrics.Cycles {
		t.Errorf("warmup cycles not subtracted: %d >= %d", m.Cycles, full.Metrics.Cycles)
	}
}

func TestCBWSBeatsNoneOnStridedLoop(t *testing.T) {
	cfg := DefaultConfig()
	gen := func() trace.Generator { return stridedLoop(20000, 8, 100, 23, 10) }
	none, err := Run(cfg, gen(), prefetch.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	cbws, err := Run(cfg, gen(), core.New(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if cbws.Metrics.IPC() <= none.Metrics.IPC()*1.2 {
		t.Errorf("CBWS IPC %.3f vs none %.3f: expected a clear win on a constant-stride loop",
			cbws.Metrics.IPC(), none.Metrics.IPC())
	}
	if cbws.Metrics.MPKI() >= none.Metrics.MPKI() {
		t.Errorf("CBWS MPKI %.2f vs none %.2f", cbws.Metrics.MPKI(), none.Metrics.MPKI())
	}
	if cbws.Metrics.Timely == 0 && cbws.Metrics.ShorterWT == 0 {
		t.Error("no covered accesses recorded")
	}
}

func TestSMSEvictionWiring(t *testing.T) {
	// SMS ends generations on L1 evictions; run a region-friendly
	// workload and verify SMS actually issues prefetches (it cannot
	// without generation ends).
	gen := genFunc{name: "regions", body: func(emit func(trace.Event) bool) {
		// Touch many sequential 2KB regions fully, one after another.
		for r := 0; r < 3000; r++ {
			base := mem.Addr(1<<28 + r*2048)
			for off := 0; off < 2048; off += 64 {
				emit(trace.Event{Kind: trace.Load, PC: 0x2000, Addr: base + mem.Addr(off)})
				emit(trace.Event{Kind: trace.Instr, N: 3})
			}
		}
	}}
	res, err := Run(DefaultConfig(), gen, prefetch.NewSMS(prefetch.SMSConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PrefetchIssued == 0 {
		t.Error("SMS issued nothing: eviction wiring broken")
	}
	if res.Metrics.Timely == 0 {
		t.Error("SMS produced no timely prefetches on sequential regions")
	}
}

func TestCompositeMatchesAtLeastSMS(t *testing.T) {
	// On a region-friendly pattern the hybrid must not lose to SMS.
	gen := func() trace.Generator { return stridedLoop(20000, 2, 1, 2, 30) }
	sms, err := Run(DefaultConfig(), gen(), prefetch.NewSMS(prefetch.SMSConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(DefaultConfig(), gen(),
		core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	if comp.Metrics.IPC() < sms.Metrics.IPC()*0.95 {
		t.Errorf("composite IPC %.3f well below SMS %.3f", comp.Metrics.IPC(), sms.Metrics.IPC())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.L1.Ways = 0
	if _, err := Run(cfg, stridedLoop(10, 1, 1, 1, 1), prefetch.NewNone()); err == nil {
		t.Error("expected config error")
	}
	cfg = DefaultConfig()
	cfg.Core.Width = 0
	if _, err := Run(cfg, stridedLoop(10, 1, 1, 1, 1), prefetch.NewNone()); err == nil {
		t.Error("expected core config error")
	}
}

func TestDefaultConfigIsTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Core != engine.DefaultConfig() {
		t.Error("core config drifted from Table II")
	}
	if cfg.Memory != cache.DefaultHierarchyConfig() {
		t.Error("memory config drifted from Table II")
	}
}

func TestPrefetcherResetBetweenRuns(t *testing.T) {
	pf := core.New(core.Config{})
	cfg := DefaultConfig()
	if _, err := Run(cfg, stridedLoop(5000, 4, 100, 17, 5), pf); err != nil {
		t.Fatal(err)
	}
	blocksAfterFirst := pf.Stats.Blocks
	if _, err := Run(cfg, stridedLoop(5000, 4, 100, 17, 5), pf); err != nil {
		t.Fatal(err)
	}
	if pf.Stats.Blocks != blocksAfterFirst {
		t.Errorf("stats accumulated across runs: %d vs %d", pf.Stats.Blocks, blocksAfterFirst)
	}
}

func TestRunDeterministic(t *testing.T) {
	// Two identical runs (fresh generators, fresh prefetchers) must
	// produce bit-identical metrics — the property that makes every
	// figure reproducible.
	cfg := DefaultConfig()
	cfg.MaxInstructions = 100_000
	run := func() stats.Metrics {
		res, err := Run(cfg, stridedLoop(50_000, 4, 100, 17, 10),
			core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{})))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a := run()
	b := run()
	if a != b {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestIdealBranchPrediction(t *testing.T) {
	// A divergent-branch trace under the ideal front end must be at
	// least as fast as under the tournament predictor.
	gen := func() trace.Generator {
		return genFunc{name: "branchy", body: func(emit func(trace.Event) bool) {
			rng := uint64(7)
			for i := 0; i < 30_000; i++ {
				emit(trace.Event{Kind: trace.Instr, N: 5})
				rng ^= rng << 13
				rng ^= rng >> 7
				emit(trace.Event{Kind: trace.Branch, PC: 0x40, Taken: rng&1 == 0})
			}
		}}
	}
	cfg := DefaultConfig()
	real, err := Run(cfg, gen(), prefetch.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	cfg.IdealBranchPrediction = true
	ideal, err := Run(cfg, gen(), prefetch.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	if real.Metrics.Mispredicts == 0 {
		t.Error("tournament predictor never mispredicted a random branch")
	}
	if ideal.Metrics.Mispredicts != 0 {
		t.Error("ideal front end mispredicted")
	}
	if ideal.Metrics.IPC() <= real.Metrics.IPC() {
		t.Errorf("ideal IPC %.3f not above real %.3f", ideal.Metrics.IPC(), real.Metrics.IPC())
	}
}
