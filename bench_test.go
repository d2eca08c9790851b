// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment) plus ablations of the CBWS design parameters that
// DESIGN.md calls out. Figure benchmarks run a reduced instruction
// window per iteration so the full suite stays fast; cmd/figures is the
// full-scale generator. Custom metrics surface the experiment's headline
// number (speedup, MPKI, coverage) alongside the usual ns/op.
package cbws_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cbws"
	"cbws/internal/cache"
	"cbws/internal/core"
	"cbws/internal/harness"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/prefetch/learned"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// benchOptions returns a reduced-scale harness configuration.
func benchOptions() harness.Options {
	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions = 400_000
	opts.Sim.WarmupInstructions = 150_000
	opts.Parallel = runtime.GOMAXPROCS(0)
	return opts
}

// benchSpecs is a representative MI subset used by the per-figure
// benchmarks (one CBWS-friendly, one SMS-friendly, one divergent, one
// streaming benchmark).
func benchSpecs(b *testing.B) []workload.Spec {
	b.Helper()
	var out []workload.Spec
	for _, n := range []string{"stencil-default", "histo-large", "450.soplex-ref", "462.libquantum-ref"} {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatalf("workload %s missing", n)
		}
		out = append(out, s)
	}
	return out
}

// BenchmarkFigure1LoopResidency regenerates the loop-residency fractions
// of Figure 1 over the benchmark subset.
func BenchmarkFigure1LoopResidency(b *testing.B) {
	noPf, _ := harness.FactoryByName("none")
	for i := 0; i < b.N; i++ {
		m := harness.NewMatrix(benchOptions())
		var fracs []float64
		for _, spec := range benchSpecs(b) {
			r, err := m.Get(spec, noPf)
			if err != nil {
				b.Fatal(err)
			}
			fracs = append(fracs, r.Metrics.LoopFrac)
		}
		b.ReportMetric(100*stats.Mean(fracs), "loop%")
	}
}

// BenchmarkFigure5Skew regenerates the differential-distribution census
// of Figure 5 for the paper's six workloads.
func BenchmarkFigure5Skew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cov []float64
		for _, name := range harness.Figure5Workloads {
			spec, _ := workload.ByName(name)
			c := core.NewCensus(16)
			trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: 300_000}, c)
			cov = append(cov, c.CoverageAt(0.25))
		}
		b.ReportMetric(100*stats.Mean(cov), "top25%cov")
	}
}

// BenchmarkFigure12MPKI regenerates the MPKI comparison of Figure 12
// over the subset × all seven schemes, reporting one headline metric
// per scheme keyed by its registry name.
func BenchmarkFigure12MPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := harness.NewMatrix(benchOptions())
		mpki := make(map[string][]float64)
		for _, spec := range benchSpecs(b) {
			for _, f := range harness.Prefetchers() {
				r, err := m.Get(spec, f)
				if err != nil {
					b.Fatal(err)
				}
				mpki[f.Name] = append(mpki[f.Name], r.Metrics.MPKI())
			}
		}
		for _, f := range harness.Prefetchers() {
			b.ReportMetric(stats.Mean(mpki[f.Name]), "mpki-"+f.Name)
		}
	}
}

// BenchmarkFigure13Timeliness regenerates the timeliness/accuracy
// classification of Figure 13 for the CBWS+SMS scheme.
func BenchmarkFigure13Timeliness(b *testing.B) {
	f, _ := harness.FactoryByName("cbws+sms")
	for i := 0; i < b.N; i++ {
		m := harness.NewMatrix(benchOptions())
		var timely, wrong []float64
		for _, spec := range benchSpecs(b) {
			r, err := m.Get(spec, f)
			if err != nil {
				b.Fatal(err)
			}
			timely = append(timely, r.Metrics.TimelyFrac())
			wrong = append(wrong, r.Metrics.WrongFrac())
		}
		b.ReportMetric(100*stats.Mean(timely), "timely%")
		b.ReportMetric(100*stats.Mean(wrong), "wrong%")
	}
}

// BenchmarkFigure14Speedup regenerates the headline IPC comparison of
// Figure 14: CBWS+SMS speedup over SMS.
func BenchmarkFigure14Speedup(b *testing.B) {
	smsF, _ := harness.FactoryByName("sms")
	hybridF, _ := harness.FactoryByName("cbws+sms")
	for i := 0; i < b.N; i++ {
		m := harness.NewMatrix(benchOptions())
		var speedups []float64
		for _, spec := range benchSpecs(b) {
			base, err := m.Get(spec, smsF)
			if err != nil {
				b.Fatal(err)
			}
			r, err := m.Get(spec, hybridF)
			if err != nil {
				b.Fatal(err)
			}
			speedups = append(speedups, r.Metrics.IPC()/base.Metrics.IPC())
		}
		b.ReportMetric(stats.GeoMean(speedups), "speedup-vs-sms")
	}
}

// BenchmarkFigure15PerfCost regenerates the performance/cost comparison
// of Figure 15: IPC per byte fetched, CBWS+SMS normalized to no-prefetch.
func BenchmarkFigure15PerfCost(b *testing.B) {
	noneF, _ := harness.FactoryByName("none")
	hybridF, _ := harness.FactoryByName("cbws+sms")
	for i := 0; i < b.N; i++ {
		m := harness.NewMatrix(benchOptions())
		var ratios []float64
		for _, spec := range benchSpecs(b) {
			base, err := m.Get(spec, noneF)
			if err != nil {
				b.Fatal(err)
			}
			r, err := m.Get(spec, hybridF)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, r.Metrics.PerfPerByte()/base.Metrics.PerfPerByte())
		}
		b.ReportMetric(stats.GeoMean(ratios), "perfcost-vs-none")
	}
}

// BenchmarkTableIIIStorage recomputes the storage-budget comparison.
func BenchmarkTableIIIStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cbwsBits uint64
		for _, f := range harness.Prefetchers() {
			p := f.New()
			if f.Name == "cbws" {
				cbwsBits = p.StorageBits()
			} else {
				_ = p.StorageBits()
			}
		}
		b.ReportMetric(float64(cbwsBits)/8, "cbws-bytes")
	}
}

// ablationRun simulates stencil with the given CBWS configuration and
// returns IPC (stencil is the paper's motivating, CBWS-friendly
// workload, so parameter effects show directly).
func ablationRun(b *testing.B, mk func() cbws.Prefetcher, cfg sim.Config) float64 {
	b.Helper()
	spec, _ := workload.ByName("stencil-default")
	res, err := sim.Run(cfg, spec.Make(), mk())
	if err != nil {
		b.Fatal(err)
	}
	return res.Metrics.IPC()
}

func ablationConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 400_000
	cfg.WarmupInstructions = 100_000
	return cfg
}

// BenchmarkAblationTableSize sweeps the differential history table size
// (paper: 16 entries).
func BenchmarkAblationTableSize(b *testing.B) {
	for _, entries := range []int{4, 16, 64, 256} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.New(core.Config{TableEntries: entries})
				}, ablationConfig())
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationSteps sweeps the multi-step prediction depth
// (paper: 4).
func BenchmarkAblationSteps(b *testing.B) {
	for _, steps := range []int{1, 2, 4} {
		steps := steps
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.New(core.Config{Steps: steps})
				}, ablationConfig())
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationVectorLen sweeps the CBWS trace limit (paper: 16
// lines, covering >98% of blocks).
func BenchmarkAblationVectorLen(b *testing.B) {
	for _, maxVec := range []int{4, 8, 16, 32} {
		maxVec := maxVec
		b.Run(fmt.Sprintf("lines=%d", maxVec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.New(core.Config{MaxVector: maxVec})
				}, ablationConfig())
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationHashBits sweeps the bit-select hash width
// (paper: 12 bits).
func BenchmarkAblationHashBits(b *testing.B) {
	for _, bits := range []int{6, 12, 16} {
		bits := bits
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.New(core.Config{HashBits: bits})
				}, ablationConfig())
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationIssuePolicy compares the inclusive (default) and
// exclusive CBWS+SMS integration policies.
func BenchmarkAblationIssuePolicy(b *testing.B) {
	policies := map[string]func() cbws.Prefetcher{
		"inclusive": func() cbws.Prefetcher {
			return core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
		},
		"exclusive": func() cbws.Prefetcher {
			return core.NewExclusiveComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
		},
	}
	for name, mk := range policies {
		mk := mk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := ablationRun(b, mk, ablationConfig())
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationMemoryLatency sweeps the memory latency, showing how
// the CBWS lookahead interacts with the latency it must hide.
func BenchmarkAblationMemoryLatency(b *testing.B) {
	for _, lat := range []uint64{150, 300, 600} {
		lat := lat
		b.Run(fmt.Sprintf("latency=%d", lat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Memory.MemoryLatency = lat
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.New(core.Config{})
				}, cfg)
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// Component micro-benchmarks: raw simulation throughput.

// countingBatchSink drains a batch pipeline while only counting events,
// isolating generation + delivery cost from simulation cost.
type countingBatchSink struct{ events uint64 }

func (c *countingBatchSink) ConsumeBatch(batch []trace.Event) bool {
	c.events += uint64(len(batch))
	return true
}

// BenchmarkPipelineEventsPerSec measures the raw trace pipeline — a
// workload generator driven through trace.Limit into a batch sink with
// no timing simulation attached — in millions of events per second.
// This is the path the batched, buffer-reusing redesign targets: the
// per-event cost is a store into a reused buffer rather than an
// interface call and a closure per event.
func BenchmarkPipelineEventsPerSec(b *testing.B) {
	spec, _ := workload.ByName("stencil-default")
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cs countingBatchSink
		trace.Limit{Gen: spec.Make(), Max: 300_000}.GenerateBatches(&cs)
		events += cs.events
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/1e6/s, "Mevents/s")
	}
}

// BenchmarkCorpusReplayEventsPerSec measures replay of a packed CBWC
// corpus — the same stencil stream as BenchmarkPipelineEventsPerSec,
// but decoded from the columnar mmap instead of regenerated — in
// millions of events per second with zero allocations per replay.
func BenchmarkCorpusReplayEventsPerSec(b *testing.B) {
	spec, _ := workload.ByName("stencil-default")
	path := filepath.Join(b.TempDir(), "stencil.cbwc")
	if _, err := corpus.Pack(path, spec.Make(), 300_000, corpus.Options{}); err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Open(path, corpus.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := c.NewReplayer()
	var cs countingBatchSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Replay(&cs); err != nil {
			b.Fatal(err)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(cs.events)/1e6/s, "Mevents/s")
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, pf := range []string{"none", "sms", "cbws+sms"} {
		pf := pf
		b.Run(pf, func(b *testing.B) {
			f, _ := harness.FactoryByName(pf)
			spec, _ := workload.ByName("stencil-default")
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = 300_000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, spec.Make(), f.New()); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(300_000) // "bytes" = simulated instructions
		})
	}
}

// BenchmarkSimulatorThroughputProbed is BenchmarkSimulatorThroughput
// with a time-series probe attached at the default sampling interval —
// the observability acceptance target is that probed runs stay within a
// few percent of the unobserved path, with zero steady-state allocs
// attributable to sampling.
func BenchmarkSimulatorThroughputProbed(b *testing.B) {
	for _, pf := range []string{"none", "cbws+sms"} {
		pf := pf
		b.Run(pf, func(b *testing.B) {
			f, _ := harness.FactoryByName(pf)
			spec, _ := workload.ByName("stencil-default")
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = 300_000
			ts := sim.NewTimeSeries(int(cfg.MaxInstructions/sim.DefaultSampleInterval) + 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.Reset()
				if _, err := sim.RunContext(context.Background(), cfg, spec.Make(), f.New(),
					sim.WithProbe(ts)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(300_000) // "bytes" = simulated instructions
		})
	}
}

func BenchmarkCBWSOnAccess(b *testing.B) {
	p := core.New(core.Config{})
	p.Reset()
	drop := func(l mem.LineAddr) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			p.OnBlockEnd(0, drop)
			p.OnBlockBegin(0)
		}
		l := mem.LineAddr(1<<20 + i*3)
		p.OnAccess(prefetch.Access{Addr: l.Byte(), Line: l}, drop)
	}
}

// BenchmarkPythiaOnAccess measures the Pythia-style agent's steady-
// state hot path (reward-scan filter probe, and the scan when a filter
// bucket is live, + feature hash + argmax + queue insert) on a strided
// miss stream; allocs/op is pinned at 0 by benchgate.
func BenchmarkPythiaOnAccess(b *testing.B) {
	p := learned.NewPythia(learned.PythiaConfig{})
	drop := func(l mem.LineAddr) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := mem.LineAddr(1<<20 + i*3)
		p.OnAccess(prefetch.Access{PC: 0x401000, Addr: l.Byte(), Line: l}, drop)
	}
}

// BenchmarkGazeOnAccess measures the Gaze-style prefetcher's steady-
// state hot path (active-table index lookup + footprint/order update,
// with periodic generation turnover) on a region-local stream;
// allocs/op is pinned at 0 by benchgate.
func BenchmarkGazeOnAccess(b *testing.B) {
	g := learned.NewGaze(learned.GazeConfig{})
	drop := func(l mem.LineAddr) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := mem.LineAddr(uint64(1+i%9) << 6)
		g.OnAccess(prefetch.Access{PC: 0x400500, Addr: base.Byte(), Line: base.Add(int64(i % 13))}, drop)
		if i%17 == 0 {
			g.OnCacheEvict(base)
		}
	}
}

// BenchmarkStrideOnAccess measures the stride table's steady-state hot
// path (PC index lookup, confidence update, degree-deep issue) on
// interleaved strided miss streams of 32 PCs; allocs/op is pinned at 0
// by benchgate.
func BenchmarkStrideOnAccess(b *testing.B) {
	p := prefetch.NewStride(prefetch.StrideConfig{})
	drop := func(l mem.LineAddr) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 32
		l := mem.LineAddr(1<<20 + k<<14 + (i/32)*(k%5+1))
		p.OnAccess(prefetch.Access{PC: 0x400000 + uint64(k)*0x40, Addr: l.Byte(), Line: l}, drop)
	}
}

// BenchmarkGHBOnAccess measures the GHB's steady-state hot path (ring
// push, index update, and the linked history walk that tests each
// delta window as it completes and stops at the first match) in both
// index modes on eight interleaved miss streams with periodic delta
// patterns; allocs/op is pinned at 0 by benchgate.
func BenchmarkGHBOnAccess(b *testing.B) {
	deltas := []int64{1, 3, -2, 5}
	for _, mode := range []struct {
		name string
		mode prefetch.GHBIndexMode
	}{{"pc-dc", prefetch.PCDC}, {"g-dc", prefetch.GlobalDC}} {
		b.Run(mode.name, func(b *testing.B) {
			p := prefetch.NewGHB(prefetch.GHBConfig{Mode: mode.mode})
			drop := func(l mem.LineAddr) {}
			var lines [8]mem.LineAddr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % 8
				lines[k] = lines[k].Add(deltas[(i/8+k)%len(deltas)])
				l := mem.LineAddr(1<<20 + k<<16).Add(int64(lines[k]))
				p.OnAccess(prefetch.Access{PC: 0x400000 + uint64(k)*0x40, Addr: l.Byte(), Line: l}, drop)
			}
		})
	}
}

// BenchmarkSMSOnAccess measures SMS's steady-state hot path (AGT and
// filter index lookups, PHT lookup and footprint issue, generation ends
// on eviction) on a stream that walks a recurring footprint over fresh
// 2KB regions; allocs/op is pinned at 0 by benchgate.
func BenchmarkSMSOnAccess(b *testing.B) {
	p := prefetch.NewSMS(prefetch.SMSConfig{})
	drop := func(l mem.LineAddr) {}
	offs := []int{0, 3, 4, 9, 17, 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := i / len(offs)
		region := mem.LineAddr(1<<20 + gen%4096*32)
		l := region.Add(int64(offs[i%len(offs)]))
		p.OnAccess(prefetch.Access{PC: 0x400000 + uint64(gen%3)*0x40, Addr: l.Byte(), Line: l}, drop)
		if i%len(offs) == len(offs)-1 && gen%2 == 0 {
			p.OnCacheEvict(region) // end every other generation by eviction
		}
	}
}

// BenchmarkHierarchyAccessInto measures one demand access through the
// two-level hierarchy, replaying the recorded load/store stream of a
// pointer-chasing workload (429.mcf), which misses the L1 and L2 far
// more often than the loop kernels; allocs/op is pinned at 0 by
// benchgate.
func BenchmarkHierarchyAccessInto(b *testing.B) {
	spec, ok := workload.ByName("429.mcf-ref")
	if !ok {
		b.Fatal("429.mcf-ref not registered")
	}
	tr := trace.Capture(trace.Limit{Gen: spec.Make(), Max: 1_000_000})
	var stream []trace.Event
	for _, e := range tr.Events {
		if e.Kind == trace.Load || e.Kind == trace.Store {
			stream = append(stream, e)
		}
	}
	h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		b.Fatal(err)
	}
	var info cache.AccessInfo
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &stream[i%len(stream)]
		h.AccessInto(&info, e.PC, e.Addr, e.Kind == trace.Store, now)
		now += 3
	}
}

// toolchainTrace captures the stream the trace-toolchain stage
// benchmarks share: 1M instructions of 429.mcf, a pointer chase whose
// footprint keeps the analyzer's and census's tables growing.
func toolchainTrace(b *testing.B) *trace.Trace {
	b.Helper()
	spec, ok := workload.ByName("429.mcf-ref")
	if !ok {
		b.Fatal("429.mcf-ref not registered")
	}
	return trace.Capture(trace.Limit{Gen: spec.Make(), Max: 1_000_000})
}

// Package-level sinks keep the toolchain benchmarks' results live.
var (
	summarySink *trace.Summary
	censusSink  *core.Census
)

// reportEventRate reports the events a toolchain stage benchmark
// processed per second of its timed region.
func reportEventRate(b *testing.B, events int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/1e6/s, "Mevents/s")
	}
}

// BenchmarkTraceCapture encodes toolchainTrace as a CBWT stream into
// io.Discard: the encode stage of trace capture, header and terminator
// included.
func BenchmarkTraceCapture(b *testing.B) {
	tr := toolchainTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(io.Discard, tr.Name())
		if err != nil {
			b.Fatal(err)
		}
		w.ConsumeBatch(tr.Events)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, len(tr.Events))
}

// decodeWindow is the window BenchmarkTraceDecode feeds its decoder.
const decodeWindow = 64 << 10

// BenchmarkTraceDecode decodes toolchainTrace's CBWT stream with a
// ChunkDecoder fed 64 KiB windows, the way cbwsd ingests a stream.
func BenchmarkTraceDecode(b *testing.B) {
	tr := toolchainTrace(b)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Name())
	if err != nil {
		b.Fatal(err)
	}
	w.ConsumeBatch(tr.Events)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cs countingBatchSink
		var d trace.ChunkDecoder
		for off := 0; off < len(data); off += decodeWindow {
			if err := d.Feed(data[off:min(off+decodeWindow, len(data))], &cs); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
		if cs.events != uint64(len(tr.Events)) {
			b.Fatalf("decoded %d events, captured %d", cs.events, len(tr.Events))
		}
	}
	reportEventRate(b, len(tr.Events))
}

// BenchmarkCorpusPack packs toolchainTrace into a CBWC corpus written
// to io.Discard: column encoding, block writes and the content hash.
func BenchmarkCorpusPack(b *testing.B) {
	tr := toolchainTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := corpus.NewWriter(io.Discard, tr.Name(), corpus.Options{})
		if err != nil {
			b.Fatal(err)
		}
		w.ConsumeBatch(tr.Events)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, len(tr.Events))
}

// BenchmarkTraceAnalyze summarizes toolchainTrace with trace.Analyze,
// the characterization behind tracegen -stats.
func BenchmarkTraceAnalyze(b *testing.B) {
	tr := toolchainTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarySink = trace.Analyze(tr, 0)
	}
	reportEventRate(b, len(tr.Events))
}

// BenchmarkCensus runs toolchainTrace through a Figure 5 census.
func BenchmarkCensus(b *testing.B) {
	tr := toolchainTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		censusSink = core.NewCensus(0)
		censusSink.ConsumeBatch(tr.Events)
	}
	reportEventRate(b, len(tr.Events))
}

// goldenCellWorkload is the workload of BenchmarkGoldenCell: a
// stencil sweep, the paper's motivating loop kernel, whose misses
// exercise every scheme's training and issue paths.
const goldenCellWorkload = "stencil-default"

// BenchmarkGoldenCell simulates one golden-manifest cell per
// golden-roster scheme: goldenCellWorkload at the configuration
// golden/seed.json pins (400k instructions, 100k warmup), through the
// workload generator, engine, cache hierarchy and prefetcher, as one
// cell of a golden fill runs. The last run's metrics hash must match
// the manifest's, so the benchmark times the pinned behaviour and
// nothing else. allocs/op is pinned exactly by benchgate.
func BenchmarkGoldenCell(b *testing.B) {
	seed, err := harness.ReadGolden(filepath.Join("golden", "seed.json"))
	if err != nil {
		b.Fatal(err)
	}
	spec, ok := workload.ByName(goldenCellWorkload)
	if !ok {
		b.Fatalf("%s not registered", goldenCellWorkload)
	}
	cfg := harness.DefaultOptions().Sim
	cfg.MaxInstructions = seed.Instructions
	cfg.WarmupInstructions = seed.Warmup
	for _, f := range harness.GoldenPrefetchers() {
		want := ""
		for _, c := range seed.Cells {
			if c.Workload == spec.Name && c.Prefetcher == f.Name {
				want = c.Hash
			}
		}
		if want == "" {
			b.Fatalf("golden/seed.json has no %s/%s cell", spec.Name, f.Name)
		}
		b.Run(strings.ReplaceAll(f.Name, "/", "-"), func(b *testing.B) {
			b.ReportAllocs()
			var res sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = sim.Run(cfg, spec.Make(), f.New()); err != nil {
					b.Fatal(err)
				}
			}
			// Hashing allocates through encoding/json's pools, so it
			// stays out of the timed, alloc-counted region.
			b.StopTimer()
			if got := harness.CellHash(res); got != want {
				b.Fatalf("%s/%s: cell hash %s, golden %s", spec.Name, f.Name, got, want)
			}
		})
	}
}

// BenchmarkAblationPrefetchQueue compares direct prefetch issue with a
// bounded hardware prefetch queue at several depths.
func BenchmarkAblationPrefetchQueue(b *testing.B) {
	for _, depth := range []int{0, 8, 32} {
		depth := depth
		name := fmt.Sprintf("depth=%d", depth)
		if depth == 0 {
			name = "direct"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Memory.PrefetchQueueDepth = depth
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
				}, cfg)
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationBranchPrediction compares the tournament predictor
// against an ideal front end.
func BenchmarkAblationBranchPrediction(b *testing.B) {
	for _, ideal := range []bool{false, true} {
		ideal := ideal
		name := "tournament"
		if ideal {
			name = "ideal"
		}
		b.Run(name, func(b *testing.B) {
			spec, _ := workload.ByName("450.soplex-ref")
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.IdealBranchPrediction = ideal
				pf, err := cbws.NewPrefetcher("cbws+sms")
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(cfg, spec.Make(), pf)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Metrics.IPC(), "ipc")
				b.ReportMetric(100*res.Metrics.MispredictRate(), "mispredict%")
			}
		})
	}
}

// BenchmarkExtensionAMPM runs the AMPM extension baseline on stencil,
// illustrating the zone-size limitation the paper's related-work section
// describes (the plane-sized strides escape AMPM's access maps).
func BenchmarkExtensionAMPM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ipc := ablationRun(b, func() cbws.Prefetcher {
			return prefetch.NewAMPM(prefetch.AMPMConfig{})
		}, ablationConfig())
		b.ReportMetric(ipc, "ipc")
	}
}

// BenchmarkAblationMemoryBandwidth compares the flat-latency memory of
// Table II against a bandwidth-limited model where prefetch traffic
// contends with demand fills — the contention that makes wrong
// prefetches expensive (the concern behind Figure 15).
func BenchmarkAblationMemoryBandwidth(b *testing.B) {
	for _, channels := range []int{0, 4, 16} {
		channels := channels
		name := fmt.Sprintf("channels=%d", channels)
		if channels == 0 {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Memory.MemoryChannels = channels
				ipc := ablationRun(b, func() cbws.Prefetcher {
					return core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
				}, cfg)
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkExtensionMarkov runs the Markov pair-correlation extension
// baseline on mcf (pointer-heavy, the pattern class it targets).
func BenchmarkExtensionMarkov(b *testing.B) {
	spec, _ := workload.ByName("429.mcf-ref")
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		res, err := sim.Run(cfg, spec.Make(), prefetch.NewMarkov(prefetch.MarkovConfig{}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.IPC(), "ipc")
	}
}
