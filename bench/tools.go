package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"cbws/internal/core"
	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// toolRef is what the live generator says about one workload: the
// Figure-5 census and the trace summary every replay must reproduce.
type toolRef struct {
	census  censusView
	summary summaryView
}

type censusView struct {
	iterations uint64
	distinct   int
	coverage   []core.CoveragePoint
}

func viewCensus(c *core.Census) censusView {
	return censusView{iterations: c.Iterations(), distinct: c.DistinctVectors(), coverage: c.Coverage()}
}

// summaryView is a trace.Summary without the stride identities:
// Analyze ranks strides by count with ties in map order, so only the
// ranked counts are deterministic.
type summaryView struct {
	s      trace.Summary
	counts []uint64
}

func viewSummary(s *trace.Summary) summaryView {
	v := summaryView{s: *s}
	for _, sc := range s.TopStrides {
		v.counts = append(v.counts, sc.Count)
	}
	v.s.TopStrides = nil
	return v
}

// toolRefs computes the live-generator references for every workload.
func (b *bench) toolRefs() []toolRef {
	specs := b.scale.specs
	refs := make([]toolRef, len(specs))
	max := b.scale.toolInstr
	b.parallel(len(specs), func(i int) {
		c := core.NewCensus(0)
		trace.DriveBatches(trace.Limit{Gen: specs[i].Make(), Max: max}, c)
		refs[i] = toolRef{census: viewCensus(c), summary: viewSummary(trace.Analyze(specs[i].Make(), max))}
	})
	return refs
}

// toolPass runs the corpus-building and characterization toolchain on
// every workload, nproc at a time, and returns the per-workload times
// and each workload's step times.
func (b *bench) toolPass(refs []toolRef) (time.Duration, []time.Duration, []map[string]time.Duration) {
	specs := b.scale.specs
	lat := make([]time.Duration, len(specs))
	steps := make([]map[string]time.Duration, len(specs))
	wall := timed(func() {
		b.parallel(len(specs), func(i int) {
			steps[i] = make(map[string]time.Duration)
			lat[i] = timed(func() { b.toolchain(specs[i], &refs[i], steps[i]) })
		})
	})
	return wall, lat, steps
}

// toolchain takes one workload through capture, pack, conversion,
// chunked decode and the two corpus-replay analyses, checking that
// every path agrees with the live generator, and records each step's
// time in steps.
func (b *bench) toolchain(spec workload.Spec, ref *toolRef, steps map[string]time.Duration) {
	max := b.scale.toolInstr
	dir, err := os.MkdirTemp(b.work, "tools-")
	if !b.checkErr(err, "scratch dir") {
		return
	}
	defer os.RemoveAll(dir)
	id := spec.Name
	root := b.tr.begin("tools.workload", id, -1)
	defer b.tr.end(root)
	step := func(name string, fn func() error) bool {
		s := b.tr.begin(name, id, root)
		var err error
		steps[name] = timed(func() { err = fn() })
		b.tr.end(s)
		return b.checkErr(err, id+": "+name)
	}

	var cbwt bytes.Buffer
	if !step("trace.capture", func() error {
		w, err := trace.NewWriter(&cbwt, spec.Name)
		if err != nil {
			return err
		}
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: max}, w)
		return w.Close()
	}) {
		return
	}
	live, conv := filepath.Join(dir, "live.cbwc"), filepath.Join(dir, "conv.cbwc")
	var packed corpus.PackResult
	if !step("corpus.pack", func() (err error) {
		packed, err = corpus.Pack(live, spec.Make(), max, corpus.Options{})
		return err
	}) {
		return
	}
	step("corpus.convert", func() error {
		r, err := trace.NewReader(bytes.NewReader(cbwt.Bytes()))
		if err != nil {
			return err
		}
		got, err := corpus.Pack(conv, r, 0, corpus.Options{})
		if err != nil {
			return err
		}
		if got.Hash != packed.Hash {
			return fmt.Errorf("CBWT conversion %.12s differs from direct pack %.12s", got.Hash, packed.Hash)
		}
		return nil
	})
	step("trace.chunk_decode", func() error {
		var d trace.ChunkDecoder
		var cs countSink
		data := cbwt.Bytes()
		for off := 0; off < len(data); off += b.scale.chunkBytes {
			if err := d.Feed(data[off:min(off+b.scale.chunkBytes, len(data))], &cs); err != nil {
				return err
			}
		}
		if err := d.Finish(); err != nil {
			return err
		}
		if cs.events != packed.Events || cs.instr != packed.Instructions {
			return fmt.Errorf("chunk decode gave %d events/%d instructions, pack %d/%d",
				cs.events, cs.instr, packed.Events, packed.Instructions)
		}
		return nil
	})
	var c *corpus.Corpus
	if !step("corpus.open", func() (err error) {
		c, err = corpus.Open(live, corpus.OpenOptions{})
		return err
	}) {
		return
	}
	defer c.Close()
	step("core.census", func() error {
		cen := core.NewCensus(0)
		if err := c.NewReplayer().Replay(cen); err != nil {
			return err
		}
		if !reflect.DeepEqual(viewCensus(cen), ref.census) {
			return fmt.Errorf("census over the corpus differs from the live generator's")
		}
		return nil
	})
	step("trace.analyze", func() error {
		if !reflect.DeepEqual(viewSummary(trace.Analyze(c.NewReplayer(), 0)), ref.summary) {
			return fmt.Errorf("summary over the corpus differs from the live generator's")
		}
		return nil
	})
}

// runTraceTools is the corpus-building and characterization path. A
// round's set-up computes the live-generator references, and its unit is
// one pass over every workload. An operation is one workload through the
// whole toolchain, and a part one step of it.
func runTraceTools(b *bench) error {
	var refs []toolRef
	e := newE2E()
	e.ops = len(b.scale.specs)
	start, pid := time.Now(), os.Getpid()
	for rep := 0; b.repsDue(rep, start); rep++ {
		e.setup = append(e.setup, timed(func() { refs = b.toolRefs() }).Seconds())
		resetPeak(pid)
		cpu := selfCPU()
		wall, lat, steps := b.toolPass(refs)
		e.unit(lat, wall, selfCPU()-cpu, peakMB(pid))
		for i, s := range b.scale.specs {
			for name, d := range steps[i] {
				e.part(s.Name+"/"+name, d)
			}
		}
	}
	b.reportE2E(e)
	if b.tr == nil {
		return nil
	}

	mem, cpu := readMem(), selfCPU()
	wall, lat, _ := b.toolPass(refs)
	b.reportRuntime(selfCPU()-cpu, wall, mem.since(), len(lat))
	b.reportOverhead(e.rate, float64(len(lat))/wall.Seconds())
	b.sampleLedgers()
	return b.serviceProbe()
}

// sampleLedgers gives the traced runs of workloads other than
// matrix-live the simulation ledger, over a traced fill of a seeded
// sample of workloads under every scheme, and the toolchain ledger.
func (b *bench) sampleLedgers() {
	sample := permute(b, b.scale.specs)[:b.scale.sampleSpecs]
	b.reportFill(b.fill(sample, b.scale.factories))
	b.simLedger(sample)
	b.toolLedger()
}

// toolLedger times each toolchain layer alone, on events already in
// memory, over every workload.
func (b *bench) toolLedger() {
	type cost struct {
		events, cbwtBytes, cbwcBytes                         uint64
		encode, decode, chunk, pack, replay, census, analyze time.Duration
	}
	specs := b.scale.specs
	costs := make([]cost, len(specs))
	max := b.scale.toolInstr
	b.parallel(len(specs), func(i int) {
		spec := specs[i]
		c := &costs[i]
		dir, err := os.MkdirTemp(b.work, "ledger-")
		if !b.checkErr(err, "scratch dir") {
			return
		}
		defer os.RemoveAll(dir)
		step := func(name string, d *time.Duration, fn func() error) bool {
			s := b.tr.begin(name, spec.Name, -1)
			var err error
			*d = timed(func() { err = fn() })
			b.tr.end(s)
			return b.checkErr(err, spec.Name+": "+name)
		}
		events := trace.New(spec.Name)
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: max}, events)
		c.events = uint64(len(events.Events))
		var buf bytes.Buffer
		step("trace.encode", &c.encode, func() error {
			w, err := trace.NewWriter(&buf, spec.Name)
			if err != nil {
				return err
			}
			w.ConsumeBatch(events.Events)
			return w.Close()
		})
		c.cbwtBytes = uint64(buf.Len())
		want := func(cs countSink) error {
			if cs.events != c.events {
				return fmt.Errorf("decoded %d events, want %d", cs.events, c.events)
			}
			return nil
		}
		step("trace.decode", &c.decode, func() error {
			r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			var cs countSink
			if err := r.DecodeBatches(&cs); err != nil {
				return err
			}
			return want(cs)
		})
		step("trace.chunk_decode", &c.chunk, func() error {
			var d trace.ChunkDecoder
			var cs countSink
			data := buf.Bytes()
			for off := 0; off < len(data); off += b.scale.chunkBytes {
				if err := d.Feed(data[off:min(off+b.scale.chunkBytes, len(data))], &cs); err != nil {
					return err
				}
			}
			if err := d.Finish(); err != nil {
				return err
			}
			return want(cs)
		})
		path := filepath.Join(dir, "ledger.cbwc")
		step("corpus.pack", &c.pack, func() error {
			res, err := corpus.Pack(path, events, 0, corpus.Options{})
			c.cbwcBytes = uint64(res.Bytes)
			return err
		})
		step("corpus.replay", &c.replay, func() error {
			cp, err := corpus.Open(path, corpus.OpenOptions{})
			if err != nil {
				return err
			}
			defer cp.Close()
			var cs countSink
			if err := cp.NewReplayer().Replay(&cs); err != nil {
				return err
			}
			return want(cs)
		})
		step("core.census", &c.census, func() error {
			core.NewCensus(0).ConsumeBatch(events.Events)
			return nil
		})
		step("trace.analyze", &c.analyze, func() error {
			trace.Analyze(events, 0)
			return nil
		})
	})
	var t cost
	for _, c := range costs {
		t.events += c.events
		t.cbwtBytes += c.cbwtBytes
		t.cbwcBytes += c.cbwcBytes
		t.encode += c.encode
		t.decode += c.decode
		t.chunk += c.chunk
		t.pack += c.pack
		t.replay += c.replay
		t.census += c.census
		t.analyze += c.analyze
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(t.events) }
	b.set("trace.encode_ns_per_event", "ns", per(t.encode))
	b.set("trace.decode_ns_per_event", "ns", per(t.decode))
	b.set("trace.chunk_decode_ns_per_event", "ns", per(t.chunk))
	b.set("trace.analyze_ns_per_event", "ns", per(t.analyze))
	b.set("trace.cbwt_bytes_per_event", "B", float64(t.cbwtBytes)/float64(t.events))
	b.set("corpus.pack_ns_per_event", "ns", per(t.pack))
	b.set("corpus.replay_ns_per_event", "ns", per(t.replay))
	b.set("corpus.bytes_per_event", "B", float64(t.cbwcBytes)/float64(t.events))
	b.set("core.census_ns_per_event", "ns", per(t.census))
}
