package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cbws/internal/branch"
	"cbws/internal/cache"
	"cbws/internal/engine"
	"cbws/internal/harness"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// The simulation ledger decomposes a cell into the self times of its
// layers without touching the simulator's code. The benchmark carries
// its own copy of sim's ~30-line port glue (recorder), runs each cell
// through it while logging every call that crosses a layer boundary,
// and then replays each layer alone on its logged inputs, feeding it
// the logged responses of its neighbours:
//
//   - workload: the generator drives a counting sink;
//   - engine: the logged events, with a MemPort and branch predictor
//     that answer from the log;
//   - branch: the logged (pc, outcome) updates;
//   - cache: the logged demand accesses, prefetches and queue drains;
//   - prefetch: the logged OnAccess, block and eviction calls, with the
//     issue callback delivering the evictions it caused.
//
// Every replay must reproduce its logged outputs, and the glue must
// reproduce sim.RunContext bit for bit; a divergence is a failed check.
// The residue, 1 − Σ layer self time ÷ cell time, is what the layers
// alone do not explain: glue, dispatch, and the cache pressure of
// running all layers interleaved.

type memCall struct {
	pc, now, ready uint64
	addr           mem.Addr
	write          bool
}

const (
	cacheAccess = iota
	cacheDrain
	cachePrefetch
)

type cacheCall struct {
	op                              uint8
	write, hitL1, hitL2, pfHit, out bool // out: Prefetch's result
	pc, addr, now, ready            uint64
}

const (
	pfAccess = iota
	pfBegin
	pfEnd
	pfEvict
	pfIssue
)

type pfCall struct {
	op                                 uint8
	nested, write, hitL1, hitL2, pfHit bool
	id                                 int
	pc, addr, line                     uint64
}

type brCall struct {
	pc             uint64
	taken, correct bool
}

// callLog is everything one recorded cell produced.
type callLog struct {
	events []trace.Event
	mem    []memCall
	cache  []cacheCall
	pf     []pfCall
	br     []brCall

	evictN, evictSum uint64 // count and order-sensitive checksum of L1 evictions
	engine           engine.Stats
	branch           branch.Stats
	l1, l2           cache.Stats
	timeliness       cache.Timeliness
	bytes            [3]uint64 // from memory, demand, writeback
	metrics          stats.Metrics
	issued           int
}

func mixEvict(sum uint64, l mem.LineAddr) uint64 { return (sum ^ uint64(l)) * 0x100000001b3 }

// recorder is the benchmark's copy of sim's port: it adapts the
// hierarchy to the engine and trains the prefetcher in commit order,
// logging each call as it passes.
type recorder struct {
	h       *cache.Hierarchy
	pf      prefetch.Prefetcher
	eo      prefetch.EvictionObserver
	noTrain bool
	now     uint64
	depth   int // > 0 while inside a prefetcher call
	issue   prefetch.IssueFunc
	log     *callLog
}

func (r *recorder) access(pc uint64, addr mem.Addr, write bool, now uint64) uint64 {
	var info cache.AccessInfo
	r.h.AccessInto(&info, pc, addr, write, now)
	r.log.mem = append(r.log.mem, memCall{pc: pc, addr: addr, now: now, ready: info.ReadyAt, write: write})
	r.log.cache = append(r.log.cache, cacheCall{op: cacheAccess, write: write, hitL1: info.HitL1,
		hitL2: info.HitL2, pfHit: info.PfHit, pc: pc, addr: uint64(addr), now: now, ready: info.ReadyAt})
	if r.noTrain {
		return info.ReadyAt
	}
	r.now = now
	r.h.DrainPrefetchQueue(now)
	r.log.cache = append(r.log.cache, cacheCall{op: cacheDrain, now: now})
	a := prefetch.Access{PC: pc, Addr: addr, Line: info.Line, Write: write,
		HitL1: info.HitL1, HitL2: info.HitL2, PfHit: info.PfHit}
	r.log.pf = append(r.log.pf, pfCall{op: pfAccess, write: write, hitL1: a.HitL1, hitL2: a.HitL2,
		pfHit: a.PfHit, pc: pc, addr: uint64(addr), line: uint64(a.Line)})
	r.depth++
	r.pf.OnAccess(a, r.issue)
	r.depth--
	return info.ReadyAt
}

func (r *recorder) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	return r.access(pc, addr, false, now)
}

func (r *recorder) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return r.access(pc, addr, true, now)
}

func (r *recorder) BlockBegin(id int) {
	r.log.pf = append(r.log.pf, pfCall{op: pfBegin, id: id})
	r.pf.OnBlockBegin(id)
}

func (r *recorder) BlockEnd(id int) {
	r.log.pf = append(r.log.pf, pfCall{op: pfEnd, id: id})
	r.depth++
	r.pf.OnBlockEnd(id, r.issue)
	r.depth--
}

func (r *recorder) prefetch(l mem.LineAddr) {
	r.log.pf = append(r.log.pf, pfCall{op: pfIssue, line: uint64(l)})
	r.log.issued++
	out := r.h.Prefetch(l, r.now)
	r.log.cache = append(r.log.cache, cacheCall{op: cachePrefetch, addr: uint64(l), now: r.now, out: out})
}

func (r *recorder) evicted(l mem.LineAddr) {
	r.log.evictN++
	r.log.evictSum = mixEvict(r.log.evictSum, l)
	if r.eo != nil {
		r.log.pf = append(r.log.pf, pfCall{op: pfEvict, nested: r.depth > 0, line: uint64(l)})
		r.eo.OnCacheEvict(l)
	}
}

type recBranch struct {
	bp  *branch.Tournament
	log *callLog
}

func (r *recBranch) Update(pc uint64, taken bool) bool {
	c := r.bp.Update(pc, taken)
	r.log.br = append(r.log.br, brCall{pc: pc, taken: taken, correct: c})
	return c
}

// snapshot and sub mirror sim's warm-up accounting so the glue's
// metrics can be compared with sim.RunContext's.
type snapshot struct {
	engine                    engine.Stats
	t                         cache.Timeliness
	l2                        cache.Stats
	bytes, demand, wb, misses uint64
}

func takeSnapshot(eng *engine.Engine, h *cache.Hierarchy) snapshot {
	return snapshot{engine: eng.Snapshot(), t: h.Timeliness, l2: h.L2.Stats, bytes: h.BytesFromMem,
		demand: h.DemandBytes, wb: h.WritebackBytes, misses: h.DemandL2Misses()}
}

func (s snapshot) sub(base snapshot) stats.Metrics {
	es, bs := s.engine, base.engine
	t, bt := s.t, base.t
	loopFrac := 0.0
	if es.TotalSlots > bs.TotalSlots {
		loopFrac = float64(es.BlockSlots-bs.BlockSlots) / float64(es.TotalSlots-bs.TotalSlots)
	}
	return stats.Metrics{
		Instructions: es.Instructions - bs.Instructions, Cycles: es.Cycles - bs.Cycles,
		Loads: es.Loads - bs.Loads, Stores: es.Stores - bs.Stores,
		Branches: es.Branches - bs.Branches, Mispredicts: es.Mispredicts - bs.Mispredicts,
		Blocks: es.Blocks - bs.Blocks, LoopFrac: loopFrac,
		DemandL2: t.DemandL2 - bt.DemandL2, DemandL2Misses: s.misses - base.misses,
		Timely: t.Timely - bt.Timely, ShorterWT: t.ShorterWT - bt.ShorterWT,
		NonTimely: t.NonTimely - bt.NonTimely, Missing: t.Missing - bt.Missing,
		PlainHit: t.PlainHit - bt.PlainHit, Wrong: s.l2.PrefetchWrong - base.l2.PrefetchWrong,
		BytesFromMem: s.bytes - base.bytes, DemandBytes: s.demand - base.demand,
		WritebackBytes:    s.wb - base.wb,
		PrefetchIssued:    s.l2.PrefetchIssued - base.l2.PrefetchIssued,
		PrefetchRedundant: s.l2.PrefetchRedundant - base.l2.PrefetchRedundant,
		PrefetchDropped:   s.l2.PrefetchDropped - base.l2.PrefetchDropped,
		PrefetchUseful:    s.l2.PrefetchUseful - base.l2.PrefetchUseful,
		PrefetchLate:      s.l2.PrefetchLate - base.l2.PrefetchLate,
	}
}

// recSink drives the engine like sim's run sink: the batch holding the
// last warm-up instruction is split there and the metric base is
// snapshotted, so the glue's window matches sim's exactly.
type recSink struct {
	eng    *engine.Engine
	h      *cache.Hierarchy
	warmup uint64
	warmed bool
	base   snapshot
	log    *callLog
}

func (s *recSink) ConsumeBatch(batch []trace.Event) bool {
	s.log.events = append(s.log.events, batch...)
	for !s.warmed {
		remaining := s.warmup - s.eng.Stats.Instructions
		var cum uint64
		split := -1
		for i := range batch {
			cum += uint64(batch[i].Count())
			if cum >= remaining {
				split = i
				break
			}
		}
		if split < 0 {
			return s.eng.ConsumeBatch(batch)
		}
		s.eng.ConsumeBatch(batch[: split+1 : split+1])
		s.warmed = true
		s.base = takeSnapshot(s.eng, s.h)
		batch = batch[split+1:]
		if len(batch) == 0 {
			return true
		}
	}
	return s.eng.ConsumeBatch(batch)
}

// record runs one cell through the glue and returns its call log.
func record(cfg sim.Config, spec workload.Spec, f harness.Factory) (*callLog, error) {
	log := &callLog{}
	h, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	pf := f.New()
	pf.Reset()
	r := &recorder{h: h, pf: pf, log: log}
	r.eo, _ = pf.(prefetch.EvictionObserver)
	_, r.noTrain = pf.(*prefetch.None)
	r.issue = r.prefetch
	h.OnL1Evict(r.evicted)
	eng, err := engine.New(cfg.Core, r, r)
	if err != nil {
		return nil, err
	}
	bp, err := branch.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	eng.AttachBranchPredictor(&recBranch{bp: bp, log: log})
	sink := &recSink{eng: eng, h: h, warmup: cfg.WarmupInstructions, warmed: cfg.WarmupInstructions == 0, log: log}
	trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: cfg.MaxInstructions}, sink)
	log.engine = eng.Finish()
	h.Finish()
	log.metrics = takeSnapshot(eng, h).sub(sink.base)
	log.branch = bp.Stats
	log.l1, log.l2, log.timeliness = h.L1.Stats, h.L2.Stats, h.Timeliness
	log.bytes = [3]uint64{h.BytesFromMem, h.DemandBytes, h.WritebackBytes}
	return log, nil
}

// countSink counts events and instructions, forwarding them to down
// when set.
type countSink struct {
	events, instr uint64
	down          trace.BatchSink
}

func (c *countSink) ConsumeBatch(batch []trace.Event) bool {
	c.events += uint64(len(batch))
	for i := range batch {
		c.instr += uint64(batch[i].Count())
	}
	if c.down != nil {
		return c.down.ConsumeBatch(batch)
	}
	return true
}

// stubPort answers the engine's memory calls from the log.
type stubPort struct {
	calls []memCall
	i     int
	bad   bool
}

func (p *stubPort) next(pc uint64, addr mem.Addr, now uint64, write bool) uint64 {
	if p.i >= len(p.calls) {
		p.bad = true
		return now
	}
	c := &p.calls[p.i]
	p.i++
	if c.pc != pc || c.addr != addr || c.now != now || c.write != write {
		p.bad = true
	}
	return c.ready
}

func (p *stubPort) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.next(pc, addr, now, false)
}

func (p *stubPort) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.next(pc, addr, now, true)
}

// stubBranch answers the engine's predictor calls from the log.
type stubBranch struct {
	calls []brCall
	i     int
	bad   bool
}

func (s *stubBranch) Update(pc uint64, taken bool) bool {
	if s.i >= len(s.calls) {
		s.bad = true
		return true
	}
	c := &s.calls[s.i]
	s.i++
	if c.pc != pc || c.taken != taken {
		s.bad = true
	}
	return c.correct
}

func replayEngine(cfg sim.Config, log *callLog) error {
	port := &stubPort{calls: log.mem}
	br := &stubBranch{calls: log.br}
	eng, err := engine.New(cfg.Core, port, engine.NopBlocks{})
	if err != nil {
		return err
	}
	eng.AttachBranchPredictor(br)
	const batch = 256 // the producers' batch size
	for i := 0; i < len(log.events); i += batch {
		eng.ConsumeBatch(log.events[i:min(i+batch, len(log.events))])
	}
	st := eng.Finish()
	switch {
	case port.bad || port.i != len(port.calls):
		return fmt.Errorf("engine replay diverged from the logged memory calls at call %d", port.i)
	case br.bad || br.i != len(br.calls):
		return fmt.Errorf("engine replay diverged from the logged branch calls at call %d", br.i)
	case st != log.engine:
		return fmt.Errorf("engine replay stats %+v, logged %+v", st, log.engine)
	}
	return nil
}

func replayBranch(cfg sim.Config, log *callLog) error {
	bp, err := branch.New(cfg.Branch)
	if err != nil {
		return err
	}
	for i := range log.br {
		c := &log.br[i]
		if bp.Update(c.pc, c.taken) != c.correct {
			return fmt.Errorf("branch replay diverged at update %d", i)
		}
	}
	if bp.Stats != log.branch {
		return fmt.Errorf("branch replay stats %+v, logged %+v", bp.Stats, log.branch)
	}
	return nil
}

func replayCache(cfg sim.Config, log *callLog) error {
	h, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return err
	}
	var n, sum uint64
	h.OnL1Evict(func(l mem.LineAddr) { n++; sum = mixEvict(sum, l) })
	var info cache.AccessInfo
	for i := range log.cache {
		c := &log.cache[i]
		switch c.op {
		case cacheAccess:
			h.AccessInto(&info, c.pc, mem.Addr(c.addr), c.write, c.now)
			if info.ReadyAt != c.ready || info.HitL1 != c.hitL1 || info.HitL2 != c.hitL2 || info.PfHit != c.pfHit {
				return fmt.Errorf("cache replay diverged at call %d (demand access)", i)
			}
		case cacheDrain:
			h.DrainPrefetchQueue(c.now)
		case cachePrefetch:
			if h.Prefetch(mem.LineAddr(c.addr), c.now) != c.out {
				return fmt.Errorf("cache replay diverged at call %d (prefetch)", i)
			}
		}
	}
	h.Finish()
	switch {
	case h.L1.Stats != log.l1 || h.L2.Stats != log.l2 || h.Timeliness != log.timeliness:
		return fmt.Errorf("cache replay counters differ from the logged run")
	case [3]uint64{h.BytesFromMem, h.DemandBytes, h.WritebackBytes} != log.bytes:
		return fmt.Errorf("cache replay traffic differs from the logged run")
	case n != log.evictN || sum != log.evictSum:
		return fmt.Errorf("cache replay evicted %d lines, logged %d", n, log.evictN)
	}
	return nil
}

func replayPrefetcher(f harness.Factory, log *callLog) error {
	pf := f.New()
	pf.Reset()
	eo, _ := pf.(prefetch.EvictionObserver)
	calls := log.pf
	pos, issued := 0, 0
	var bad error
	issue := func(l mem.LineAddr) {
		if bad != nil {
			return
		}
		if pos >= len(calls) || calls[pos].op != pfIssue || calls[pos].line != uint64(l) {
			bad = fmt.Errorf("prefetch replay issued line %#x at call %d, not the logged one", uint64(l), pos)
			return
		}
		pos++
		issued++
		for pos < len(calls) && calls[pos].op == pfEvict && calls[pos].nested {
			eo.OnCacheEvict(mem.LineAddr(calls[pos].line))
			pos++
		}
	}
	for pos < len(calls) && bad == nil {
		c := &calls[pos]
		pos++
		switch c.op {
		case pfAccess:
			pf.OnAccess(prefetch.Access{PC: c.pc, Addr: mem.Addr(c.addr), Line: mem.LineAddr(c.line),
				Write: c.write, HitL1: c.hitL1, HitL2: c.hitL2, PfHit: c.pfHit}, issue)
		case pfBegin:
			pf.OnBlockBegin(c.id)
		case pfEnd:
			pf.OnBlockEnd(c.id, issue)
		case pfEvict:
			eo.OnCacheEvict(mem.LineAddr(c.line))
		default:
			bad = fmt.Errorf("prefetch replay missed the logged issue at call %d", pos-1)
		}
	}
	if bad == nil && issued != log.issued {
		bad = fmt.Errorf("prefetch replay issued %d lines, logged %d", issued, log.issued)
	}
	return bad
}

// cellJob is one workload × scheme cell.
type cellJob struct {
	s workload.Spec
	f harness.Factory
}

// cellLedger is the decomposition of one cell.
type cellLedger struct {
	pf                                 string
	res                                sim.Result
	plain, gen, eng, br, cache, pfTime time.Duration
	instr, events, branches, accesses  uint64
	l1Misses, l2Accesses, l2Misses     uint64
	issued                             uint64
	n                                  int // cells aggregated
}

func (l *cellLedger) layers() time.Duration { return l.gen + l.eng + l.br + l.cache + l.pfTime }

// add accumulates cell c into the aggregate l.
func (l *cellLedger) add(c *cellLedger) {
	l.plain += c.plain
	l.gen += c.gen
	l.eng += c.eng
	l.br += c.br
	l.cache += c.cache
	l.pfTime += c.pfTime
	l.instr += c.instr
	l.events += c.events
	l.branches += c.branches
	l.accesses += c.accesses
	l.l1Misses += c.l1Misses
	l.l2Accesses += c.l2Accesses
	l.l2Misses += c.l2Misses
	l.issued += c.issued
	l.n++
}

func (b *bench) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = b.scale.instr
	cfg.WarmupInstructions = b.scale.warmup
	return cfg
}

// decompose times one plain cell run and its layer replays.
func (b *bench) decompose(spec workload.Spec, f harness.Factory) *cellLedger {
	cfg := b.simConfig()
	id := cellKey(spec.Name, f.Name)
	root := b.tr.begin("ledger.cell", id, -1)
	defer b.tr.end(root)
	l := &cellLedger{pf: f.Name}
	step := func(name string, fn func() error) time.Duration {
		s := b.tr.begin(name, id, root)
		var err error
		d := timed(func() { err = fn() })
		b.tr.end(s)
		b.checkErr(err, id+": "+name)
		return d
	}
	l.plain = step("sim.run", func() (err error) {
		l.res, err = sim.RunContext(context.Background(), cfg, spec.Make(), f.New())
		return err
	})
	b.check(harness.CellHash(l.res) == b.goldenHash(spec.Name, f.Name), "%s: sim.RunContext hash differs from golden", id)
	var log *callLog
	step("ledger.record", func() (err error) {
		if log, err = record(cfg, spec, f); err != nil {
			return err
		}
		if log.metrics != l.res.Metrics {
			return fmt.Errorf("glue metrics differ from sim.RunContext: %+v vs %+v", log.metrics, l.res.Metrics)
		}
		return nil
	})
	if log == nil {
		return l
	}
	var cs countSink
	l.gen = step("workload.generate", func() error {
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: cfg.MaxInstructions}, &cs)
		if cs.events != uint64(len(log.events)) {
			return fmt.Errorf("generator replay produced %d events, logged %d", cs.events, len(log.events))
		}
		return nil
	})
	l.eng = step("engine.replay", func() error { return replayEngine(cfg, log) })
	l.br = step("branch.replay", func() error { return replayBranch(cfg, log) })
	l.cache = step("cache.replay", func() error { return replayCache(cfg, log) })
	l.pfTime = step("prefetch.replay", func() error { return replayPrefetcher(f, log) })
	l.instr, l.events, l.branches = log.engine.Instructions, cs.events, uint64(len(log.br))
	l.accesses, l.l1Misses = log.l1.Accesses, log.l1.Misses
	l.l2Accesses, l.l2Misses = log.l2.Accesses, log.l2.Misses
	l.issued = uint64(log.issued)
	return l
}

// simLedger decomposes every cell of specs × the golden roster on
// nproc goroutines and reports the sim, engine, branch, cache,
// prefetch, workload and harness layer metrics.
func (b *bench) simLedger(specs []workload.Spec) {
	var jobs []cellJob
	for _, s := range specs {
		for _, f := range b.scale.factories {
			jobs = append(jobs, cellJob{s, f})
		}
	}
	jobs = permute(b, jobs)
	cells := make([]*cellLedger, len(jobs))
	b.parallel(len(jobs), func(i int) { cells[i] = b.decompose(jobs[i].s, jobs[i].f) })

	var tot cellLedger
	perPF := make(map[string]*cellLedger)
	for _, c := range cells {
		p := perPF[c.pf]
		if p == nil {
			p = &cellLedger{pf: c.pf}
			perPF[c.pf] = p
		}
		tot.add(c)
		p.add(c)
	}
	ns := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	b.set("sim.ns_per_instr", "ns", ns(tot.plain, tot.instr))
	b.set("sim.residue_frac", "ratio", 1-float64(tot.layers())/float64(tot.plain))
	b.set("workload.ns_per_event", "ns", ns(tot.gen, tot.events))
	b.set("engine.ns_per_instr", "ns", ns(tot.eng, tot.instr))
	b.set("branch.ns_per_branch", "ns", ns(tot.br, tot.branches))
	b.set("cache.ns_per_access", "ns", ns(tot.cache, tot.accesses))
	b.set("cache.accesses", "count", float64(tot.accesses))
	b.set("cache.l1_miss_ratio", "ratio", float64(tot.l1Misses)/float64(tot.accesses))
	b.set("cache.l2_miss_ratio", "ratio", float64(tot.l2Misses)/float64(tot.l2Accesses))
	for name, p := range perPF {
		b.set("prefetch."+pfMetricName(name)+".ns_per_access", "ns", ns(p.pfTime, p.accesses))
		if name != "none" {
			b.set("prefetch."+pfMetricName(name)+".issued_per_kaccess", "count", float64(p.issued)*1000/float64(p.accesses))
		}
	}
	b.printReconciliation(perPF, &tot)

	// Harness record costs: hashing every cell, and building and writing
	// a probed run record for the first cell of each scheme.
	var hashT time.Duration
	for _, c := range cells {
		res := c.res
		hashT += timed(func() { harness.CellHash(res) })
	}
	b.set("harness.cellhash_us", "us", float64(hashT.Microseconds())/float64(len(cells)))
	b.set("harness.record_ms", "ms", b.recordCost(jobs))
}

// recordCost is the median time of harness.NewRunRecord plus WriteFiles
// for one probed run per scheme.
func (b *bench) recordCost(jobs []cellJob) float64 {
	dir := filepath.Join(b.work, "records")
	defer os.RemoveAll(dir)
	cfg := b.simConfig()
	seen := make(map[string]bool)
	var times []float64
	for _, j := range jobs {
		if seen[j.f.Name] {
			continue
		}
		seen[j.f.Name] = true
		ts := sim.NewTimeSeries(int(cfg.MaxInstructions/sim.DefaultSampleInterval) + 2)
		res, err := sim.RunContext(context.Background(), cfg, j.s.Make(), j.f.New(), sim.WithProbe(ts))
		if !b.checkErr(err, "probed run") {
			continue
		}
		for k := 0; k < 5; k++ {
			var err error
			s := b.tr.begin("harness.record", cellKey(j.s.Name, j.f.Name), -1)
			d := timed(func() {
				err = harness.NewRunRecord(cfg, res, sim.DefaultSampleInterval, ts.Points(), time.Second).WriteFiles(dir)
			})
			b.tr.end(s)
			if b.checkErr(err, "run record") {
				times = append(times, ms(d))
			}
		}
	}
	return median(times)
}

// printReconciliation prints the ledger table: per scheme, the mean
// per-cell time of each layer against the plain cell time.
func (b *bench) printReconciliation(perPF map[string]*cellLedger, tot *cellLedger) {
	names := make([]string, 0, len(perPF))
	for n := range perPF {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b.out, "  ledger (mean ms per cell): %-10s %7s %7s %7s %7s %7s %7s %7s %8s\n",
		"scheme", "cell", "gen", "engine", "branch", "cache", "pf", "sum", "residue")
	row := func(name string, p *cellLedger) {
		n := float64(p.n)
		per := func(d time.Duration) float64 { return ms(d) / n }
		fmt.Fprintf(b.out, "  ledger (mean ms per cell): %-10s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.1f%%\n",
			name, per(p.plain), per(p.gen), per(p.eng), per(p.br), per(p.cache), per(p.pfTime), per(p.layers()),
			100*(1-float64(p.layers())/float64(p.plain)))
	}
	for _, n := range names {
		row(n, perPF[n])
	}
	row("all", tot)
}
