// Package sim wires the timing engine, the cache hierarchy and a
// prefetcher into one simulated system and runs workloads through it —
// the equivalent of the paper's gem5 configuration (Table II).
package sim

import (
	"context"
	"fmt"

	"cbws/internal/branch"
	"cbws/internal/cache"
	"cbws/internal/engine"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/stats"
	"cbws/internal/trace"
)

// Config is the full-system configuration.
type Config struct {
	Core   engine.Config
	Memory cache.HierarchyConfig
	// Branch configures the tournament branch predictor (Table II).
	Branch branch.Config
	// IdealBranchPrediction disables the predictor: every branch is
	// predicted correctly, as in the pre-branch model (for ablation).
	IdealBranchPrediction bool
	// MaxInstructions truncates the workload (0 = unlimited). The paper
	// simulates 1e9 instructions per benchmark; the default harness
	// uses smaller windows with proportionally scaled working sets.
	MaxInstructions uint64
	// WarmupInstructions excludes the first N instructions from the
	// reported metrics (caches and predictors warm normally), the
	// equivalent of the paper's fast-forward to each benchmark's
	// region of interest. Must be below MaxInstructions when both are
	// set.
	WarmupInstructions uint64
}

// DefaultConfig returns the Table II system.
func DefaultConfig() Config {
	return Config{
		Core:   engine.DefaultConfig(),
		Memory: cache.DefaultHierarchyConfig(),
		Branch: branch.DefaultConfig(),
	}
}

// Result is the outcome of one workload × prefetcher run.
type Result struct {
	Workload   string
	Prefetcher string
	Metrics    stats.Metrics
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: %s", r.Workload, r.Prefetcher, r.Metrics)
}

// port adapts the hierarchy to the engine's MemPort and BlockObserver,
// training the prefetcher on every demand access in commit order and
// forwarding block markers, exactly as the paper's prefetcher observes
// the in-order commit stage.
type port struct {
	h  *cache.Hierarchy
	pf prefetch.Prefetcher
	// noTrain short-circuits the per-access observer plumbing for the
	// no-prefetch baseline, which has no training input and never
	// queues a prefetch.
	noTrain bool
	now     uint64
	issue   prefetch.IssueFunc
}

func newPort(h *cache.Hierarchy, pf prefetch.Prefetcher) *port {
	p := &port{h: h, pf: pf}
	_, p.noTrain = pf.(*prefetch.None)
	p.issue = func(l mem.LineAddr) { p.h.Prefetch(l, p.now) }
	return p
}

func (p *port) access(pc uint64, addr mem.Addr, write bool, now uint64) uint64 {
	var info cache.AccessInfo
	p.h.AccessInto(&info, pc, addr, write, now)
	if p.noTrain {
		return info.ReadyAt
	}
	p.now = now
	p.h.DrainPrefetchQueue(now)
	p.pf.OnAccess(prefetch.Access{
		PC:    pc,
		Addr:  addr,
		Line:  info.Line,
		Write: write,
		HitL1: info.HitL1,
		HitL2: info.HitL2,
		PfHit: info.PfHit,
	}, p.issue)
	return info.ReadyAt
}

// Load implements engine.MemPort.
func (p *port) Load(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.access(pc, addr, false, now)
}

// Store implements engine.MemPort.
func (p *port) Store(pc uint64, addr mem.Addr, now uint64) uint64 {
	return p.access(pc, addr, true, now)
}

// BlockBegin implements engine.BlockObserver.
func (p *port) BlockBegin(id int) { p.pf.OnBlockBegin(id) }

// BlockEnd implements engine.BlockObserver.
func (p *port) BlockEnd(id int) { p.pf.OnBlockEnd(id, p.issue) }

// Run simulates workload wl on the configured system with prefetcher pf
// (which is Reset first) and returns the collected metrics. It is
// RunContext with a background context and no options.
func Run(cfg Config, wl trace.Generator, pf prefetch.Prefetcher) (Result, error) {
	return RunContext(context.Background(), cfg, wl, pf)
}

// RunContext simulates workload wl on the configured system with
// prefetcher pf (which is Reset first) and returns the collected
// metrics. The context is checked at batch boundaries: cancelling it
// aborts the run promptly and returns ctx.Err(). Options attach
// observability — WithProbe samples a full metrics snapshot plus
// ROB/MSHR occupancy every WithSampleInterval committed instructions,
// WithProgress reports the committed instruction count at the same
// cadence. With no options the run takes exactly the unobserved fast
// path and produces bit-identical results to prior releases.
func RunContext(ctx context.Context, cfg Config, wl trace.Generator, pf prefetch.Prefetcher, opts ...Option) (Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if (o.probe != nil || o.progress != nil) && o.interval == 0 {
		o.interval = DefaultSampleInterval
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	h, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return Result{}, err
	}
	pf.Reset()
	if eo, ok := pf.(prefetch.EvictionObserver); ok {
		h.OnL1Evict(eo.OnCacheEvict)
	}
	p := newPort(h, pf)
	eng, err := engine.New(cfg.Core, p, p)
	if err != nil {
		return Result{}, err
	}
	if !cfg.IdealBranchPrediction {
		bp, err := branch.New(cfg.Branch)
		if err != nil {
			return Result{}, err
		}
		eng.AttachBranchPredictor(bp)
	}

	// Warmup handling: the first WarmupInstructions train caches and
	// predictors but are excluded from the reported metrics, like the
	// paper's fast-forward to each benchmark's region of interest.
	sink := &runSink{eng: eng, h: h, warmup: cfg.WarmupInstructions,
		warmed: cfg.WarmupInstructions == 0,
		probe:  o.probe, progress: o.progress, interval: o.interval,
		nextMark: o.interval}
	if done := ctx.Done(); done != nil {
		// Background and TODO contexts can never be cancelled; leaving
		// ctx nil keeps the per-batch check a single pointer test.
		sink.ctx = ctx
	}

	var gen trace.Generator = wl
	if cfg.MaxInstructions > 0 {
		gen = trace.Limit{Gen: wl, Max: cfg.MaxInstructions}
	}
	trace.DriveBatches(gen, sink)
	if sink.err != nil {
		return Result{}, sink.err
	}

	eng.Finish()
	h.Finish() // settles wrong counts (unused prefetched lines drained)
	final := takeSnapshot(eng, h)

	m := final.sub(sink.base)
	if sink.probe != nil {
		sink.emitSample(final, true)
	}
	return Result{Workload: wl.Name(), Prefetcher: pf.Name(), Metrics: m}, nil
}

// runSink drives the engine, takes the warmup snapshot and emits probe
// samples. The engine's instruction counter advances by exactly
// Event.Count per event, so the event that crosses the next boundary —
// the warmup end or a sampling mark — can be located by a plain count
// scan, no simulation needed, and the batch split there: the snapshot
// lands after exactly the same event wherever the batch boundaries
// fall, while every fragment still takes the engine's batch fast path. With no probe, progress callback or cancellable context
// attached, the post-warmup path is a single boundary check followed by
// the plain batched consume.
type runSink struct {
	eng    *engine.Engine
	h      *cache.Hierarchy
	warmup uint64
	warmed bool
	base   snapshot

	// ctx is non-nil only for cancellable contexts; it is polled once
	// per batch (at most every 256 events).
	ctx context.Context
	err error

	probe    Probe
	progress func(instructions uint64)
	interval uint64 // sampling period in instructions; 0 disables marks
	nextMark uint64 // next sampling boundary, in committed instructions
	prev     snapshot
	seq      int
	sample   Sample // reused across samples: steady-state sampling allocates nothing
}

// nextBoundary returns the smallest pending instruction boundary (the
// warmup end or the next sampling mark) and whether one exists.
func (s *runSink) nextBoundary() (uint64, bool) {
	if !s.warmed {
		if s.interval != 0 && s.nextMark < s.warmup {
			return s.nextMark, true
		}
		return s.warmup, true
	}
	if s.interval != 0 {
		return s.nextMark, true
	}
	return 0, false
}

// crossBoundary handles the boundary the engine just committed past:
// the warmup end snapshots the metric base, sampling marks report
// progress and emit a probe sample.
func (s *runSink) crossBoundary() {
	done := s.eng.Stats.Instructions
	atWarmup := !s.warmed && done >= s.warmup
	if atWarmup {
		s.warmed = true
		s.base = takeSnapshot(s.eng, s.h)
		s.prev = s.base
	}
	if s.interval != 0 && done >= s.nextMark {
		for s.nextMark <= done {
			s.nextMark += s.interval
		}
		if s.progress != nil {
			s.progress(done)
		}
		// Samples cover only the measured region: marks inside warmup
		// (and the mark coinciding with the warmup end, whose interval
		// would mix warm and measured execution) report progress only.
		if s.probe != nil && s.warmed && !atWarmup {
			s.emitSample(takeSnapshot(s.eng, s.h), false)
		}
	}
}

// emitSample fills the reused Sample from the snapshot cur and hands it
// to the probe. The caller guarantees cur was taken at the current
// engine state.
func (s *runSink) emitSample(cur snapshot, final bool) {
	now := cur.engine.Cycles
	s.sample = Sample{
		Index:           s.seq,
		Instructions:    s.eng.Stats.Instructions,
		Cycles:          now,
		Interval:        cur.sub(s.prev),
		Cumulative:      cur.sub(s.base),
		ROBOccupancy:    s.eng.ROBOccupancy(),
		L1MSHROccupancy: s.h.L1.MSHROccupancy(now),
		L2MSHROccupancy: s.h.L2.MSHROccupancy(now),
		Final:           final,
	}
	s.seq++
	s.prev = cur
	s.probe.OnSample(&s.sample)
}

// ConsumeBatch implements trace.BatchSink. Batches are split at every
// pending boundary so that snapshots land on exact instruction counts;
// a cancelled context stops the producer cooperatively.
func (s *runSink) ConsumeBatch(batch []trace.Event) bool {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
	}
	for {
		bound, ok := s.nextBoundary()
		if !ok {
			return s.eng.ConsumeBatch(batch)
		}
		remaining := bound - s.eng.Stats.Instructions
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
		s.crossBoundary()
		batch = batch[split+1:]
		if len(batch) == 0 {
			return true
		}
	}
}

// snapshot captures every counter that contributes to the reported
// metrics, so a warmup window can be subtracted out.
type snapshot struct {
	engine engine.Stats
	t      cache.Timeliness
	l2     cache.Stats
	bytes  uint64
	demand uint64
	wb     uint64
	misses uint64
}

func takeSnapshot(eng *engine.Engine, h *cache.Hierarchy) snapshot {
	return snapshot{
		engine: eng.Snapshot(),
		t:      h.Timeliness,
		l2:     h.L2.Stats,
		bytes:  h.BytesFromMem,
		demand: h.DemandBytes,
		wb:     h.WritebackBytes,
		misses: h.DemandL2Misses(),
	}
}

// sub converts the counter deltas between two snapshots into metrics.
func (s snapshot) sub(base snapshot) stats.Metrics {
	es, bs := s.engine, base.engine
	t, bt := s.t, base.t
	loopFrac := 0.0
	if es.TotalSlots > bs.TotalSlots {
		loopFrac = float64(es.BlockSlots-bs.BlockSlots) / float64(es.TotalSlots-bs.TotalSlots)
	}
	return stats.Metrics{
		Instructions: es.Instructions - bs.Instructions,
		Cycles:       es.Cycles - bs.Cycles,
		Loads:        es.Loads - bs.Loads,
		Stores:       es.Stores - bs.Stores,
		Branches:     es.Branches - bs.Branches,
		Mispredicts:  es.Mispredicts - bs.Mispredicts,
		Blocks:       es.Blocks - bs.Blocks,
		LoopFrac:     loopFrac,

		DemandL2:       t.DemandL2 - bt.DemandL2,
		DemandL2Misses: s.misses - base.misses,

		Timely:    t.Timely - bt.Timely,
		ShorterWT: t.ShorterWT - bt.ShorterWT,
		NonTimely: t.NonTimely - bt.NonTimely,
		Missing:   t.Missing - bt.Missing,
		PlainHit:  t.PlainHit - bt.PlainHit,
		Wrong:     s.l2.PrefetchWrong - base.l2.PrefetchWrong,

		BytesFromMem:      s.bytes - base.bytes,
		DemandBytes:       s.demand - base.demand,
		WritebackBytes:    s.wb - base.wb,
		PrefetchIssued:    s.l2.PrefetchIssued - base.l2.PrefetchIssued,
		PrefetchRedundant: s.l2.PrefetchRedundant - base.l2.PrefetchRedundant,
		PrefetchDropped:   s.l2.PrefetchDropped - base.l2.PrefetchDropped,
		PrefetchUseful:    s.l2.PrefetchUseful - base.l2.PrefetchUseful,
		PrefetchLate:      s.l2.PrefetchLate - base.l2.PrefetchLate,
	}
}
