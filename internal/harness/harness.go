// Package harness runs the paper's evaluation: every workload × every
// prefetcher on the Table II system, memoizing results so that all
// figures derive from one simulation matrix, and rendering each figure
// and table of the paper as a report.Table. With an observability
// directory configured it also writes a structured run record (JSON
// manifest plus time-series CSV) per matrix cell.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// Factory names and constructs one prefetching scheme; it is the
// shared registry's factory.
type Factory = registry.Factory

// Prefetchers returns the six evaluated schemes in the paper's plotting
// order: no-prefetch, stride, GHB PC/DC, GHB G/DC, SMS, CBWS, CBWS+SMS.
// The roster is backed by the shared scheme registry
// (internal/registry).
func Prefetchers() []Factory { return registry.Evaluated() }

// GoldenPrefetchers returns the roster pinned by golden/seed.json: every
// registered scheme, the evaluated roster followed by the learned
// baselines (pythia, gaze), whose determinism the manifest guards cell
// by cell.
func GoldenPrefetchers() []Factory { return registry.All() }

// Options configures a harness run.
type Options struct {
	Sim sim.Config
	// Parallel bounds the number of simulations run concurrently by
	// Fill. Zero or negative means one per available CPU
	// (runtime.GOMAXPROCS(0)), the default.
	Parallel int
	// ObsDir, when non-empty, attaches a time-series probe to every
	// simulation and writes a run record (JSON manifest + CSV series)
	// per matrix cell into the directory, which is created if missing.
	ObsDir string
	// SampleInterval is the probe sampling period in committed
	// instructions (0: sim.DefaultSampleInterval). Only used when
	// ObsDir is set.
	SampleInterval uint64
	// Corpus, when set, replays workloads from packed CBWC corpora:
	// any spec whose name has a corpus in the source runs from replay
	// instead of its live generator; the rest are untouched.
	Corpus *CorpusSource
}

// DefaultOptions returns the Table II system with a 4M-instruction
// window per run, the first 1M excluded from metrics as warmup (the
// paper simulates 1e9 instructions starting at each benchmark's
// region of interest). Fill parallelism defaults to the full machine
// width.
func DefaultOptions() Options {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 4_000_000
	cfg.WarmupInstructions = 1_000_000
	return Options{Sim: cfg, Parallel: runtime.GOMAXPROCS(0)}
}

// cell is one memoized matrix entry with single-flight semantics:
// concurrent requests for the same cell run the simulation exactly once
// and all block on that one run, instead of racing to simulate it
// redundantly. The done channel (rather than a sync.Once) lets waiters
// also honor their own context, and lets a cell whose owning run was
// cancelled be retried instead of caching the cancellation forever.
type cell struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Matrix memoizes workload × prefetcher simulation results.
type Matrix struct {
	opts Options

	mu    sync.Mutex
	cells map[string]*cell //cbws:guardedby mu
}

// NewMatrix creates an empty result matrix.
func NewMatrix(opts Options) *Matrix {
	return &Matrix{opts: opts, cells: make(map[string]*cell)}
}

// Options returns the matrix configuration.
func (m *Matrix) Options() Options { return m.opts }

// Get simulates (or returns the memoized result of) one cell. Safe for
// concurrent use; concurrent Gets of the same cell simulate it once.
func (m *Matrix) Get(spec workload.Spec, f Factory) (sim.Result, error) {
	return m.GetContext(context.Background(), spec, f)
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// GetContext is Get with cancellation: the context aborts both a run
// this call owns and the wait on a run another call owns. A cell whose
// owning run was cancelled is dropped from the matrix, so a later Get
// with a live context re-simulates it rather than inheriting the
// cancellation.
func (m *Matrix) GetContext(ctx context.Context, spec workload.Spec, f Factory) (sim.Result, error) {
	key := spec.Name + "\x00" + f.Name
	for {
		m.mu.Lock()
		c, ok := m.cells[key]
		if !ok {
			c = &cell{done: make(chan struct{})}
			m.cells[key] = c
			m.mu.Unlock()
			c.res, c.err = m.run(ctx, spec, f)
			if c.err != nil && isCtxErr(c.err) {
				m.mu.Lock()
				delete(m.cells, key)
				m.mu.Unlock()
			}
			close(c.done)
			return c.res, c.err
		}
		m.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		if c.err != nil && isCtxErr(c.err) {
			continue // owner was cancelled; retry with our context
		}
		return c.res, c.err
	}
}

// run executes one simulation, attaching the observability probe (and
// the run-record write) when an ObsDir is configured.
func (m *Matrix) run(ctx context.Context, spec workload.Spec, f Factory) (sim.Result, error) {
	wrap := func(err error) error {
		return fmt.Errorf("harness: %s/%s: %w", spec.Name, f.Name, err)
	}
	if m.opts.Corpus != nil {
		spec = m.opts.Corpus.Override(spec)
	}
	if m.opts.ObsDir == "" {
		res, err := sim.RunContext(ctx, m.opts.Sim, spec.Make(), f.New())
		if err != nil {
			return res, wrap(err)
		}
		return res, nil
	}
	interval := m.opts.SampleInterval
	if interval == 0 {
		interval = sim.DefaultSampleInterval
	}
	ts := sim.NewTimeSeries(seriesCapacity(m.opts.Sim, interval))
	//lint:ignore cbws/determinism wall-clock duration is telemetry only, excluded from golden hashes
	start := time.Now()
	res, err := sim.RunContext(ctx, m.opts.Sim, spec.Make(), f.New(),
		sim.WithProbe(ts), sim.WithSampleInterval(interval))
	if err != nil {
		return res, wrap(err)
	}
	rec := NewRunRecord(m.opts.Sim, res, interval, ts.Points(), time.Since(start))
	if err := rec.WriteFiles(m.opts.ObsDir); err != nil {
		return res, wrap(err)
	}
	return res, nil
}

// seriesCapacity sizes a TimeSeries so steady-state sampling never
// reallocates: one point per interval of the measured window, plus the
// final sample and slack for boundary overshoot.
func seriesCapacity(cfg sim.Config, interval uint64) int {
	if cfg.MaxInstructions == 0 || interval == 0 {
		return 64
	}
	return int(cfg.MaxInstructions/interval) + 2
}

// Fill simulates every cell of specs × factories, using up to
// opts.Parallel goroutines (all CPUs when Parallel <= 0).
func (m *Matrix) Fill(specs []workload.Spec, factories []Factory) error {
	return m.FillContext(context.Background(), specs, factories)
}

// FillContext fills the matrix under a context. Every launched
// simulation is waited for before returning — an early failure never
// leaves runs in flight — and all failures are aggregated with
// errors.Join. Cancelling the context stops new launches, aborts
// in-flight runs at their next batch boundary, and reports ctx.Err()
// (individual per-cell cancellations are folded into it rather than
// repeated per cell).
func (m *Matrix) FillContext(ctx context.Context, specs []workload.Spec, factories []Factory) error {
	type job struct {
		s workload.Spec
		f Factory
	}
	var jobs []job
	for _, s := range specs {
		for _, f := range factories {
			jobs = append(jobs, job{s, f})
		}
	}
	par := m.opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
launch:
	for _, j := range jobs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break launch
		}
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := m.GetContext(ctx, j.s, j.f); err != nil && !isCtxErr(err) {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
