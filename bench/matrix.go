package main

import (
	"context"
	"os"
	"slices"
	"time"

	"cbws/internal/harness"
	"cbws/internal/workload"
)

// fillResult is one golden-matrix fill.
type fillResult struct {
	wall  time.Duration
	ids   []string        // cells in the order they were scheduled
	cells []time.Duration // per cell, in the same order
	g     *harness.GoldenManifest
}

// fill simulates every cell of specs × factories into a harness.Matrix
// on nproc goroutines in a seeded order, timing each cell's
// Matrix.GetContext call, then assembles the manifest with
// harness.BuildGolden over the filled matrix and checks every cell hash
// (and, for the full matrix, the matrix hash) against golden/seed.json.
//
// The benchmark schedules the cells itself rather than through
// Matrix.Fill so that each cell's time is known by name; the schedule is
// Fill's (nproc workers taking the next cell), and BuildGolden's own Fill
// finds every cell memoized.
func (b *bench) fill(specs []workload.Spec, factories []harness.Factory) *fillResult {
	sc := b.scale
	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions = sc.instr
	opts.Sim.WarmupInstructions = sc.warmup
	opts.Parallel = b.nproc
	m := harness.NewMatrix(opts)
	var jobs []cellJob
	for _, s := range specs {
		for _, f := range factories {
			jobs = append(jobs, cellJob{s, f})
		}
	}
	jobs = permute(b, jobs)
	fr := &fillResult{ids: make([]string, len(jobs)), cells: make([]time.Duration, len(jobs))}
	root := b.tr.begin("harness.fill", "matrix", -1)
	var err error
	fr.wall = timed(func() {
		b.parallel(len(jobs), func(i int) {
			j := jobs[i]
			fr.ids[i] = cellKey(j.s.Name, j.f.Name)
			s := b.tr.begin("harness.cell", fr.ids[i], root)
			fr.cells[i] = timed(func() { m.GetContext(context.Background(), j.s, j.f) })
			b.tr.end(s)
		})
		fr.g, err = harness.BuildGolden(m, specs, factories)
	})
	b.tr.end(root)
	if !b.checkErr(err, "golden fill") {
		return fr
	}
	for _, c := range fr.g.Cells {
		want := b.goldenHash(c.Workload, c.Prefetcher)
		b.check(c.Hash == want, "%s: cell hash %.12s, golden %.12s", cellKey(c.Workload, c.Prefetcher), c.Hash, want)
	}
	if len(specs) == len(sc.specs) && len(factories) == len(sc.factories) {
		b.check(fr.g.MatrixHash == b.golden.MatrixHash, "matrix hash %.12s, golden %.12s", fr.g.MatrixHash, b.golden.MatrixHash)
	}
	return fr
}

// permute returns a seeded permutation of xs; the seed decides the
// order in which cells, items and samples are scheduled.
func permute[T any](b *bench, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range b.rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// runMatrixLive is the figure-regeneration path: the full 270-cell
// golden matrix on live generators. A round's set-up is a warm-up fill
// of the first warmupRows workloads under every scheme, and its unit one
// full fill. An operation, and a part, is one cell.
func runMatrixLive(b *bench) error {
	sc := b.scale
	e := newE2E()
	start, pid := time.Now(), os.Getpid()
	for rep := 0; b.repsDue(rep, start); rep++ {
		e.setup = append(e.setup, timed(func() { b.fill(sc.specs[:min(warmupRows, len(sc.specs))], sc.factories) }).Seconds())
		resetPeak(pid)
		cpu := selfCPU()
		fr := b.fill(sc.specs, sc.factories)
		e.unit(fr.cells, fr.wall, selfCPU()-cpu, peakMB(pid))
		for i, id := range fr.ids {
			e.part(id, fr.cells[i])
		}
	}
	b.reportE2E(e)
	if b.tr == nil {
		return nil
	}

	mem, cpu := readMem(), selfCPU()
	fr := b.fill(sc.specs, sc.factories)
	b.reportRuntime(selfCPU()-cpu, fr.wall, mem.since(), len(fr.cells))
	b.reportOverhead(e.rate, float64(len(fr.cells))/fr.wall.Seconds())
	b.reportFill(fr)
	b.simLedger(sc.specs)
	b.toolLedger()
	return b.serviceProbe()
}

// warmupRows is the size of matrix-live's warm-up fill, in workloads.
// The rows are fixed so that set-up costs the same under every seed.
const warmupRows = 3

// repsDue decides whether another round runs: at least minReps, and
// until the run's time budget is spent. A traced run measures one
// untraced round as the overhead baseline.
func (b *bench) repsDue(done int, start time.Time) bool {
	if b.tr != nil {
		return done < 1
	}
	return done < b.scale.minReps || time.Since(start).Seconds() < b.seconds
}

// reportRuntime sets the runtime.* layer metrics of the traced phase.
func (b *bench) reportRuntime(cpu, wall time.Duration, mem memDelta, ops int) {
	b.set("runtime.cpu_util", "ratio", cpu.Seconds()/(wall.Seconds()*float64(b.nproc)))
	b.set("runtime.alloc_kb_per_op", "KB", float64(mem.allocBytes)/1024/float64(ops))
	b.set("runtime.gc_per_kop", "count", float64(mem.gcCycles)*1000/float64(ops))
}

// reportOverhead compares the traced phase's throughput with the best
// untraced unit of the same run.
func (b *bench) reportOverhead(untraced []float64, traced float64) {
	b.set("trace.overhead_frac", "ratio", slices.Max(untraced)/traced-1)
}

// reportFill sets the harness-level metrics of a traced fill.
func (b *bench) reportFill(fr *fillResult) {
	b.set("harness.fill_efficiency", "ratio", sumDur(fr.cells).Seconds()/(float64(b.nproc)*fr.wall.Seconds()))
	b.setLatency("sim.cell_ms_p50", 0.5, fr.cells)
	b.setLatency("sim.cell_ms_max", 1, fr.cells)
}
