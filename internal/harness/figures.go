package harness

import (
	"fmt"

	"cbws/internal/core"
	"cbws/internal/mem"
	"cbws/internal/registry"
	"cbws/internal/report"
	"cbws/internal/stats"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// Figure1 reports the fraction of runtime spent in tight innermost
// loops for the memory-intensive group (paper Figure 1).
func Figure1(m *Matrix) (*report.Table, error) {
	noPf, _ := registry.ByName("none")
	t := &report.Table{
		Title:   "Figure 1: fraction of runtime in tight innermost loops (no-prefetch)",
		Columns: []string{"benchmark", "loop", "non-loop"},
	}
	var fracs []float64
	for _, spec := range workload.MemoryIntensive() {
		r, err := m.Get(spec, noPf)
		if err != nil {
			return nil, err
		}
		f := r.Metrics.LoopFrac
		fracs = append(fracs, f)
		t.AddRow(spec.Name, report.Pct(f), report.Pct(1-f))
	}
	t.AddRow("average", report.Pct(stats.Mean(fracs)), report.Pct(1-stats.Mean(fracs)))
	return t, nil
}

// TableI reproduces the paper's Table I: CBWS construction and
// differential calculation from the two-block example trace (cache line
// size 64B).
func TableI() *report.Table {
	// The access sequence of Table I, as (pc, byte address) pairs per
	// block instance.
	block0 := []uint64{0x4800, 0x4804, 0xFE50, 0x481C, 0xFE50, 0x7FE0, 0x7FE0}
	block1 := []uint64{0x4900, 0x4904, 0xFC50, 0x491C, 0x7FE0}
	tr := trace.New("table1")
	emitBlock := func(addrs []uint64) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockBegin, Block: 0})
		for i, a := range addrs {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Load, PC: uint64(0x100 + 4*i), Addr: mem.Addr(a)})
		}
		tr.Events = append(tr.Events, trace.Event{Kind: trace.BlockEnd, Block: 0})
	}
	emitBlock(block0)
	emitBlock(block1)

	sets := core.ExtractCBWS(tr, 0, 16)
	d := core.Differential(sets[0], sets[1])

	t := &report.Table{
		Title:   "Table I: CBWS construction and differential (line size 64B)",
		Columns: []string{"quantity", "value"},
	}
	lines := func(v core.Vector) string {
		s := "("
		for i, l := range v {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%X", uint64(l))
		}
		return s + ")"
	}
	t.AddRow("CBWS0", lines(sets[0]))
	t.AddRow("CBWS1", lines(sets[1]))
	t.AddRow("Delta(0,1)", d.String())
	return t
}

// Figure3And4 reproduces the stencil access-pattern illustration: the
// CBWS vectors of consecutive inner-loop iterations (Figure 3) and
// their constant differentials (Figure 4).
func Figure3And4(iterations int) (*report.Table, *report.Table) {
	if iterations <= 0 {
		iterations = 8
	}
	spec, _ := workload.ByName("stencil-default")
	// Capture enough of the trace to cover the requested iterations.
	tr := trace.Capture(trace.Limit{Gen: spec.Make(), Max: uint64(40 * (iterations + 4))})
	sets := core.ExtractCBWS(tr, 0, 16)
	if len(sets) > iterations {
		sets = sets[:iterations]
	}

	f3 := &report.Table{Title: "Figure 3: stencil CBWS vectors (line addresses)"}
	for i, v := range sets {
		f3.AddRow(fmt.Sprintf("CBWS%d", i), v.String())
	}
	f4 := &report.Table{Title: "Figure 4: stencil CBWS differentials"}
	for i := 1; i < len(sets); i++ {
		d := core.Differential(sets[i-1], sets[i])
		f4.AddRow(fmt.Sprintf("CBWS%d-CBWS%d", i, i-1), d.String())
	}
	return f3, f4
}

// Figure5Workloads is the benchmark subset shown in the paper's
// Figure 5.
var Figure5Workloads = []string{
	"450.soplex-ref",
	"433.milc-su3imp",
	"stencil-default",
	"radix-simlarge",
	"sgemm-medium",
	"streamcluster-simlarge",
}

// Figure5 reports the skew of the CBWS differential distribution: the
// fraction of loop iterations covered by the top 1%, 5%, 10% and 25% of
// distinct differential vectors, plus the absolute vector count.
func Figure5(maxInstr uint64) (*report.Table, error) {
	if maxInstr == 0 {
		maxInstr = 1_000_000
	}
	t := &report.Table{
		Title:   "Figure 5: iterations covered by top-k% of distinct CBWS differential vectors",
		Columns: []string{"benchmark", "vectors", "iterations", "top1%", "top5%", "top10%", "top25%"},
	}
	for _, name := range Figure5Workloads {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		c := core.NewCensus(16)
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: maxInstr}, c)
		t.AddRow(name,
			fmt.Sprintf("%d", c.DistinctVectors()),
			fmt.Sprintf("%d", c.Iterations()),
			report.Pct(c.CoverageAt(0.01)),
			report.Pct(c.CoverageAt(0.05)),
			report.Pct(c.CoverageAt(0.10)),
			report.Pct(c.CoverageAt(0.25)))
	}
	return t, nil
}

// TableII renders the simulation parameters actually in force.
func TableII(opts Options) *report.Table {
	t := &report.Table{
		Title:   "Table II: simulation parameters",
		Columns: []string{"parameter", "value"},
	}
	c := opts.Sim
	t.AddRow("OoO width", fmt.Sprintf("%d", c.Core.Width))
	t.AddRow("ROB entries", fmt.Sprintf("%d", c.Core.ROBEntries))
	t.AddRow("LDQ entries", fmt.Sprintf("%d", c.Core.LDQEntries))
	t.AddRow("STQ entries", fmt.Sprintf("%d", c.Core.STQEntries))
	t.AddRow("BP type", "tournament")
	t.AddRow("BP entries", fmt.Sprintf("%dK", c.Branch.Entries>>10))
	t.AddRow("BP tag size", fmt.Sprintf("%d-bit", c.Branch.TagBits))
	t.AddRow("BP history size", fmt.Sprintf("%d-bit", c.Branch.HistoryBits))
	t.AddRow("mispredict penalty", fmt.Sprintf("%d cycles", c.Core.MispredictPenalty))
	t.AddRow("L1D size", fmt.Sprintf("%dKB", c.Memory.L1.SizeBytes>>10))
	t.AddRow("L1D assoc", fmt.Sprintf("%d-way LRU", c.Memory.L1.Ways))
	t.AddRow("L1D latency", fmt.Sprintf("%d cycles", c.Memory.L1.LatencyCycles))
	t.AddRow("L1D MSHRs", fmt.Sprintf("%d", c.Memory.L1.MSHRs))
	t.AddRow("L2 size", fmt.Sprintf("%dMB", c.Memory.L2.SizeBytes>>20))
	t.AddRow("L2 assoc", fmt.Sprintf("%d-way LRU", c.Memory.L2.Ways))
	t.AddRow("L2 latency", fmt.Sprintf("%d cycles", c.Memory.L2.LatencyCycles))
	t.AddRow("L2 MSHRs", fmt.Sprintf("%d", c.Memory.L2.MSHRs))
	t.AddRow("L2 inclusion", "inclusive")
	t.AddRow("line size", "64 bytes")
	t.AddRow("memory latency", fmt.Sprintf("%d cycles", c.Memory.MemoryLatency))
	t.AddRow("instructions/run", fmt.Sprintf("%d", c.MaxInstructions))
	return t
}

// TableIII compares the storage budgets of the evaluated prefetchers.
func TableIII() *report.Table {
	t := &report.Table{
		Title:   "Table III: hardware storage requirements",
		Columns: []string{"prefetcher", "bits", "bytes", "KB"},
	}
	for _, f := range Prefetchers() {
		if f.Name == "none" {
			continue
		}
		bits := f.New().StorageBits()
		t.AddRow(f.Name,
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%d", bits/8),
			report.F(float64(bits)/8/1024, 2))
	}
	return t
}

// collect runs specs × Prefetchers() and returns results grouped by
// scheme name.
func collect(m *Matrix, specs []workload.Spec) (map[string][]stats.Metrics, error) {
	factories := Prefetchers()
	if err := m.Fill(specs, factories); err != nil {
		return nil, err
	}
	out := make(map[string][]stats.Metrics, len(factories))
	for _, f := range factories {
		for _, s := range specs {
			r, err := m.Get(s, f)
			if err != nil {
				return nil, err
			}
			out[f.Name] = append(out[f.Name], r.Metrics)
		}
	}
	return out, nil
}

// Figure12 reports last-level-cache MPKI per memory-intensive benchmark
// and prefetcher, plus the MI and all-benchmark averages (lower is
// better).
func Figure12(m *Matrix) (*report.Table, error) {
	return metricTable(m,
		"Figure 12: L2 demand MPKI (lower is better)",
		func(mm stats.Metrics) string { return report.F(mm.MPKI(), 2) },
		func(ms []stats.Metrics) string {
			var xs []float64
			for _, mm := range ms {
				xs = append(xs, mm.MPKI())
			}
			return report.F(stats.Mean(xs), 2)
		})
}

// metricTable renders one value per (MI benchmark, prefetcher) plus
// average-MI and average-ALL rows.
func metricTable(m *Matrix, title string,
	cell func(stats.Metrics) string,
	avg func([]stats.Metrics) string) (*report.Table, error) {

	factories := Prefetchers()
	cols := []string{"benchmark"}
	for _, f := range factories {
		cols = append(cols, f.Name)
	}
	t := &report.Table{Title: title, Columns: cols}

	mi := workload.MemoryIntensive()
	all := workload.All()
	byPf, err := collect(m, all)
	if err != nil {
		return nil, err
	}
	miByPf, err := collect(m, mi)
	if err != nil {
		return nil, err
	}
	for _, spec := range mi {
		row := []string{spec.Name}
		for _, f := range factories {
			r, err := m.Get(spec, f)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(r.Metrics))
		}
		t.AddRow(row...)
	}
	miRow := []string{"average-MI"}
	allRow := []string{"average-ALL"}
	for _, f := range factories {
		miRow = append(miRow, avg(miByPf[f.Name]))
		allRow = append(allRow, avg(byPf[f.Name]))
	}
	t.AddRow(miRow...)
	t.AddRow(allRow...)
	return t, nil
}

// Figure13 reports the timeliness/accuracy breakdown: for every MI
// benchmark and scheme, the five classes as percentages of demand L2
// accesses (wrong can exceed 100%, as in the paper).
func Figure13(m *Matrix) (*report.Table, error) {
	factories := Prefetchers()
	t := &report.Table{
		Title:   "Figure 13: timeliness and accuracy (% of demand L2 accesses)",
		Columns: []string{"benchmark", "prefetcher", "timely", "shorter-wait", "non-timely", "missing", "wrong"},
	}
	specs := workload.MemoryIntensive()
	if err := m.Fill(specs, factories); err != nil {
		return nil, err
	}
	addRows := func(label string, get func(Factory) (stats.Metrics, error)) error {
		for _, f := range factories {
			mm, err := get(f)
			if err != nil {
				return err
			}
			t.AddRow(label, f.Name,
				report.Pct(mm.TimelyFrac()),
				report.Pct(mm.ShorterWTFrac()),
				report.Pct(mm.NonTimelyFrac()),
				report.Pct(mm.MissingFrac()),
				report.Pct(mm.WrongFrac()))
			label = ""
		}
		return nil
	}
	for _, spec := range specs {
		spec := spec
		if err := addRows(spec.Name, func(f Factory) (stats.Metrics, error) {
			r, err := m.Get(spec, f)
			return r.Metrics, err
		}); err != nil {
			return nil, err
		}
	}
	// Averages over groups.
	for _, grp := range []struct {
		label string
		specs []workload.Spec
	}{{"average-MI", workload.MemoryIntensive()}, {"average-ALL", workload.All()}} {
		grp := grp
		byPf, err := collect(m, grp.specs)
		if err != nil {
			return nil, err
		}
		if err := addRows(grp.label, func(f Factory) (stats.Metrics, error) {
			ms := byPf[f.Name]
			var a stats.Metrics
			var timely, swt, nt, miss, wrong []float64
			for _, mm := range ms {
				timely = append(timely, mm.TimelyFrac())
				swt = append(swt, mm.ShorterWTFrac())
				nt = append(nt, mm.NonTimelyFrac())
				miss = append(miss, mm.MissingFrac())
				wrong = append(wrong, mm.WrongFrac())
			}
			// Synthesize a Metrics whose fractions are the means.
			a.DemandL2 = 1_000_000
			a.Timely = uint64(stats.Mean(timely) * 1_000_000)
			a.ShorterWT = uint64(stats.Mean(swt) * 1_000_000)
			a.NonTimely = uint64(stats.Mean(nt) * 1_000_000)
			a.Missing = uint64(stats.Mean(miss) * 1_000_000)
			a.Wrong = uint64(stats.Mean(wrong) * 1_000_000)
			return a, nil
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure14 reports IPC normalized to SMS for the MI group and the
// regular group, with group averages (higher is better).
func Figure14(m *Matrix) (*report.Table, *report.Table, error) {
	factories := Prefetchers()
	smsF, _ := registry.ByName("sms")
	build := func(title string, specs []workload.Spec, avgSpecs []workload.Spec, avgLabel string) (*report.Table, error) {
		cols := []string{"benchmark"}
		for _, f := range factories {
			cols = append(cols, f.Name)
		}
		t := &report.Table{Title: title, Columns: cols}
		if err := m.Fill(specs, factories); err != nil {
			return nil, err
		}
		for _, spec := range specs {
			base, err := m.Get(spec, smsF)
			if err != nil {
				return nil, err
			}
			row := []string{spec.Name}
			for _, f := range factories {
				r, err := m.Get(spec, f)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(r.Metrics.IPC()/base.Metrics.IPC(), 3))
			}
			t.AddRow(row...)
		}
		if err := m.Fill(avgSpecs, factories); err != nil {
			return nil, err
		}
		row := []string{avgLabel}
		for _, f := range factories {
			var speedups []float64
			for _, spec := range avgSpecs {
				base, err := m.Get(spec, smsF)
				if err != nil {
					return nil, err
				}
				r, err := m.Get(spec, f)
				if err != nil {
					return nil, err
				}
				speedups = append(speedups, r.Metrics.IPC()/base.Metrics.IPC())
			}
			row = append(row, report.F(stats.GeoMean(speedups), 3))
		}
		t.AddRow(row...)
		return t, nil
	}
	mi, err := build("Figure 14a: IPC normalized to SMS, memory-intensive group",
		workload.MemoryIntensive(), workload.MemoryIntensive(), "average-MI")
	if err != nil {
		return nil, nil, err
	}
	reg, err := build("Figure 14b: IPC normalized to SMS, regular group",
		workload.Regular(), workload.All(), "average-ALL")
	if err != nil {
		return nil, nil, err
	}
	return mi, reg, nil
}

// perfCostRatio returns the perf/cost of m normalized to base:
// (IPC_m / IPC_base) × (bytes_base / bytes_m). The +1 on both byte
// counts keeps workloads with zero measured memory traffic finite (the
// ratio degenerates to the IPC ratio, which is the right answer when
// neither configuration touches memory).
func perfCostRatio(m, base stats.Metrics) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (m.IPC() / base.IPC()) *
		(float64(base.BytesFromMem+1) / float64(m.BytesFromMem+1))
}

// Figure15 reports performance/cost — IPC per byte read from memory —
// normalized to the no-prefetch configuration (higher is better).
func Figure15(m *Matrix) (*report.Table, error) {
	noneF, _ := registry.ByName("none")
	factories := Prefetchers()
	cols := []string{"benchmark"}
	for _, f := range factories {
		cols = append(cols, f.Name)
	}
	t := &report.Table{
		Title:   "Figure 15: performance/cost (IPC per byte read, normalized to no-prefetch)",
		Columns: cols,
	}
	specs := workload.MemoryIntensive()
	if err := m.Fill(workload.All(), factories); err != nil {
		return nil, err
	}
	for _, spec := range specs {
		base, err := m.Get(spec, noneF)
		if err != nil {
			return nil, err
		}
		row := []string{spec.Name}
		for _, f := range factories {
			r, err := m.Get(spec, f)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(perfCostRatio(r.Metrics, base.Metrics), 3))
		}
		t.AddRow(row...)
	}
	// Averages skip benchmarks whose no-prefetch memory traffic is
	// negligible in the measured window: with an (almost) fully
	// cache-resident working set the perf/cost ratio is dominated by
	// measurement noise rather than by prefetching behaviour.
	const trafficFloor = 64 << 10
	for _, grp := range []struct {
		label string
		specs []workload.Spec
	}{{"average-MI", workload.MemoryIntensive()}, {"average-ALL", workload.All()}} {
		row := []string{grp.label}
		for _, f := range factories {
			var vals []float64
			for _, spec := range grp.specs {
				base, err := m.Get(spec, noneF)
				if err != nil {
					return nil, err
				}
				if base.Metrics.BytesFromMem < trafficFloor {
					continue
				}
				r, err := m.Get(spec, f)
				if err != nil {
					return nil, err
				}
				vals = append(vals, perfCostRatio(r.Metrics, base.Metrics))
			}
			row = append(row, report.F(stats.GeoMean(vals), 3))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// LearnedTable compares the paper's CBWS and CBWS+SMS against the
// learned baselines (Pythia-style online RL, Gaze-style spatial) on
// all 30 kernels: per-kernel IPC speedup over no-prefetching, with
// geomean rows for the memory-intensive group, the regular group and
// the full suite. This is the paper's core question restated with
// modern baselines — does loop-aware working-set capture still win on
// tight loops against learned and pattern-characterizing designs?
func LearnedTable(m *Matrix) (*report.Table, error) {
	schemes := []string{"cbws", "cbws+sms", "pythia", "gaze"}
	none, ok := registry.ByName("none")
	if !ok {
		return nil, fmt.Errorf("harness: no-prefetch baseline missing")
	}
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, s)
	}
	t := &report.Table{
		Title:   "Learned baselines: IPC speedup over no-prefetching (CBWS vs Pythia-style RL and Gaze-style spatial)",
		Columns: cols,
	}
	speedup := func(spec workload.Spec, sn string) (float64, error) {
		f, ok := registry.ByName(sn)
		if !ok {
			return 0, fmt.Errorf("harness: unknown scheme %q", sn)
		}
		base, err := m.Get(spec, none)
		if err != nil {
			return 0, err
		}
		r, err := m.Get(spec, f)
		if err != nil {
			return 0, err
		}
		return r.Metrics.IPC() / base.Metrics.IPC(), nil
	}
	for _, spec := range workload.All() {
		row := []string{spec.Name}
		for _, sn := range schemes {
			s, err := speedup(spec, sn)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(s, 3))
		}
		t.AddRow(row...)
	}
	for _, grp := range []struct {
		label string
		specs []workload.Spec
	}{
		{"geomean-MI", workload.MemoryIntensive()},
		{"geomean-regular", workload.Regular()},
		{"geomean-ALL", workload.All()},
	} {
		row := []string{grp.label}
		for _, sn := range schemes {
			var vals []float64
			for _, spec := range grp.specs {
				s, err := speedup(spec, sn)
				if err != nil {
					return nil, err
				}
				vals = append(vals, s)
			}
			row = append(row, report.F(stats.GeoMean(vals), 3))
		}
		t.AddRow(row...)
	}
	return t, nil
}
