package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cbws/internal/harness"
	"cbws/internal/workload"
)

// toyScale is every workload at toy size: 3 workloads at 50k
// instructions, under the whole golden roster because BENCHMARK.json
// names a metric per scheme.
func toyScale(t *testing.T) scale {
	var specs []workload.Spec
	for _, name := range []string{"stencil-default", "429.mcf-ref", "spmv-large"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		specs = append(specs, s)
	}
	return scale{
		instr: 50_000, warmup: 12_500, toolInstr: 50_000,
		specs: specs, factories: harness.GoldenPrefetchers(),
		minReps: 1, sampleSpecs: 2,
		hotCells: 2, hotFrac: 0.9, probeHot: 100 * time.Millisecond, chunkBytes: 4 << 10,
	}
}

// toyGolden pins the toy matrix the same way golden/seed.json pins the
// full one.
func toyGolden(t *testing.T, sc scale) *harness.GoldenManifest {
	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions, opts.Sim.WarmupInstructions = sc.instr, sc.warmup
	g, err := harness.BuildGolden(harness.NewMatrix(opts), sc.specs, sc.factories)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildDaemon compiles cbwsd for the service workloads.
func buildDaemon(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "cbwsd")
	if out, err := exec.Command("go", "build", "-o", bin, "cbws/cmd/cbwsd").CombinedOutput(); err != nil {
		t.Fatalf("building cbwsd: %v\n%s", err, out)
	}
	return bin
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchSpec(t *testing.T) benchSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// at toy scale and checks that each emits exactly the metrics
// BENCHMARK.json names, finite and with their units, and that every
// output check — the golden hashes and the ledger's decomposition
// check — passes. It makes no timing assertions.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cbwsd")
	}
	spec := readBenchSpec(t)
	sc := toyScale(t)
	golden := toyGolden(t, sc)
	daemon := buildDaemon(t)
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not implement", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want, spans := spec.EndToEnd, ""
			if traced {
				want, spans = spec.PerLayer, filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := run(config{root: t.TempDir(), cbwsd: daemon, workload: wl.Name, seed: 7,
				seconds: 0.2, traced: traced, spans: spans, scale: sc, golden: golden, out: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if traced {
				checkSpans(t, wl.Name, spans)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// checkSpans reads a traced run's span file and checks that every span
// is closed and lies inside its parent.
func checkSpans(t *testing.T, wl, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: spans: %v", wl, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: traced run wrote no spans", wl)
	}
	for i, s := range spans {
		switch {
		case s.End < s.Start:
			t.Errorf("%s: span %d (%s) ends at %d before its start %d", wl, i, s.Name, s.End, s.Start)
		case s.Parent >= i:
			t.Errorf("%s: span %d (%s) has parent %d, not an earlier span", wl, i, s.Name, s.Parent)
		case s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End):
			t.Errorf("%s: span %d (%s) lies outside its parent %s", wl, i, s.Name, spans[s.Parent].Name)
		}
	}
}

// TestSeedChangesScheduleNotResults checks the seed plumbing: two seeds
// give different fill orders and service item orders, and identical
// golden hashes.
func TestSeedChangesScheduleNotResults(t *testing.T) {
	sc := toyScale(t)
	golden := toyGolden(t, sc)
	var (
		hashes []string
		orders [][]string
	)
	for _, seed := range []uint64{1, 2} {
		b, err := newBench(config{root: t.TempDir(), seed: seed, scale: sc, golden: golden, out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(b.work)
		fr := b.fill(sc.specs, sc.factories)
		if b.failed.Load() != 0 {
			t.Fatalf("seed %d: %d output checks failed: %v", seed, b.failed.Load(), b.failures)
		}
		order := slices.Clone(fr.ids)
		items, err := b.items(sc.specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			kind := "job"
			if it.body == nil {
				kind = "stream"
			}
			order = append(order, it.id+":"+kind)
		}
		hashes = append(hashes, fr.g.MatrixHash)
		orders = append(orders, order)
	}
	if hashes[0] != hashes[1] {
		t.Errorf("matrix hash depends on the seed: %s vs %s", hashes[0], hashes[1])
	}
	if slices.Equal(orders[0], orders[1]) {
		t.Errorf("seeds 1 and 2 produced the same schedule %v", orders[0])
	}
}
