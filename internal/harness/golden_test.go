package harness

import (
	"bytes"
	"path/filepath"
	"testing"

	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// goldenTestMatrix builds a small but non-trivial matrix manifest with
// the given Fill parallelism.
func goldenTestMatrix(t *testing.T, parallel int, warmup uint64) *GoldenManifest {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 60_000
	cfg.WarmupInstructions = warmup
	m := NewMatrix(Options{Sim: cfg, Parallel: parallel})

	specs := []workload.Spec{}
	for _, name := range []string{"stencil-default", "429.mcf-ref"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		specs = append(specs, s)
	}
	factories := []Factory{}
	for _, name := range []string{"none", "cbws", "sms"} {
		f, ok := registry.ByName(name)
		if !ok {
			t.Fatalf("prefetcher %q missing", name)
		}
		factories = append(factories, f)
	}
	g, err := BuildGolden(m, specs, factories)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenDeterministicAcrossParallelism is the determinism pin: the
// manifest built with serial Fill and the one built with concurrent
// Fill must encode to identical bytes.
func TestGoldenDeterministicAcrossParallelism(t *testing.T) {
	serial := goldenTestMatrix(t, 1, 15_000)
	parallel := goldenTestMatrix(t, 4, 15_000)

	sb, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parallel.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Fatalf("manifests diverged across parallelism:\nserial:\n%s\nparallel:\n%s", sb, pb)
	}
	if diff := DiffGolden(serial, parallel); len(diff) != 0 {
		t.Fatalf("DiffGolden reported on identical manifests: %v", diff)
	}
	if len(serial.Cells) != 6 {
		t.Fatalf("expected 6 cells, got %d", len(serial.Cells))
	}
	if serial.MatrixHash == "" {
		t.Fatal("empty matrix hash")
	}
}

// TestGoldenDiffDetectsDivergence perturbs the measured window and
// requires the diff to notice both the config line and the changed
// cell hashes.
func TestGoldenDiffDetectsDivergence(t *testing.T) {
	a := goldenTestMatrix(t, 4, 15_000)
	b := goldenTestMatrix(t, 4, 30_000)
	diff := DiffGolden(a, b)
	if len(diff) == 0 {
		t.Fatal("diff missed a changed warmup window")
	}
}

// TestGoldenRoundTrip writes a manifest to disk and reads it back.
func TestGoldenRoundTrip(t *testing.T) {
	g := goldenTestMatrix(t, 2, 15_000)
	path := t.TempDir() + "/seed.json"
	if err := WriteGolden(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffGolden(g, back); len(diff) != 0 {
		t.Fatalf("round-trip diverged: %v", diff)
	}
}

// TestGoldenCoversRegistry is the contract check on the roster: every
// registered scheme has exactly one golden/seed.json cell per workload,
// and the manifest pins no scheme the registry does not know. A scheme
// added without golden cells, or dropped while its cells stay, fails
// here.
func TestGoldenCoversRegistry(t *testing.T) {
	g, err := ReadGolden(filepath.Join("..", "..", "golden", "seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]map[string]int{} // prefetcher -> workload -> count
	for _, c := range g.Cells {
		if cells[c.Prefetcher] == nil {
			cells[c.Prefetcher] = map[string]int{}
		}
		cells[c.Prefetcher][c.Workload]++
	}
	for _, f := range registry.All() {
		for _, spec := range workload.All() {
			if n := cells[f.Name][spec.Name]; n != 1 {
				t.Errorf("%s/%s: %d golden cells, want 1", spec.Name, f.Name, n)
			}
		}
		if n := len(cells[f.Name]); n != len(workload.All()) {
			t.Errorf("%s: golden cells on %d workloads, want %d", f.Name, n, len(workload.All()))
		}
		delete(cells, f.Name)
	}
	for name := range cells {
		t.Errorf("golden/seed.json pins %q, which the registry does not list", name)
	}
}
