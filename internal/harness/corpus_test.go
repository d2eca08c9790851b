package harness

import (
	"path/filepath"
	"strings"
	"testing"

	"cbws/internal/registry"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// packWorkload packs the first max instructions of a workload into a
// .cbwc file under dir and returns the file path.
func packWorkload(t *testing.T, dir, name string, max uint64) string {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".cbwc")
	if _, err := corpus.Pack(path, spec.Make(), max, corpus.Options{}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenCorpusDir(t *testing.T) {
	dir := t.TempDir()
	packWorkload(t, dir, "stencil-default", 200_000)
	packWorkload(t, dir, "429.mcf-ref", 200_000)

	src, err := OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	want := []string{"429.mcf-ref", "stencil-default"}
	got := src.Names()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	h, ok := src.Hash("stencil-default")
	if !ok || len(h) != 64 {
		t.Fatalf("Hash() = %q, %v", h, ok)
	}
	if err := src.CheckCovers("stencil-default", 200_000); err != nil {
		t.Fatalf("CheckCovers within the corpus: %v", err)
	}
	if err := src.CheckCovers("stencil-default", 10_000_000); err == nil {
		t.Fatal("CheckCovers passed a run longer than the corpus")
	}
	if err := src.CheckCovers("radix-simlarge", 10_000_000); err != nil {
		t.Fatalf("CheckCovers for a workload without a corpus: %v", err)
	}
}

func TestOpenCorpusDirErrors(t *testing.T) {
	if _, err := OpenCorpusDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenCorpusDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	// Two files claiming the same workload name must be rejected.
	dir := t.TempDir()
	spec, _ := workload.ByName("stencil-default")
	for _, f := range []string{"a.cbwc", "b.cbwc"} {
		if _, err := corpus.Pack(filepath.Join(dir, f), spec.Make(), 50_000, corpus.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenCorpusDir(dir); err == nil || !strings.Contains(err.Error(), "two corpora") {
		t.Fatalf("duplicate names: got %v", err)
	}
}

// TestCorpusReplayMatchesLiveSimulation is the integration pin: a
// matrix cell simulated from corpus replay must produce exactly the
// metrics of the same cell simulated from the live generator. This is
// what lets corpus-fed runs share golden manifests and cbwsd cache
// entries with live runs.
func TestCorpusReplayMatchesLiveSimulation(t *testing.T) {
	opts := tinyOptions()
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("cbws")

	live, err := NewMatrix(opts).Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	packWorkload(t, dir, "stencil-default", opts.Sim.MaxInstructions)
	src, err := OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	copts := opts
	copts.Corpus = src
	res, err := NewMatrix(copts).Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != live.Metrics {
		t.Errorf("corpus replay metrics diverge from live simulation:\n corpus: %+v\n live:   %+v",
			res.Metrics, live.Metrics)
	}
}

// TestCorpusOverrideLeavesOthersAlone checks a spec without a corpus
// passes through Override untouched.
func TestCorpusOverrideLeavesOthersAlone(t *testing.T) {
	dir := t.TempDir()
	packWorkload(t, dir, "stencil-default", 50_000)
	src, err := OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	spec, _ := workload.ByName("429.mcf-ref")
	if got := src.Override(spec); got.Name != spec.Name || got.Make == nil {
		t.Fatal("Override mangled a corpus-less spec")
	}
	backed, _ := workload.ByName("stencil-default")
	over := src.Override(backed)
	if over.Make == nil {
		t.Fatal("Override dropped Make")
	}
	if gen := over.Make(); gen.Name() != "stencil-default" {
		t.Fatalf("replayer name %q", gen.Name())
	}
}
