package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit-status convention shared with the
// other cbws commands: 2 only for usage errors (bad flags/arguments),
// 1 for runtime failures (unreadable files, bad input, gate
// violations), 0 on success. The alloc pass is canned: allocPass is
// replaced before the test goes parallel.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	if err := os.WriteFile(baseline, []byte(`{"benchmarks":{"BenchmarkA":{"ns_per_op":100,"allocs_per_op":2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(malformed, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	okBench := "BenchmarkA 100 120 ns/op 0 B/op 2 allocs/op\n"
	slowBench := "BenchmarkA 100 900 ns/op 0 B/op 2 allocs/op\n"
	// A timing pass whose allocs/op drift with the collector: the gate
	// must not read them.
	gcBench := "BenchmarkA 100 120 ns/op 0 B/op 3 allocs/op\nBenchmarkA 100 110 ns/op 0 B/op 4 allocs/op\n"
	// Canned alloc passes, selected by -bench: one that reads the pin
	// exactly, one extra allocation, one without the gated benchmark,
	// and one whose build fails.
	passes := map[string]string{
		"ok":    "BenchmarkA 20 130 ns/op 0 B/op 2 allocs/op\n",
		"extra": "BenchmarkA 20 130 ns/op 8 B/op 3 allocs/op\n",
		"other": "BenchmarkB 20 130 ns/op 0 B/op 2 allocs/op\n",
	}
	allocPass = func(bench string) ([]byte, error) {
		out, ok := passes[bench]
		if !ok {
			return []byte("build failed"), errors.New("exit status 1")
		}
		return []byte(out), nil
	}
	t.Parallel()

	tests := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"bad flag", []string{"-nonsense"}, "", 2},
		{"unexpected argument", []string{"-baseline", baseline, "-bench", "ok", "extra"}, "", 2},
		{"neither baseline nor write", []string{"-bench", "ok"}, "", 2},
		{"both baseline and write", []string{"-baseline", baseline, "-write", baseline, "-bench", "ok"}, "", 2},
		{"gating without -bench is a usage error", []string{"-baseline", baseline}, okBench, 2},
		{"missing input file is a runtime failure", []string{"-baseline", baseline, "-bench", "ok", "-input", filepath.Join(dir, "nope")}, "", 1},
		{"missing baseline file is a runtime failure", []string{"-baseline", filepath.Join(dir, "nope.json"), "-bench", "ok"}, okBench, 1},
		{"malformed baseline is a runtime failure", []string{"-baseline", malformed, "-bench", "ok"}, okBench, 1},
		{"empty baseline is a runtime failure", []string{"-baseline", empty, "-bench", "ok"}, okBench, 1},
		{"no bench results is a runtime failure", []string{"-baseline", baseline, "-bench", "ok"}, "PASS\n", 1},
		{"gate violation exits 1", []string{"-baseline", baseline, "-bench", "ok"}, slowBench, 1},
		{"clean gate exits 0", []string{"-baseline", baseline, "-bench", "ok"}, okBench, 0},
		{"write exits 0", []string{"-write", filepath.Join(dir, "out.json"), "-bench", "ok"}, okBench, 0},
		{"alloc pass pins allocs/op over timing-pass drift", []string{"-baseline", baseline, "-bench", "ok"}, gcBench, 0},
		{"alloc pass catches one extra allocation", []string{"-baseline", baseline, "-bench", "extra"}, okBench, 1},
		{"alloc pass missing the benchmark fails", []string{"-baseline", baseline, "-bench", "other"}, okBench, 1},
		{"failed alloc pass is a runtime failure", []string{"-baseline", baseline, "-bench", "broken"}, okBench, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			got := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit code = %d, want %d\nstderr: %s", got, tc.want, stderr.String())
			}
		})
	}
}

func TestParseLine(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		line string
		ok   bool
		want Measurement
	}{
		{
			name: "plain with allocs",
			line: "BenchmarkCBWSOnAccess         \t       1\t      1127 ns/op\t       0 B/op\t       0 allocs/op",
			ok:   true,
			want: Measurement{Name: "BenchmarkCBWSOnAccess", NsPerOp: 1127, AllocsPerOp: 0, HasAllocs: true},
		},
		{
			name: "gomaxprocs suffix stripped",
			line: "BenchmarkPipelineEventsPerSec-8 \t     100\t  891634 ns/op\t 174.0 Mevents/s\t   13656 B/op\t       4 allocs/op",
			ok:   true,
			want: Measurement{Name: "BenchmarkPipelineEventsPerSec", NsPerOp: 891634, AllocsPerOp: 4, HasAllocs: true},
		},
		{
			name: "custom metric between ns/op and allocs",
			line: "BenchmarkX-4 10 250.5 ns/op 42.0 widgets/s 1 allocs/op",
			ok:   true,
			want: Measurement{Name: "BenchmarkX", NsPerOp: 250.5, AllocsPerOp: 1, HasAllocs: true},
		},
		{
			name: "no allocs reported",
			line: "BenchmarkY 5 99 ns/op",
			ok:   true,
			want: Measurement{Name: "BenchmarkY", NsPerOp: 99},
		},
		{
			name: "hyphenated name keeps non-numeric suffix",
			line: "BenchmarkZ-fast 5 99 ns/op",
			ok:   true,
			want: Measurement{Name: "BenchmarkZ-fast", NsPerOp: 99},
		},
		{name: "header", line: "goos: linux", ok: false},
		{name: "pass", line: "PASS", ok: false},
		{name: "ok line", line: "ok  \tcbws\t0.005s", ok: false},
		{name: "empty", line: "", ok: false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, ok := parseLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestParseBenchFoldsRepeats(t *testing.T) {
	t.Parallel()
	in := strings.NewReader(`
BenchmarkA 100 200 ns/op 0 B/op 3 allocs/op
BenchmarkA 100 150 ns/op 0 B/op 3 allocs/op
BenchmarkA 100 180 ns/op 0 B/op 3 allocs/op
`)
	got, err := parseBench(in, true)
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkA"]
	if m.NsPerOp != 150 {
		t.Fatalf("min ns/op = %v, want 150", m.NsPerOp)
	}
	if !m.HasAllocs || m.AllocsPerOp != 3 {
		t.Fatalf("allocs = %+v, want 3", m)
	}
}

func TestParseBenchRejectsAllocDrift(t *testing.T) {
	t.Parallel()
	in := strings.NewReader(`
BenchmarkA 100 200 ns/op 0 B/op 3 allocs/op
BenchmarkA 100 150 ns/op 0 B/op 4 allocs/op
`)
	if _, err := parseBench(in, true); err == nil {
		t.Fatal("expected error on allocs/op drift across repeats")
	}
}

func TestGate(t *testing.T) {
	t.Parallel()
	base := Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 2},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 0},
	}}
	ok := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: 2, HasAllocs: true},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 1999, AllocsPerOp: 0, HasAllocs: true},
		"BenchmarkC": {Name: "BenchmarkC", NsPerOp: 5, AllocsPerOp: 9, HasAllocs: true}, // ungated extra
	}
	if bad := gate(base, ok, 2.0); len(bad) != 0 {
		t.Fatalf("unexpected violations: %v", bad)
	}

	slow := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 201, AllocsPerOp: 2, HasAllocs: true},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 1, HasAllocs: true},
	}
	bad := gate(base, slow, 2.0)
	if len(bad) != 2 {
		t.Fatalf("want 2 violations (time + allocs), got %v", bad)
	}

	missing := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 2, HasAllocs: true},
	}
	bad = gate(base, missing, 2.0)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("want a missing-benchmark violation, got %v", bad)
	}

	noAllocs := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 0, HasAllocs: true},
	}
	bad = gate(base, noAllocs, 2.0)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs/op") {
		t.Fatalf("want an allocs-missing violation, got %v", bad)
	}
}

func TestGateBaselineRatioOverride(t *testing.T) {
	t.Parallel()
	base := Baseline{
		MaxTimeRatio: 3.0,
		Benchmarks:   map[string]BaselineEntry{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0}},
	}
	got := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 250, AllocsPerOp: 0, HasAllocs: true},
	}
	if bad := gate(base, got, 2.0); len(bad) != 0 {
		t.Fatalf("baseline ratio 3.0 should win over default 2.0: %v", bad)
	}
}

// TestWriteBaselineMerges pins -write's merge: writing one measured
// benchmark into a two-entry file replaces that entry, keeps the other
// and the file's max_time_ratio, and names the other as kept unmeasured.
func TestWriteBaselineMerges(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "base.json")
	before := `{"max_time_ratio":3,"benchmarks":{` +
		`"BenchmarkA":{"ns_per_op":100,"allocs_per_op":2},` +
		`"BenchmarkB":{"ns_per_op":500,"allocs_per_op":7}}}`
	if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	got := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 80, AllocsPerOp: 1, HasAllocs: true},
	}
	kept, err := writeBaseline(path, got, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, []string{"BenchmarkB"}) {
		t.Errorf("kept unmeasured entries = %q, want [BenchmarkB]", kept)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := Baseline{MaxTimeRatio: 3, Benchmarks: map[string]BaselineEntry{
		"BenchmarkA": {NsPerOp: 80, AllocsPerOp: 1},
		"BenchmarkB": {NsPerOp: 500, AllocsPerOp: 7},
	}}
	if !reflect.DeepEqual(base, want) {
		t.Errorf("merged baseline = %+v, want %+v", base, want)
	}

	// A measurement without allocs/op is refused and leaves the file
	// as it was.
	if _, err := writeBaseline(path, map[string]Measurement{"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 1}}, 2.0); err == nil {
		t.Error("writeBaseline pinned a benchmark without allocs/op")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Errorf("refused write changed the file:\n%s", after)
	}
}

// TestWriteBaselineCreates pins that -write into a missing file
// creates it with the command-line ratio.
func TestWriteBaselineCreates(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "new.json")
	got := map[string]Measurement{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 80, AllocsPerOp: 1, HasAllocs: true},
	}
	if kept, err := writeBaseline(path, got, 2.5); err != nil || kept != nil {
		t.Fatalf("writeBaseline = %q, %v; want no kept entries", kept, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.MaxTimeRatio != 2.5 || len(base.Benchmarks) != 1 {
		t.Errorf("created baseline = %+v", base)
	}
}
