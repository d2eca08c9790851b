package harness

import (
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

func TestCellFileName(t *testing.T) {
	cases := []struct{ wl, pf, want string }{
		{"stencil-default", "none", "stencil-default__none"},
		{"429.mcf-ref", "ghb-pc/dc", "429.mcf-ref__ghb-pc-dc"},
		{"a b", `c\d:e`, "a-b__c-d-e"},
	}
	for _, c := range cases {
		if got := CellFileName(c.wl, c.pf); got != c.want {
			t.Errorf("CellFileName(%q, %q) = %q, want %q", c.wl, c.pf, got, c.want)
		}
	}
}

// TestRunRecordRoundTrip runs one observed cell — deliberately a scheme
// whose name contains a path separator — and checks the written record:
// it reads back, validates, and matches the in-memory result exactly.
func TestRunRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	opts.ObsDir = dir
	opts.SampleInterval = 20_000
	m := NewMatrix(opts)

	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("ghb-pc/dc")
	res, err := m.Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(dir, CellFileName(spec.Name, f.Name))
	rec, err := ReadRunRecord(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != spec.Name || rec.Prefetcher != f.Name {
		t.Errorf("record identity %s/%s, want %s/%s", rec.Workload, rec.Prefetcher, spec.Name, f.Name)
	}
	if rec.Metrics != res.Metrics {
		t.Errorf("record metrics diverge from the run:\nrecord: %+v\nrun:    %+v", rec.Metrics, res.Metrics)
	}
	if rec.SampleInterval != opts.SampleInterval {
		t.Errorf("record interval %d, want %d", rec.SampleInterval, opts.SampleInterval)
	}
	if rec.Config.MaxInstructions != opts.Sim.MaxInstructions {
		t.Errorf("record config not preserved")
	}

	// CSV: header plus one row per sample, rows consistent with the JSON.
	cf, err := os.Open(base + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	rows, err := csv.NewReader(cf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(rec.Samples) {
		t.Fatalf("CSV has %d rows, want header + %d samples", len(rows), len(rec.Samples))
	}
	if rows[0][0] != "instructions" || rows[0][len(rows[0])-1] != "final" {
		t.Errorf("unexpected CSV header: %v", rows[0])
	}
	if got := rows[len(rows)-1][len(rows[0])-1]; got != "true" {
		t.Errorf("last CSV row final = %s, want true", got)
	}
}

// TestRunRecordValidateRejects tampers with a valid record field by
// field and checks each corruption is caught.
func TestRunRecordValidateRejects(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	opts.ObsDir = dir
	m := NewMatrix(opts)
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("none")
	if _, err := m.Get(spec, f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CellFileName(spec.Name, f.Name)+".json")
	good, err := ReadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}

	tamper := []struct {
		name string
		mut  func(r *RunRecord)
	}{
		{"schema", func(r *RunRecord) { r.Schema = 99 }},
		{"workload", func(r *RunRecord) { r.Workload = "" }},
		{"go_version", func(r *RunRecord) { r.GoVersion = "" }},
		{"wall_time", func(r *RunRecord) { r.WallTime = -1 }},
		{"interval", func(r *RunRecord) { r.SampleInterval = 0 }},
		{"empty series", func(r *RunRecord) { r.Samples = nil }},
		{"no final", func(r *RunRecord) { r.Samples[len(r.Samples)-1].Final = false }},
		{"not monotonic", func(r *RunRecord) { r.Samples[0].Instructions = 1 << 60 }},
		{"sum mismatch", func(r *RunRecord) { r.Samples[0].Interval.Instructions += 7 }},
	}
	for _, tc := range tamper {
		r := *good
		r.Samples = append([]sim.SamplePoint(nil), good.Samples...)
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: corrupted record validated", tc.name)
		}
	}
}

// TestFillContextAggregatesErrors breaks the configuration so every run
// fails and checks Fill reports all of them, not just the first.
func TestFillContextAggregatesErrors(t *testing.T) {
	opts := tinyOptions()
	opts.Sim.Memory.L1.MSHRs = 0 // invalid: hierarchy construction fails
	m := NewMatrix(opts)

	var specs []workload.Spec
	for _, n := range []string{"stencil-default", "histo-large"} {
		s, _ := workload.ByName(n)
		specs = append(specs, s)
	}
	var fs []Factory
	for _, n := range []string{"none", "sms"} {
		f, _ := registry.ByName(n)
		fs = append(fs, f)
	}
	err := m.Fill(specs, fs)
	if err == nil {
		t.Fatal("Fill with a broken config should fail")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Fill error is not an errors.Join aggregate: %T %v", err, err)
	}
	if got := len(joined.Unwrap()); got != len(specs)*len(fs) {
		t.Errorf("Fill aggregated %d errors, want %d: %v", got, len(specs)*len(fs), err)
	}
	for _, cell := range []string{"stencil-default/none", "histo-large/sms"} {
		if !strings.Contains(err.Error(), cell) {
			t.Errorf("aggregate error does not name cell %s: %v", cell, err)
		}
	}
}

// TestFillContextCancelled checks a cancelled Fill returns ctx.Err()
// exactly once instead of one cancellation per cell.
func TestFillContextCancelled(t *testing.T) {
	m := NewMatrix(tinyOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("none")
	err := m.FillContext(ctx, []workload.Spec{spec}, []Factory{f})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Errorf("cancellation reported %d times, want once: %v", n, err)
	}
}

// TestGetRetriesAfterCancelledOwner checks that a cell whose owning run
// was cancelled is not poisoned: a later Get with a live context
// re-simulates it successfully.
func TestGetRetriesAfterCancelledOwner(t *testing.T) {
	m := NewMatrix(tinyOptions())
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("none")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.GetContext(ctx, spec, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get: err = %v, want context.Canceled", err)
	}
	res, err := m.Get(spec, f)
	if err != nil {
		t.Fatalf("Get after cancelled owner: %v", err)
	}
	if res.Metrics.Instructions == 0 {
		t.Error("retried run produced no instructions")
	}
}
