package main

import (
	"os"
	"path/filepath"
	"testing"

	"cbws/internal/trace/corpus"
)

// silenceStdout redirects os.Stdout for the duration of fn, so
// subcommand happy paths can run in-process without spamming test
// output.
func silenceStdout(t *testing.T, fn func()) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	fn()
}

// TestPackConvertByteIdentity pins the capture/convert equivalence:
// packing a workload directly and converting a CBWT capture of the
// same workload window must produce byte-identical corpora (same
// content address), because both paths see the same event stream.
func TestPackConvertByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cbwt := filepath.Join(dir, "stencil.cbwt")
	direct := filepath.Join(dir, "direct.cbwc")
	converted := filepath.Join(dir, "converted.cbwc")

	silenceStdout(t, func() {
		runCapture([]string{"-workload", "stencil-default", "-n", "50000", "-o", cbwt})
		runPack([]string{"-workload", "stencil-default", "-n", "50000", "-o", direct})
		runPack([]string{"-i", cbwt, "-o", converted})
	})

	a, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(converted)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("direct pack (%d bytes) and CBWT conversion (%d bytes) differ", len(a), len(b))
	}

	c, err := corpus.OpenBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "stencil-default" {
		t.Fatalf("corpus name %q", c.Name())
	}
	if c.Instructions() < 50_000 {
		t.Fatalf("corpus holds %d instructions, want >= 50000", c.Instructions())
	}

	// info on a valid corpus must complete without exiting.
	silenceStdout(t, func() {
		runInfo([]string{direct})
	})
}
