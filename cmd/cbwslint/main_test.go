package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes pins the driver's exit-status convention end to end:
// 2 for usage errors, 1 for findings and load failures, 0 when clean.
func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring, "" to skip
		wantStderr string // substring, "" to skip
	}{
		{
			name:     "bad flag is a usage error",
			args:     []string{"-nonsense"},
			wantCode: 2,
		},
		{
			name:       "no packages is a usage error",
			args:       []string{},
			wantCode:   2,
			wantStderr: "usage: cbwslint",
		},
		{
			name:       "list exits clean",
			args:       []string{"-list"},
			wantCode:   0,
			wantStdout: "cbws/hotpathalloc",
		},
		{
			name:     "unresolvable pattern is a runtime failure",
			args:     []string{"./does-not-exist"},
			wantCode: 1,
		},
		{
			name:       "findings exit 1",
			args:       []string{"../../internal/lint/testdata/src/batchalias"},
			wantCode:   1,
			wantStdout: "(cbws/batchalias)",
			wantStderr: "findings",
		},
		{
			// Named alone, prefetch must still see the //cbws:hotpath
			// facts of its unnamed dependency mem (LineAddr.Delta).
			name:     "package subset imports its dependencies' facts",
			args:     []string{"../../internal/prefetch"},
			wantCode: 0,
		},
		{
			name:     "clean package exits 0",
			args:     []string{"."},
			wantCode: 0,
		},
		{
			name:       "list includes the v2 analyzers",
			args:       []string{"-list"},
			wantCode:   0,
			wantStdout: "cbws/guardedby",
		},
		{
			name:       "unknown analyzer name is a usage error",
			args:       []string{"-analyzers", "nope", "."},
			wantCode:   2,
			wantStderr: `unknown analyzer "nope"`,
		},
		{
			name:     "analyzer subset skips other analyzers' findings",
			args:     []string{"-analyzers", "guardedby", "../../internal/lint/testdata/src/batchalias"},
			wantCode: 0,
		},
		{
			name:       "write-compat refuses multiple packages",
			args:       []string{"-write-compat", ".", "../../internal/lint"},
			wantCode:   2,
			wantStderr: "exactly one package",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), tc.wantStdout)
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}

// TestWriteCompat drives the manifest generator end to end in a
// scratch package: initial freeze, byte-determinism against the
// handwritten fixture manifest, idempotence, breaking-change refusal
// without a note, and the CompatVersion bump with one.
func TestWriteCompat(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "wirecompat")
	// The scratch dir must live inside the module for go list to load it.
	dir, err := os.MkdirTemp(filepath.Join("..", "..", "internal", "lint", "testdata"), "wiregen")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src, err := os.ReadFile(filepath.Join(fixture, "wire.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wire.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	runIn := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	// Initial freeze: version 1, byte-identical to the handwritten
	// fixture manifest (the generator is the source of truth for both).
	if code, _, errOut := runIn("-write-compat", dir); code != 0 {
		t.Fatalf("initial -write-compat exited %d: %s", code, errOut)
	}
	got, err := os.ReadFile(filepath.Join(dir, "compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fixture, "compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("generated manifest differs from fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Idempotent regeneration keeps the bytes and the version.
	if code, _, errOut := runIn("-write-compat", dir); code != 0 {
		t.Fatalf("second -write-compat exited %d: %s", code, errOut)
	}
	again, err := os.ReadFile(filepath.Join(dir, "compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Error("regeneration without source changes is not byte-identical")
	}

	// A breaking edit (json tag rename) is refused without a note...
	broken := bytes.Replace(src, []byte("`json:\"workload\"`"), []byte("`json:\"workload_v2\"`"), 1)
	if bytes.Equal(broken, src) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(filepath.Join(dir, "wire.go"), broken, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runIn("-write-compat", dir)
	if code != 1 {
		t.Fatalf("breaking -write-compat without note exited %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(out, "breaking:") || !strings.Contains(errOut, "-compat-bump") {
		t.Errorf("missing breaking report or bump hint:\nstdout: %s\nstderr: %s", out, errOut)
	}

	// ...and bumps CompatVersion with one.
	if code, _, errOut := runIn("-write-compat", "-compat-bump", "rename workload tag", dir); code != 0 {
		t.Fatalf("-write-compat with note exited %d: %s", code, errOut)
	}
	bumped, err := os.ReadFile(filepath.Join(dir, "compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(bumped), `"compat_version": 2`) ||
		!strings.Contains(string(bumped), "rename workload tag") {
		t.Errorf("bumped manifest missing version 2 or note:\n%s", bumped)
	}
}
