package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cbws/internal/cli"
	"cbws/internal/harness"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-argument"},
		{"-n", "1000", "-warmup", "1000"}, // warmup must be < n
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != cli.ExitUsage {
			t.Errorf("run(%q) = %d, want %d (stderr %s)", args, code, cli.ExitUsage, stderr.String())
		}
	}
}

// TestFilterSelf pins the one-peer-list-per-fleet contract: a worker
// handed the full fleet list drops exactly its own advertised URL.
func TestFilterSelf(t *testing.T) {
	fleet := []string{"http://a:1", "http://b:2/", "http://c:3"}
	got := filterSelf(fleet, "http://b:2")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://c:3" {
		t.Fatalf("filterSelf = %v", got)
	}
	if got := filterSelf(fleet, "http://elsewhere:9"); len(got) != 3 {
		t.Fatalf("foreign self filtered something: %v", got)
	}
	if got := filterSelf(nil, "http://a:1"); got != nil {
		t.Fatalf("empty peers: %v", got)
	}
	if got := splitList(" http://a:1, ,http://b:2 "); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitList = %v", got)
	}
}

// TestPeerConfigErrors checks a bad -peers list dies at startup, after
// the bind (the listener must not leak the port into the error path).
func TestPeerConfigErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-peers", "http://x:1,http://x:1"}, &stdout, &stderr)
	if code != cli.ExitFail || !strings.Contains(stderr.String(), "duplicate") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}

func TestBadListenAddr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:http"}, &stdout, &stderr); code != cli.ExitFail {
		t.Fatalf("run with bad -addr = %d, want %d", code, cli.ExitFail)
	}
}

// TestServeSubmitSigtermDrain is the full daemon lifecycle: start on an
// ephemeral port published through -addr-file, serve a job, then drain
// cleanly on SIGTERM with exit 0, leaving the job's run record on disk.
func TestServeSubmitSigtermDrain(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-cache-dir", cacheDir, "-workers", "1",
			"-n", "200000", "-warmup", "50000",
		}, &stdout, &stderr)
	}()

	base := "http://" + waitAddr(t, addrFile)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status": "ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	key := submitAndWait(t, base, `{"workload":"stencil-default","prefetcher":"none"}`)
	resp, err = http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after completion: %d", resp.StatusCode)
	}

	// SIGTERM: the daemon must drain and exit 0. run installed the
	// handler via signal.NotifyContext, so the process-wide signal is
	// caught there, not by the test binary's default disposition.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != cli.ExitOK {
			t.Fatalf("exit %d after SIGTERM, want 0\nstderr %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", stderr.String())
	}
	rec, err := harness.ReadRunRecord(filepath.Join(cacheDir, key+".json"))
	if err != nil {
		t.Fatalf("cached result not persisted: %v", err)
	}
	if rec.Workload != "stencil-default" || rec.Prefetcher != "none" {
		t.Fatalf("persisted record names %q × %q, want stencil-default × none", rec.Workload, rec.Prefetcher)
	}
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Fatal("addr file not cleaned up on exit")
	}
}

// waitAddr polls the -addr-file until the daemon publishes its bound
// address.
func waitAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never published its address")
	return ""
}

// submitAndWait posts one job and polls it to completion, returning its
// content address.
func submitAndWait(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var view struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for view.Status != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.Status)
		}
		if view.Status == "failed" || view.Status == "canceled" {
			t.Fatalf("job %s: %s", view.Key, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + view.Key)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
	}
	return view.Key
}

func unmarshal(raw []byte, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding %q: %w", raw, err)
	}
	return nil
}
