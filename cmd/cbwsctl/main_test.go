package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cbws/internal/cli"
	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/service"
	"cbws/internal/workload"
)

// startDaemon brings up an in-process cbwsd-equivalent service.
func startDaemon(t *testing.T, cfg service.Config) (*service.Service, string) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts.URL
}

func smallConfig() service.Config {
	base := harness.DefaultOptions().Sim
	base.MaxInstructions = 200_000
	base.WarmupInstructions = 50_000
	return service.Config{Workers: 2, QueueDepth: 16, BaseSim: base, CodeVersion: "test"}
}

func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"-no-such-flag"},
		{"submit"},                     // missing -workload/-prefetcher
		{"status"},                     // missing KEY
		{"status", "k1", "k2"},         // too many
		{"sweep", "-workloads", "a,b"}, // missing -prefetchers
		{"result"},                     // missing KEY
	} {
		code, _, _ := runCtl(t, args...)
		if code != cli.ExitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

func TestSubmitStatusResult(t *testing.T) {
	_, url := startDaemon(t, smallConfig())

	code, out, errOut := runCtl(t, "-server", url, "submit",
		"-workload", "stencil-default", "-prefetcher", "stride", "-wait")
	if code != cli.ExitOK {
		t.Fatalf("submit -wait: exit %d, stderr %s", code, errOut)
	}
	fields := strings.Fields(out)
	if len(fields) < 3 || len(fields[0]) != 64 || !strings.Contains(out, "done") {
		t.Fatalf("submit output: %q", out)
	}
	key := fields[0]

	code, out, _ = runCtl(t, "-server", url, "status", key)
	if code != cli.ExitOK || !strings.Contains(out, "done") {
		t.Fatalf("status: exit %d, %q", code, out)
	}

	dest := filepath.Join(t.TempDir(), "run.json")
	code, _, errOut = runCtl(t, "-server", url, "result", "-o", dest, key)
	if code != cli.ExitOK {
		t.Fatalf("result: exit %d, stderr %s", code, errOut)
	}
	rec, err := harness.ReadRunRecord(dest)
	if err != nil {
		t.Fatalf("served record invalid: %v", err)
	}
	if rec.Workload != "stencil-default" || rec.Prefetcher != "stride" {
		t.Fatalf("wrong record: %s/%s", rec.Workload, rec.Prefetcher)
	}

	// Failures surface the daemon's error message and exit 1.
	code, _, errOut = runCtl(t, "-server", url, "submit", "-workload", "stencil-default", "-prefetcher", "CBWS")
	if code != cli.ExitFail || !strings.Contains(errOut, `did you mean "cbws"?`) {
		t.Fatalf("bad prefetcher: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = runCtl(t, "-server", url, "result", strings.Repeat("0", 64))
	if code != cli.ExitFail || !strings.Contains(errOut, "HTTP 404") {
		t.Fatalf("missing result: exit %d, stderr %q", code, errOut)
	}
}

func TestSweepGoldenAndCacheReplay(t *testing.T) {
	cfg := smallConfig()
	svc, url := startDaemon(t, cfg)

	// Pin a golden manifest for the swept sub-matrix with a direct
	// harness run on the same configuration.
	var specs []workload.Spec
	for _, name := range []string{"stencil-default", "fft-simlarge"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		specs = append(specs, s)
	}
	var factories []harness.Factory
	for _, name := range []string{"none", "cbws"} {
		f, err := registry.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		factories = append(factories, f)
	}
	manifest, err := harness.BuildGolden(harness.NewMatrix(harness.Options{Sim: cfg.BaseSim}), specs, factories)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join(t.TempDir(), "golden.json")
	if err := harness.WriteGolden(goldenPath, manifest); err != nil {
		t.Fatal(err)
	}

	outDir := t.TempDir()
	sweep := []string{"-server", url, "sweep",
		"-workloads", "stencil-default,fft-simlarge", "-prefetchers", "none,cbws",
		"-golden", goldenPath, "-out", outDir}
	code, out, errOut := runCtl(t, sweep...)
	if code != cli.ExitOK {
		t.Fatalf("sweep: exit %d\nstdout %s\nstderr %s", code, out, errOut)
	}
	if !strings.Contains(out, "sweep: 4 cells") || !strings.Contains(out, "golden: all 4 cells match") {
		t.Fatalf("sweep output: %s", out)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil || len(entries) != 4 {
		t.Fatalf("sweep -out wrote %d files (err %v), want 4", len(entries), err)
	}

	// The repeat sweep must be answered entirely from the cache.
	hits0 := svc.Counters().CacheHits
	code, out, errOut = runCtl(t, append(sweep, "-require-cached")...)
	if code != cli.ExitOK {
		t.Fatalf("cached sweep: exit %d\nstdout %s\nstderr %s", code, out, errOut)
	}
	if !strings.Contains(out, "4 served from cache") {
		t.Fatalf("cached sweep output: %s", out)
	}
	if got := svc.Counters().CacheHits - hits0; got != 4 {
		t.Fatalf("repeat sweep scored %d cache hits, want 4", got)
	}

	// A fresh sweep with -require-cached must fail loudly.
	code, _, errOut = runCtl(t, "-server", url, "sweep",
		"-workloads", "bfs-1m", "-prefetchers", "none", "-require-cached")
	if code != cli.ExitFail || !strings.Contains(errOut, "-require-cached") {
		t.Fatalf("uncached -require-cached sweep: exit %d, stderr %q", code, errOut)
	}
}

// startFleet brings up n peered in-process daemons: every worker knows
// the others' URLs, so a cache entry anywhere serves the whole fleet.
// Listeners are bound first so the peer lists can be complete before
// any service starts — the same order cbwsd uses.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		cfg := smallConfig()
		for j, u := range urls {
			if j != i {
				cfg.Peers = append(cfg.Peers, u)
			}
		}
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
	}
	return urls
}

// TestSweepAgainstFleet shards a sweep across two peered daemons and
// replays it: the repeat must be answered entirely from the fleet's
// caches, proving ring routing is stable sweep to sweep.
func TestSweepAgainstFleet(t *testing.T) {
	urls := startFleet(t, 2)
	fleet := strings.Join(urls, ",")

	sweep := []string{"-server", fleet, "sweep",
		"-workloads", "stencil-default,fft-simlarge", "-prefetchers", "none,stride"}
	code, out, errOut := runCtl(t, sweep...)
	if code != cli.ExitOK {
		t.Fatalf("fleet sweep: exit %d\nstdout %s\nstderr %s", code, out, errOut)
	}
	if !strings.Contains(out, "sweep: 4 cells") {
		t.Fatalf("fleet sweep output: %s", out)
	}

	code, out, errOut = runCtl(t, append(sweep, "-require-cached")...)
	if code != cli.ExitOK {
		t.Fatalf("fleet replay: exit %d\nstdout %s\nstderr %s", code, out, errOut)
	}
	if !strings.Contains(out, "4 served from cache") {
		t.Fatalf("fleet replay output: %s", out)
	}

	// status/result find a key regardless of which worker computed it.
	fields := strings.Fields(out)
	var key string
	for _, f := range fields {
		if len(f) == 64 {
			key = f
			break
		}
	}
	if key == "" {
		// The replay output lists metrics, not keys; look one up instead.
		code, out, _ := runCtl(t, "-server", fleet, "submit",
			"-workload", "stencil-default", "-prefetcher", "none")
		if code != cli.ExitOK {
			t.Fatalf("submit for key: %d", code)
		}
		key = strings.Fields(out)[0]
	}
	if code, out, errOut := runCtl(t, "-server", fleet, "status", key); code != cli.ExitOK || !strings.Contains(out, "done") {
		t.Fatalf("fleet status: exit %d, %q, stderr %s", code, out, errOut)
	}
	if code, _, errOut := runCtl(t, "-server", fleet, "result", "-o", filepath.Join(t.TempDir(), "r.json"), key); code != cli.ExitOK {
		t.Fatalf("fleet result: exit %d, stderr %s", code, errOut)
	}
}

// TestFleetDuplicateServersRejected checks a malformed -server list is
// a usage error, not a skewed ring.
func TestFleetDuplicateServersRejected(t *testing.T) {
	code, _, errOut := runCtl(t, "-server", "http://x:1,http://x:1", "status", strings.Repeat("0", 64))
	if code != cli.ExitUsage || !strings.Contains(errOut, "duplicate") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

func TestSweepRetriesBackpressure(t *testing.T) {
	// The first job's peer probe runs on the daemon's only slot; the
	// fake sibling answers it only once a submission has bounced, so
	// the depth-1 queue is full for the third cell whatever the
	// simulation speed.
	var svc *service.Service
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(time.Minute)
		for svc.Counters().Rejected == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.RetryAfter = time.Second
	cfg.Peers = []string{peer.URL}
	cfg.PeerTimeout = 2 * time.Minute
	svc, url := startDaemon(t, cfg)

	// Three cells through a depth-1 queue: a submit is bounced with 429
	// and must be retried until the queue frees.
	code, out, errOut := runCtl(t, "-server", url, "-timeout", "2m", "sweep",
		"-workloads", "stencil-default,fft-simlarge,bfs-1m", "-prefetchers", "none")
	if code != cli.ExitOK {
		t.Fatalf("sweep under backpressure: exit %d\nstdout %s\nstderr %s", code, out, errOut)
	}
	if !strings.Contains(errOut, "queue full, retrying") {
		t.Fatalf("sweep never hit backpressure\nstderr %s", errOut)
	}
	if !strings.Contains(out, "sweep: 3 cells") {
		t.Fatalf("sweep output: %s", out)
	}
}
