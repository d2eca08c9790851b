package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// testConfig is a small, fast base system for service tests.
func testConfig() Config {
	base := harness.DefaultOptions().Sim
	base.MaxInstructions = 200_000
	base.WarmupInstructions = 50_000
	return Config{
		Workers:        2,
		QueueDepth:     16,
		BaseSim:        base,
		SampleInterval: 50_000,
		CodeVersion:    "test",
	}
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, url, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not JSON (%d): %q", resp.StatusCode, raw)
	}
	return resp.StatusCode, m, resp.Header
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// waitDone polls the status endpoint until the job reaches a terminal
// state.
func waitDone(t *testing.T, url, key string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := getJSON(t, url+"/v1/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d %s", key, code, raw)
		}
		var view JobView
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		switch view.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			var m map[string]any
			_ = json.Unmarshal(raw, &m)
			return m
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", key)
	return nil
}

func TestSubmitRunResult(t *testing.T) {
	svc, ts := newTestService(t, testConfig())

	code, m, _ := postJob(t, ts.URL, `{"workload":"stencil-default","prefetcher":"cbws"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	key, _ := m["key"].(string)
	if len(key) != 64 {
		t.Fatalf("submit returned no content address: %v", m)
	}

	final := waitDone(t, ts.URL, key)
	if final["status"] != string(StatusDone) {
		t.Fatalf("job did not complete: %v", final)
	}
	prog := final["progress"].(map[string]any)
	if prog["instructions"].(float64) != 200_000 {
		t.Fatalf("done job progress: %v", prog)
	}

	code, raw := getJSON(t, ts.URL+"/v1/results/"+key)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, raw)
	}
	var rec harness.RunRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("served result is not a valid PR-2 run record: %v", err)
	}

	// The served metrics must be bit-identical to a direct harness run
	// of the same cell — the service adds caching, not new semantics.
	spec, _ := workload.ByName("stencil-default")
	f, _ := registry.ByName("cbws")
	direct, err := harness.NewMatrix(harness.Options{Sim: svc.cfg.BaseSim}).Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Metrics != direct.Metrics {
		t.Fatalf("served metrics diverge from direct run:\n got %+v\nwant %+v", rec.Metrics, direct.Metrics)
	}
	got := harness.CellHash(sim.Result{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Metrics: rec.Metrics})
	want := harness.CellHash(direct)
	if got != want {
		t.Fatalf("cell hash mismatch: %s vs %s", got, want)
	}

	// Resubmission is answered from the cache.
	code, m, _ = postJob(t, ts.URL, `{"workload":"stencil-default","prefetcher":"cbws"}`)
	if code != http.StatusOK || m["cached"] != true {
		t.Fatalf("resubmit not served from cache: %d %v", code, m)
	}
	if svc.counters.cacheHits.Load() == 0 {
		t.Fatal("cache hit not counted")
	}
}

func TestSubmitIdempotentWhileQueued(t *testing.T) {
	svc, _ := newTestService(t, testConfig())
	spec, err := ParseSpec([]byte(`{"workload":"fft-simlarge","prefetcher":"stride"}`), svc.cfg.BaseSim)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Key != v2.Key {
		t.Fatalf("same spec produced two jobs: %s vs %s", v1.Key, v2.Key)
	}
	if svc.counters.cacheMisses.Load() != 1 {
		t.Fatalf("duplicate submission counted as a second miss: %d", svc.counters.cacheMisses.Load())
	}
}

func TestSubmitErrors(t *testing.T) {
	_, ts := newTestService(t, testConfig())

	// Unknown prefetcher: the 400 body must carry the registry's
	// case-insensitive suggestion verbatim.
	code, m, _ := postJob(t, ts.URL, `{"workload":"stencil-default","prefetcher":"CBWS"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown prefetcher: %d %v", code, m)
	}
	wantMsg := `unknown prefetcher "CBWS" (did you mean "cbws"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`
	if m["error"] != wantMsg {
		t.Fatalf("400 body:\n got %v\nwant %s", m["error"], wantMsg)
	}

	code, m, _ = postJob(t, ts.URL, `{"workload":"no-such","prefetcher":"cbws"}`)
	if code != http.StatusBadRequest || !strings.Contains(m["error"].(string), "unknown workload") {
		t.Fatalf("unknown workload: %d %v", code, m)
	}

	code, m, _ = postJob(t, ts.URL, `{"workload":"stencil-default","prefetcher":"cbws","config":{"NoSuchField":1}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown config field: %d %v", code, m)
	}

	code, m, _ = postJob(t, ts.URL, `{"workload":"stencil-default","prefetcher":"cbws","config":{"WarmupInstructions":300000}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid config (warmup >= max): %d %v", code, m)
	}

	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64))
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: %d %s", code, raw)
	}
	code, raw = getJSON(t, ts.URL+"/v1/results/"+strings.Repeat("0", 64))
	if code != http.StatusNotFound {
		t.Fatalf("unknown result: %d %s", code, raw)
	}
}

// waitStatus polls key until the job reports one of want.
func waitStatus(t *testing.T, svc *Service, key string, want ...Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, ok := svc.Status(key)
		if ok && slices.Contains(want, view.Status) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %.12s: %+v (ok=%v), want %v", key, view, ok, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressureAndDrain holds the single slot through the scheduler
// once job 1 has left the queue, so job 2 stays queued, job 3 bounces
// 429, drain cancels job 2 and job 1 finishes. Job 1 may already be
// done when the test takes the slot, as it is when the simulation
// outruns the polls; every step holds either way.
func TestBackpressureAndDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	svc, ts := newTestService(t, cfg)

	submit := func(wl, pf string) (int, map[string]any, http.Header) {
		return postJob(t, ts.URL, fmt.Sprintf(`{"workload":%q,"prefetcher":%q}`, wl, pf))
	}
	code, m1, _ := submit("stencil-default", "none")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", code, m1)
	}
	k1 := m1["key"].(string)
	waitStatus(t, svc, k1, StatusRunning, StatusDone)
	// The test joins as a started run: it takes the slot at job 1's next
	// quantum (or once job 1 is done) and holds it.
	if !svc.sched.acquire(true) {
		t.Fatal("scheduler refused the test's slot")
	}
	code, m2, _ := submit("fft-simlarge", "none")
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %v", code, m2)
	}
	code, m3, hdr := submit("bfs-1m", "none")
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit should bounce: %d %v", code, m3)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if svc.counters.rejected.Load() != 1 {
		t.Fatalf("rejected counter: %d", svc.counters.rejected.Load())
	}

	// A rejected spec must be resubmittable once there is room — the
	// bounce may not leave a tombstone in the job table.
	bouncedKey := mustSpec(t, svc, "bfs-1m", "none").Key(svc.cfg.CodeVersion)
	if _, ok := svc.Job(bouncedKey); ok {
		t.Fatal("429'd submission left a job behind")
	}

	// Drain: the queued job is canceled at once, the started one
	// finishes once the test hands the slot back.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(ctx) }()
	k2 := m2["key"].(string)
	waitStatus(t, svc, k2, StatusCanceled)
	svc.sched.release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if view1, ok := svc.Status(k1); !ok || view1.Status != StatusDone {
		t.Fatalf("running job after drain: %+v (ok=%v), want done", view1, ok)
	}
	if vars := svc.Counters(); vars.JobsQueued != 0 || vars.JobsRunning != 0 || vars.JobsCanceled != 1 {
		t.Fatalf("counters after drain: queued %d running %d canceled %d, want 0 0 1",
			vars.JobsQueued, vars.JobsRunning, vars.JobsCanceled)
	}

	// Draining services refuse new work.
	if _, err := svc.Submit(mustSpec(t, svc, "radix-simlarge", "none")); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

// TestFreshSubmitAnswers202 submits many distinct tiny jobs at once to
// an idle multi-slot service: each must be answered 202 with the view
// it was accepted in, even when a runner starts it before the handler
// writes the response.
func TestFreshSubmitAnswers202(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	_, ts := newTestService(t, cfg)

	const n = 48
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":"stencil-default","prefetcher":"none","config":{"MaxInstructions":%d,"WarmupInstructions":100}}`, 2000+i)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	got := 0
	for code := range codes {
		got++
		if code != http.StatusAccepted {
			t.Errorf("fresh submission answered %d, want 202", code)
		}
	}
	if got != n {
		t.Fatalf("%d of %d submissions answered", got, n)
	}
}

// TestDrainRacesOpenAndSubmit interleaves stream opens and job
// submissions with Drain: every run the service accepted must be
// terminal once Drain returns — drained, never stranded.
func TestDrainRacesOpenAndSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	cfg.MaxStreams = -1
	cfg.TenantStreams = -1
	cfg.StreamBufferEvents = 64
	tiny := `{"workload":"stencil-default","prefetcher":"none","config":{"MaxInstructions":%d,"WarmupInstructions":100}}`
	for round := 0; round < 10; round++ {
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu       sync.Mutex
			jobs     []*Job
			streams  []*Stream
			accepted = make(chan struct{}, 1)
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					spec, err := ParseSpec([]byte(fmt.Sprintf(tiny, 2000+1000*g+i)), svc.cfg.BaseSim)
					if err != nil {
						t.Error(err)
						return
					}
					_, jobErr := svc.Submit(spec)
					if jobErr == nil {
						j, _ := svc.Job(spec.Key(svc.cfg.CodeVersion))
						mu.Lock()
						jobs = append(jobs, j)
						mu.Unlock()
						select {
						case accepted <- struct{}{}:
						default:
						}
					}
					view, streamErr := svc.OpenStream("tenant", JobSpec{Workload: "stencil-default", Prefetcher: "none", Config: svc.cfg.BaseSim})
					if streamErr == nil {
						st, _ := svc.Stream(view.ID)
						mu.Lock()
						streams = append(streams, st)
						mu.Unlock()
					}
					if jobErr == ErrDraining && streamErr == ErrDraining {
						return
					}
				}
			}(g)
		}
		close(start)
		select { // drain while the submitters are mid-flight
		case <-accepted:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: no submission accepted", round)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = svc.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: Drain: %v", round, err)
		}
		wg.Wait()
		for _, j := range jobs {
			select {
			case <-j.Done():
			default:
				t.Fatalf("round %d: accepted job %.12s is %s after Drain", round, j.Key, j.View().Status)
			}
		}
		for _, st := range streams {
			select {
			case <-st.Done():
			default:
				t.Fatalf("round %d: accepted stream %s is %s after Drain", round, st.ID, st.View().State)
			}
		}
	}
}

func mustSpec(t *testing.T, svc *Service, wl, pf string) JobSpec {
	t.Helper()
	spec, err := ParseSpec([]byte(fmt.Sprintf(`{"workload":%q,"prefetcher":%q}`, wl, pf)), svc.cfg.BaseSim)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestJobTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.JobTimeout = 30 * time.Millisecond
	big := cfg.BaseSim
	big.MaxInstructions = 500_000_000 // would take minutes
	big.WarmupInstructions = 1_000_000
	cfg.BaseSim = big
	svc, ts := newTestService(t, cfg)

	view, err := svc.Submit(mustSpec(t, svc, "stencil-default", "none"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, ts.URL, view.Key)
	if final["status"] != string(StatusFailed) {
		t.Fatalf("timed-out job: %v, want failed", final)
	}
	if !strings.Contains(final["error"].(string), "context deadline exceeded") {
		t.Fatalf("timeout error not surfaced: %v", final["error"])
	}
}

// TestStoredRecordsAreExactLength checks that every record written
// through storeRecord — a closed job's and a stream's — is cached in
// an exact-length buffer, not in MarshalIndent's growth buffer: the
// cache keeps it for the daemon's life.
func TestStoredRecordsAreExactLength(t *testing.T) {
	const wl = "stencil-default"
	svc, _ := newTestService(t, testConfig())
	view, err := svc.Submit(mustSpec(t, svc, wl, "none"))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, view.Key, StatusDone)
	spec, err := svc.parseStreamSpec(OpenStreamRequest{Workload: wl, Prefetcher: "none"})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := svc.OpenStream("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := svc.Stream(sv.ID)
	if _, rej := st.ingest(encodeWorkloadTrace(t, wl, 2000), svc.cfg.Clock()); rej != nil {
		t.Fatalf("trace rejected: %v", rej)
	}
	if _, rej := st.closeInput(); rej != nil {
		t.Fatalf("close: %v", rej)
	}
	<-st.Done()
	if v := st.View(); v.State != StreamDone {
		t.Fatalf("stream: %s %s, want done", v.State, v.Error)
	}

	svc.cache.mu.RLock()
	defer svc.cache.mu.RUnlock()
	if len(svc.cache.entries) != 2 {
		t.Fatalf("cache holds %d records, want the job's and the stream's", len(svc.cache.entries))
	}
	for key, e := range svc.cache.entries {
		if cap(e.data) != len(e.data) {
			t.Errorf("record %.12s: %d bytes in a %d-byte buffer", key, len(e.data), cap(e.data))
		}
	}
}

func TestCachePersistenceAcrossServices(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir

	svc1, ts1 := newTestService(t, cfg)
	view, err := svc1.Submit(mustSpec(t, svc1, "stencil-default", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts1.URL, view.Key)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, view.Key+".json")); err != nil {
		t.Fatalf("result record not persisted: %v", err)
	}

	// A new daemon over the same directory serves the result without
	// simulating: submission comes back done+cached immediately.
	svc2, _ := newTestService(t, cfg)
	got, err := svc2.Submit(mustSpec(t, svc2, "stencil-default", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || !got.Cached {
		t.Fatalf("restarted daemon did not serve from persisted cache: %+v", got)
	}
	if svc2.counters.cacheHits.Load() != 1 || svc2.counters.cacheMisses.Load() != 0 {
		t.Fatalf("hit/miss after restart: %d/%d",
			svc2.counters.cacheHits.Load(), svc2.counters.cacheMisses.Load())
	}
	data, ok := svc2.Result(got.Key)
	if !ok {
		t.Fatal("result bytes missing after restart")
	}
	var rec harness.RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("persisted record invalid: %v", err)
	}
}

// TestRestartWithoutDrainKeepsNames is the crash case: a daemon that
// stops without draining leaves only its record files, and a new
// daemon over the same directory still reports each cached key under
// its workload and prefetcher names.
func TestRestartWithoutDrainKeepsNames(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir

	svc1, ts1 := newTestService(t, cfg)
	view, err := svc1.Submit(mustSpec(t, svc1, "stencil-default", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts1.URL, view.Key)

	svc2, _ := newTestService(t, cfg)
	if n := svc2.Counters().Quarantined; n != 0 {
		t.Fatalf("restart quarantined %d records", n)
	}
	got, ok := svc2.Status(view.Key)
	if !ok || got.Status != StatusDone || !got.Cached ||
		got.Workload != "stencil-default" || got.Prefetcher != "stride" {
		t.Fatalf("Status after restart: %+v, %v", got, ok)
	}
	sub, err := svc2.Submit(mustSpec(t, svc2, "stencil-default", "stride"))
	if err != nil {
		t.Fatal(err)
	}
	if sub != got {
		t.Fatalf("Submit after restart: %+v, want %+v", sub, got)
	}
}

func TestHealthzAndRosters(t *testing.T) {
	svc, ts := newTestService(t, testConfig())
	code, raw := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"status": "ok"`)) {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	code, raw = getJSON(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK || !bytes.Contains(raw, []byte("stencil-default")) {
		t.Fatalf("workloads roster: %d", code)
	}
	code, raw = getJSON(t, ts.URL+"/v1/prefetchers")
	if code != http.StatusOK || !bytes.Contains(raw, []byte("cbws+sms")) {
		t.Fatalf("prefetchers roster: %d", code)
	}
	code, raw = getJSON(t, ts.URL+"/debug/vars")
	if code != http.StatusOK || !bytes.Contains(raw, []byte("cbwsd")) {
		t.Fatalf("expvar not mounted on service mux: %d %.120s", code, raw)
	}

	// The stream gauges: a stream with one of its queue buffers taken
	// by the simulator side reports what is still buffered, and a
	// finished one reports nothing.
	vars := func() Vars {
		t.Helper()
		code, raw := getJSON(t, ts.URL+"/debug/vars")
		var v struct {
			Cbwsd Vars `json:"cbwsd"`
		}
		if err := json.Unmarshal(raw, &v); code != http.StatusOK || err != nil {
			t.Fatalf("expvar: %d %v", code, err)
		}
		return v.Cbwsd
	}
	now := svc.cfg.Clock()
	st := newStream("st-vars", JobSpec{Workload: "w"}, "t", svc.tenants.get("t", now), 1<<16, now)
	svc.mu.Lock()
	svc.streams[st.ID] = st
	svc.mu.Unlock()
	if _, rej := st.ingest(encodeTestHeader(t, "w"), now); rej != nil {
		t.Fatalf("header rejected: %v", rej)
	}
	chunk := bytes.Repeat([]byte{byte(trace.Instr), 0x01}, bufBytes)
	if _, rej := st.ingest(chunk, now); rej != nil {
		t.Fatalf("chunk rejected: %v", rej)
	}
	g := &streamGen{st: st, sink: discardSink{}}
	if !g.next() {
		t.Fatal("nothing to take from the queue")
	}
	st.mu.Lock()
	events, queued := st.count, st.queuedBytesLocked()
	st.mu.Unlock()
	if events == 0 || events == bufBytes || queued == 0 {
		t.Fatalf("after one take: %d events in %d bytes buffered, want a partly drained queue", events, queued)
	}
	if v := vars(); v.StreamsBufferedEvents != events || v.StreamsBufferedBytes != queued {
		t.Fatalf("partly drained stream: vars report %d events in %d bytes, queue holds %d in %d",
			v.StreamsBufferedEvents, v.StreamsBufferedBytes, events, queued)
	}
	st.abort("test")
	svc.finishStream(st, "", "")
	if v := vars(); v.StreamsBufferedEvents != 0 || v.StreamsBufferedBytes != 0 {
		t.Fatalf("finished stream: vars report %d events in %d bytes, want 0 and 0",
			v.StreamsBufferedEvents, v.StreamsBufferedBytes)
	}
}
