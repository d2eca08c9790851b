package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	apiv1 "cbws/api/v1"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// fakeClock is an injectable, manually-advanced time source: admission
// refills and idle detection become fully deterministic in tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketBurstThenSustain(t *testing.T) {
	clk := newFakeClock()
	b := newTokenBucket(1000, 500, clk.Now()) // 1000 B/s sustained, 500 B burst

	// The bucket starts full: the whole burst is available immediately.
	if ok, _ := b.take(clk.Now(), 500); !ok {
		t.Fatal("full bucket refused its burst")
	}
	// Drained: the next byte is refused with the time until it refills.
	ok, wait := b.take(clk.Now(), 100)
	if ok {
		t.Fatal("empty bucket granted tokens")
	}
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
	// Sustained phase: elapsed time refills at the configured rate.
	clk.Advance(100 * time.Millisecond)
	if ok, _ := b.take(clk.Now(), 100); !ok {
		t.Fatal("refill did not credit 100 tokens after 100ms at 1000/s")
	}
	if ok, _ := b.take(clk.Now(), 1); ok {
		t.Fatal("bucket granted more than the refill")
	}
	// Refill is capped at the burst no matter how long the idle gap.
	clk.Advance(time.Hour)
	if ok, _ := b.take(clk.Now(), 500); !ok {
		t.Fatal("idle bucket should be full again")
	}
	if ok, _ := b.take(clk.Now(), 1); ok {
		t.Fatal("refill exceeded the burst cap")
	}
}

func TestTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	tt := newTenantTable(1000, 1000)
	a := tt.get("tenant-a", clk.Now())
	b := tt.get("tenant-b", clk.Now())

	// Draining tenant A's bucket must not touch tenant B's.
	if ok, _ := a.admitBytes(clk.Now(), 1000); !ok {
		t.Fatal("tenant A refused within burst")
	}
	if ok, _ := a.admitBytes(clk.Now(), 1); ok {
		t.Fatal("tenant A granted past its burst")
	}
	if ok, _ := b.admitBytes(clk.Now(), 1000); !ok {
		t.Fatal("tenant B throttled by tenant A's traffic")
	}
	if got := a.vars().RejectedRate; got != 1 {
		t.Fatalf("tenant A rejected_rate = %d, want 1", got)
	}
	if got := b.vars().RejectedRate; got != 0 {
		t.Fatalf("tenant B rejected_rate = %d, want 0", got)
	}

	// Concurrent-stream quotas are per tenant too.
	if !a.admitOpen(2) || !a.admitOpen(2) {
		t.Fatal("tenant A refused within quota")
	}
	if a.admitOpen(2) {
		t.Fatal("tenant A granted past its quota")
	}
	if !b.admitOpen(2) {
		t.Fatal("tenant B blocked by tenant A's streams")
	}
	a.releaseStream()
	if !a.admitOpen(2) {
		t.Fatal("released slot not reusable")
	}
	if got := a.vars().RejectedQuota; got != 1 {
		t.Fatalf("tenant A rejected_quota = %d, want 1", got)
	}
	// The table returns the same account for the same name.
	if tt.get("tenant-a", clk.Now()) != a {
		t.Fatal("tenant table returned a fresh account for a known name")
	}
}

// queueWaiter starts a goroutine blocked in ts.acquire(started) and
// waits until it is queued, so successive calls fix the queue order.
// The goroutine sends its id on got when granted (then releases), or
// -id when refused.
func queueWaiter(t *testing.T, ts *ticketSched, id int, started bool, got chan<- int) {
	t.Helper()
	before := ts.waiting()
	go func() {
		if ts.acquire(started) {
			got <- id
			ts.release()
		} else {
			got <- -id
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.waiting() != before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter %d never queued", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectOrder reads len(want) waiter reports from got, in order.
func expectOrder(t *testing.T, got <-chan int, want ...int) {
	t.Helper()
	for _, w := range want {
		select {
		case g := <-got:
			if g != w {
				t.Fatalf("waiter report %d, want %d", g, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d never reported", w)
		}
	}
}

// TestTicketSchedFIFO checks slots are granted FIFO within each class,
// with every started run ahead of every first acquire, and that yield
// passes the slot only to a started run.
func TestTicketSchedFIFO(t *testing.T) {
	ts := newTicketSched(1)
	if !ts.acquire(false) {
		t.Fatal("free slot refused")
	}
	got := make(chan int, 4)
	queueWaiter(t, ts, 1, false, got)
	queueWaiter(t, ts, 2, true, got)
	queueWaiter(t, ts, 3, false, got)
	queueWaiter(t, ts, 4, true, got)
	ts.release()
	expectOrder(t, got, 2, 4, 1, 3)

	// With only first acquires waiting, a yield keeps the slot; with a
	// started run waiting, it hands over and queues behind it.
	if !ts.acquire(true) {
		t.Fatal("free slot refused")
	}
	queueWaiter(t, ts, 5, false, got)
	ts.yield()
	if n := ts.waiting(); n != 1 {
		t.Fatalf("yield with no started waiter: %d waiting, want the first acquire still queued", n)
	}
	queueWaiter(t, ts, 6, true, got)
	yielded := make(chan struct{})
	go func() {
		ts.yield()
		close(yielded)
	}()
	expectOrder(t, got, 6) // 6 releases on report: the slot comes back to the yielder
	select {
	case <-yielded:
	case <-time.After(5 * time.Second):
		t.Fatal("yielder never got its slot back")
	}
	ts.release()
	expectOrder(t, got, 5)
}

// TestTicketSchedStop checks drain stops first grants — queued and
// future first acquires are refused — while started runs keep their
// turns.
func TestTicketSchedStop(t *testing.T) {
	ts := newTicketSched(1)
	if !ts.acquire(true) {
		t.Fatal("free slot refused")
	}
	got := make(chan int, 2)
	queueWaiter(t, ts, 1, false, got)
	queueWaiter(t, ts, 2, true, got)
	ts.drain()
	expectOrder(t, got, -1)
	if ts.acquire(false) {
		t.Fatal("first acquire granted after drain")
	}
	ts.release()
	expectOrder(t, got, 2)
	if !ts.acquire(true) {
		t.Fatal("started acquire refused after drain")
	}
}

// encodeWorkloadTrace renders the named registered workload's event
// stream, truncated at max instructions, as CBWT bytes — exactly what a
// tenant tracing the same program would stream.
func encodeWorkloadTrace(t testing.TB, name string, max uint64) []byte {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	captured := trace.Capture(trace.Limit{Gen: spec.Make(), Max: max})
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch(captured.Events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedChunks sends data to an open stream in 48 KiB pieces, letting the
// client's backpressure handling absorb retryable 413s while the
// simulator drains the queue.
func feedChunks(t *testing.T, c *apiv1.Client, id string, data []byte) {
	t.Helper()
	const size = 48 << 10
	for off := 0; off < len(data); off += size {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		if _, err := c.SendChunk(id, data[off:end], nil); err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
	}
}

// streamTrace opens a stream and feeds data in chunkSize pieces.
func streamTrace(t *testing.T, c *apiv1.Client, req apiv1.OpenStreamRequest, data []byte, chunkSize int) apiv1.StreamView {
	t.Helper()
	view, err := c.OpenStream(req)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		if _, err := c.SendChunk(view.ID, data[off:end], nil); err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
	}
	if _, err := c.CloseStream(view.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitStream(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestStreamMatchesClosedJob is the in-process half of the streaming
// smoke: streaming a workload's own trace bytes must produce the same
// run record as the closed job, cached under the same content address.
func TestStreamMatchesClosedJob(t *testing.T) {
	const wl = "stencil-default"
	cfg := testConfig()

	// Closed job on its own service instance (separate cache).
	svcA, tsA := newTestService(t, cfg)
	specBody := `{"workload": "` + wl + `", "prefetcher": "cbws"}`
	code, m, _ := postJob(t, tsA.URL, specBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %v", code, m)
	}
	key := m["key"].(string)
	waitDone(t, tsA.URL, key)
	recA, ok := svcA.Result(key)
	if !ok {
		t.Fatal("closed job result missing")
	}

	// Stream the same instruction stream into a fresh service.
	svcB, tsB := newTestService(t, cfg)
	data := encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions)
	client := apiv1.NewClient(tsB.URL)
	final := streamTrace(t, client, apiv1.OpenStreamRequest{
		Tenant: "acme", Workload: wl, Prefetcher: "cbws",
	}, data, 64<<10)

	// Full-budget stream of a registered workload adopts the closed
	// job's key: the two serving paths converge on one cache entry.
	if final.Key != key {
		t.Fatalf("stream key %s, want closed-job key %s", final.Key, key)
	}
	recB, ok := svcB.Result(key)
	if !ok {
		t.Fatal("stream result missing from cache")
	}

	// The records agree on everything except run-local telemetry.
	var a, b map[string]any
	if err := json.Unmarshal(recA, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recB, &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "wall_time_sec")
	delete(b, "wall_time_sec")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stream record diverges from closed-job record:\n%s\nvs\n%s", recA, recB)
	}

	// A closed-job submit on the stream's daemon is now a cache hit.
	view, err := apiv1.NewClient(tsB.URL).Submit([]byte(specBody))
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || !view.Cached {
		t.Fatalf("closed job after stream: status %s cached %v, want done from cache", view.Status, view.Cached)
	}
}

// TestStreamPartialGetsOwnKey checks a stream that ends before the
// instruction budget is content-addressed by its own bytes, not the
// closed job's key — a truncated stream must never poison the cache
// entry a full simulation would be served from.
func TestStreamPartialGetsOwnKey(t *testing.T) {
	const wl = "stencil-default"
	cfg := testConfig()
	_, ts := newTestService(t, cfg)

	// Half the budget, cut at an event boundary, properly terminated.
	data := encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions/2)
	client := apiv1.NewClient(ts.URL)
	final := streamTrace(t, client, apiv1.OpenStreamRequest{
		Tenant: "acme", Workload: wl, Prefetcher: "cbws",
	}, data, 16<<10)

	closedKey := JobSpec{Workload: wl, Prefetcher: "cbws", Config: cfg.BaseSim}.Key(cfg.CodeVersion)
	if final.Key == closedKey {
		t.Fatal("partial stream adopted the closed-job key")
	}
	if final.Key == "" {
		t.Fatal("partial stream produced no result key")
	}
}

// TestStreamRecordsReload checks both stream keyings leave records that
// re-derive their keys: a full-budget stream (the closed job's key) and
// a short one (keyed by its own bytes) both reload without quarantine.
func TestStreamRecordsReload(t *testing.T) {
	const wl = "stencil-default"
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestService(t, cfg)
	client := apiv1.NewClient(ts.URL)
	req := apiv1.OpenStreamRequest{Tenant: "acme", Workload: wl, Prefetcher: "cbws"}
	full := streamTrace(t, client, req, encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions), 64<<10)
	short := streamTrace(t, client, req, encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions/2), 64<<10)
	if full.Key == "" || short.Key == "" || full.Key == short.Key {
		t.Fatalf("stream keys: full %q, short %q", full.Key, short.Key)
	}

	c, err := NewCache(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Quarantined() != 0 || c.Len() != 2 {
		t.Fatalf("reloaded %d records, %d quarantined; want 2, 0", c.Len(), c.Quarantined())
	}
	for _, k := range []string{full.Key, short.Key} {
		if w, p, ok := c.Names(k); !ok || w != wl || p != "cbws" {
			t.Errorf("record %.12s… reloads as %q × %q (%v)", k, w, p, ok)
		}
	}
}

func openStream(t *testing.T, url, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url+apiv1.PathStreams, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m, resp.Header
}

func postChunk(t *testing.T, url, id string, chunk []byte) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url+apiv1.PathStreams+"/"+id+"/chunks", "application/octet-stream", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, resp.Header
}

// TestStreamQuotaRejects drives the admission layer over HTTP: an
// over-quota tenant gets 429 + Retry-After while another tenant is
// admitted untouched.
func TestStreamQuotaRejects(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig()
	cfg.TenantStreams = 1
	cfg.Clock = clk.Now
	svc, ts := newTestService(t, cfg)

	body := `{"tenant": "greedy", "workload": "stencil-default", "prefetcher": "cbws"}`
	code, first, _ := openStream(t, ts.URL, body)
	if code != http.StatusCreated {
		t.Fatalf("first open: %d %v", code, first)
	}
	code, m, hdr := openStream(t, ts.URL, body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota open: %d %v, want 429", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The other tenant is unaffected by greedy's quota exhaustion.
	code, m, _ = openStream(t, ts.URL, `{"tenant": "polite", "workload": "stencil-default", "prefetcher": "cbws"}`)
	if code != http.StatusCreated {
		t.Fatalf("in-quota tenant rejected: %d %v", code, m)
	}
	vars := svc.Counters()
	if vars.StreamsRejected != 1 {
		t.Fatalf("streams_rejected_429 = %d, want 1", vars.StreamsRejected)
	}
	found := false
	for _, tv := range vars.Tenants {
		if tv.Tenant == "greedy" {
			found = true
			if tv.RejectedQuota != 1 {
				t.Fatalf("greedy rejected_quota = %d, want 1", tv.RejectedQuota)
			}
		}
	}
	if !found {
		t.Fatal("tenant greedy missing from vars")
	}
}

// TestStreamRateLimit429 exhausts a tenant's byte bucket and checks the
// 429 + Retry-After reject, then the deterministic refill.
func TestStreamRateLimit429(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig()
	cfg.TenantRateBytes = 1024
	cfg.TenantBurstBytes = 4096
	cfg.Clock = clk.Now
	_, ts := newTestService(t, cfg)

	data := encodeWorkloadTrace(t, "stencil-default", cfg.BaseSim.MaxInstructions)
	if len(data) < 8192 {
		t.Fatalf("trace too small (%d bytes) to exercise the bucket", len(data))
	}
	code, m, _ := openStream(t, ts.URL, `{"tenant": "pacer", "workload": "stencil-default", "prefetcher": "cbws"}`)
	if code != http.StatusCreated {
		t.Fatalf("open: %d %v", code, m)
	}
	id := m["id"].(string)

	if code, _ := postChunk(t, ts.URL, id, data[:4096]); code != http.StatusOK {
		t.Fatalf("burst chunk: %d, want 200", code)
	}
	code, hdr := postChunk(t, ts.URL, id, data[4096:8192])
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate chunk: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 without Retry-After")
	}
	// 4096 bytes at 1024 B/s: four seconds of refill make it admissible.
	clk.Advance(4 * time.Second)
	if code, _ := postChunk(t, ts.URL, id, data[4096:8192]); code != http.StatusOK {
		t.Fatalf("post-refill chunk: %d, want 200", code)
	}
	// A chunk that exceeds the burst can never be granted: permanent 413.
	big := make([]byte, 8192)
	code, hdr = postChunk(t, ts.URL, id, big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-burst chunk: %d, want 413", code)
	}
	if hdr.Get("Retry-After") != "" {
		t.Fatal("over-burst 413 must not carry Retry-After (it is permanent)")
	}
}

// TestStreamBufferBackpressure checks the bounded-buffer 413s at the
// ingest layer: retryable when the simulator is merely behind, hard
// when the chunk could never fit.
func TestStreamBufferBackpressure(t *testing.T) {
	clk := newFakeClock()
	tt := newTenantTable(1<<30, 1<<30)
	ten := tt.get("t", clk.Now())
	ten.admitOpen(0)
	st := newStream("st-test", JobSpec{Workload: "w"}, "t", ten, 64, clk.Now())

	head := encodeTestHeader(t, "w")
	if _, rej := st.ingest(head, clk.Now()); rej != nil {
		t.Fatalf("header chunk rejected: %v", rej)
	}
	// 50 two-byte Instr events fit the 64-event buffer.
	chunk := bytes.Repeat([]byte{byte(trace.Instr), 0x01}, 50)
	if _, rej := st.ingest(chunk, clk.Now()); rej != nil {
		t.Fatalf("first event chunk rejected: %v", rej)
	}
	// No simulator drains the queue here: the next chunk cannot fit right
	// now, but could after a drain — retryable 413.
	_, rej := st.ingest(chunk, clk.Now())
	if rej == nil || rej.code != http.StatusRequestEntityTooLarge || rej.retryAfter <= 0 {
		t.Fatalf("full-buffer reject = %+v, want retryable 413", rej)
	}
	// A chunk bigger than the whole buffer can never fit — permanent 413.
	huge := bytes.Repeat([]byte{byte(trace.Instr), 0x01}, 100)
	_, rej = st.ingest(huge, clk.Now())
	if rej == nil || rej.code != http.StatusRequestEntityTooLarge || rej.retryAfter != 0 {
		t.Fatalf("oversized reject = %+v, want permanent 413", rej)
	}
}

// encodeTestHeader returns just the CBWT header bytes for name.
func encodeTestHeader(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[:len(b)-1] // drop the terminator
}

// TestStreamIngestZeroAlloc pins the chunk ingest hot path at zero
// allocations per chunk once the simulator hands buffers back: decoder,
// byte queue, hash, admission, and counter coalescing all run on
// recycled state. The queue drains through the generator's own
// take-decode-recycle path.
func TestStreamIngestZeroAlloc(t *testing.T) {
	clk := newFakeClock()
	tt := newTenantTable(1<<40, 1<<40)
	ten := tt.get("t", clk.Now())
	st := newStream("st-alloc", JobSpec{Workload: "w"}, "t", ten, 1<<16, clk.Now())
	g := &streamGen{st: st, sink: discardSink{}}

	if _, rej := st.ingest(encodeTestHeader(t, "w"), clk.Now()); rej != nil {
		t.Fatalf("header rejected: %v", rej)
	}
	// Three full queue buffers and a partial one per chunk.
	chunk := bytes.Repeat([]byte{byte(trace.Instr), 0x01}, (3*bufBytes+100)/2)
	now := clk.Now()
	allocs := testing.AllocsPerRun(200, func() {
		if _, rej := st.ingest(chunk, now); rej != nil {
			t.Fatalf("chunk rejected: %v", rej)
		}
		for g.next() {
		}
	})
	if allocs != 0 {
		t.Fatalf("ingest allocates %v per chunk, want 0", allocs)
	}
}

// discardSink accepts and drops every batch.
type discardSink struct{}

func (discardSink) ConsumeBatch([]trace.Event) bool { return true }

// TestByteBufFitsSizeClass pins the queue buffer to the 16 KiB
// allocation size class bufBytes is chosen to fill: one buffer
// allocates 16 KiB, and its struct leaves room for nothing but the
// allocator's 8-byte header.
func TestByteBufFitsSizeClass(t *testing.T) {
	bufs := make([]*byteBuf, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bufs {
		bufs[i] = new(byteBuf)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(bufs)
	// Stray allocations elsewhere can only add to the total; the next
	// size class up is 18 KiB.
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(bufs)); per < 16<<10 || per >= 17<<10 {
		t.Fatalf("a byteBuf allocates %d bytes, want one 16 KiB size class", per)
	}
	if slack := 16<<10 - unsafe.Sizeof(byteBuf{}); slack != 8 {
		t.Fatalf("byteBuf leaves %d bytes of its 16 KiB, want just the 8-byte allocation header", slack)
	}
}

// TestStreamQueueHoldsWireBytes checks what a stream costs while its
// feeder runs ahead of the simulator: with a whole capture buffered
// and nothing drained, the stream's heap grows by at most the capture's
// CBWT bytes, plus 1/64 for buffer headers and heap noise, plus one
// partly filled buffer — not by a decoded event per event.
func TestStreamQueueHoldsWireBytes(t *testing.T) {
	const chunkSize = 64 << 10
	data := encodeWorkloadTrace(t, "stencil-default", 400_000)
	clk := newFakeClock()
	ten := newTenantTable(1<<40, 1<<40).get("t", clk.Now())
	st := newStream("st-mem", JobSpec{Workload: "w"}, "t", ten, len(data), clk.Now())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var ack ChunkAck
	for off := 0; off < len(data); off += chunkSize {
		var rej *ingestReject
		if ack, rej = st.ingest(data[off:min(off+chunkSize, len(data))], clk.Now()); rej != nil {
			t.Fatalf("chunk at %d rejected: %v", off, rej)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	runtime.KeepAlive(data)

	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(len(data) + len(data)/64 + int(unsafe.Sizeof(byteBuf{})))
	if held > limit {
		t.Fatalf("%d buffered events (%d CBWT bytes) hold %d heap bytes (%.1f B/event), want <= %d",
			ack.BufferedEvents, len(data), held, float64(held)/float64(ack.BufferedEvents), limit)
	}
}

// TestStreamChunkAfterTerminator checks that bytes sent after a trace's
// terminator are acked but never queued: the queue, its buffered
// events and its buffers stay exactly as the terminator left them.
func TestStreamChunkAfterTerminator(t *testing.T) {
	clk := newFakeClock()
	ten := newTenantTable(1<<40, 1<<40).get("t", clk.Now())
	st := newStream("st-term", JobSpec{Workload: "w"}, "t", ten, 1<<16, clk.Now())
	data := encodeWorkloadTrace(t, "stencil-default", 2000)
	if _, rej := st.ingest(data, clk.Now()); rej != nil {
		t.Fatalf("trace rejected: %v", rej)
	}
	snapshot := func() (events, queued int, bufs []*byteBuf) {
		st.mu.Lock()
		defer st.mu.Unlock()
		for b := st.live.head; b != nil; b = b.next {
			bufs = append(bufs, b)
		}
		return st.count, st.queuedBytesLocked(), bufs
	}
	events, queued, bufs := snapshot()
	if queued != len(data) {
		t.Fatalf("trace queued %d bytes, want all %d", queued, len(data))
	}
	late := bytes.Repeat([]byte{byte(trace.Instr), 0x01}, 1000)
	ack, rej := st.ingest(late, clk.Now())
	if rej != nil {
		t.Fatalf("chunk after the terminator rejected: %v", rej)
	}
	if ack.BufferedEvents != events || ack.BytesIn != uint64(len(data)+len(late)) {
		t.Fatalf("late ack: %d events buffered, %d bytes in; want %d, %d",
			ack.BufferedEvents, ack.BytesIn, events, len(data)+len(late))
	}
	gotEvents, gotQueued, gotBufs := snapshot()
	if gotEvents != events || gotQueued != queued || !slices.Equal(gotBufs, bufs) {
		t.Fatalf("late chunk moved the queue: %d events in %d bytes (%d buffers), was %d in %d (%d)",
			gotEvents, gotQueued, len(gotBufs), events, queued, len(bufs))
	}
}

// TestOpenStreamCostIndependentOfBound checks that an open allocates
// nothing in proportion to StreamBufferEvents: a stream with a
// 1<<20-event bound must cost less than 1 MiB more to open than one
// with a 256-event bound. Each stream is aborted and its runner
// awaited inside the measured window, so the runner's simulator
// set-up, the same for both, cancels out of the difference.
func TestOpenStreamCostIndependentOfBound(t *testing.T) {
	openCost := func(bound int) uint64 {
		t.Helper()
		cfg := testConfig()
		cfg.StreamBufferEvents = bound
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := svc.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		spec, err := svc.parseStreamSpec(OpenStreamRequest{Workload: "stencil-default", Prefetcher: "none"})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		view, err := svc.OpenStream("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := svc.Stream(view.ID)
		st.abort("test")
		<-st.Done()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := openCost(256), openCost(1<<20)
	if large > small+1<<20 {
		t.Fatalf("opening a 1<<20-event stream allocates %d bytes, %d more than a 256-event one; want < 1 MiB more",
			large, large-small)
	}
}

// FuzzStreamQueue drives a stream's ingest and the generator's
// take-decode-recycle path with fuzzed chunk splits (any byte offset,
// so events, varints and the header split anywhere) and take points
// over a real workload capture followed by bytes past its terminator,
// against a flat reference: a decoder of its own for the events and a
// byte slice for the queue. Every admission decision (accept,
// retryable 413, permanent 413), every ack's BufferedEvents, the bytes
// of every buffer taken and the order of every event decoded from it
// must match; chunks after the terminator are never queued, and the
// queue may never hold more buffers than its bytes need.
func FuzzStreamQueue(f *testing.F) {
	data := append(encodeWorkloadTrace(f, "stencil-default", 40_000), bytes.Repeat([]byte{0xff}, 600)...)
	// An odd op ingests the next 1+(op>>1)*(bound/32+1) bytes, an even
	// one takes a buffer. The seeds walk the whole capture through
	// tiny, mid-sized and multi-buffer chunks, each hitting full queues
	// and chunks that can never fit.
	seed := func(boundSel uint8, rounds int, round ...byte) {
		f.Add(boundSel, bytes.Repeat(round, rounds))
	}
	seed(1, 800, append(bytes.Repeat([]byte{0x05}, 14), 0xff, 0x41, 0x00)...)
	seed(4, 200, append(bytes.Repeat([]byte{0x21}, 6), 0xff, 0x00)...)
	seed(60, 60, 0x3f, 0x3f, 0x3f, 0xff, 0x00, 0x00, 0x00)
	seed(255, 20, append(append([]byte{0xff}, bytes.Repeat([]byte{0x1f}, 8)...), 0x00, 0x00, 0x00, 0x00)...)
	f.Fuzz(func(t *testing.T, boundSel uint8, ops []byte) {
		clk := newFakeClock()
		ten := newTenantTable(1<<40, 1<<40).get("t", clk.Now())
		bound := 4 + int(boundSel)*64
		st := newStream("st-fuzz", JobSpec{Workload: "w"}, "t", ten, bound, clk.Now())
		var got []trace.Event
		g := &streamGen{st: st, sink: appendSink{&got}}

		var (
			ref    []trace.Event // decoded at ingest, not yet delivered
			refDec trace.ChunkDecoder
			queued []byte // accepted for the queue, not yet taken
		)
		refSink := appendSink{&ref}
		off := 0
		take := func() {
			got = got[:0]
			if !g.next() {
				if len(queued) != 0 {
					t.Fatalf("take returned nothing with %d bytes queued", len(queued))
				}
				return
			}
			b := g.held.b[:g.held.n]
			if len(b) == 0 || len(b) > len(queued) || !bytes.Equal(b, queued[:len(b)]) {
				t.Fatalf("took a %d-byte buffer that is not the front of the %d queued bytes", len(b), len(queued))
			}
			queued = queued[len(b):]
			if len(got) > len(ref) || !slices.Equal(got, ref[:len(got)]) {
				t.Fatalf("decoded %d events with %d buffered, or out of order", len(got), len(ref))
			}
			ref = ref[len(got):]
		}
		for _, op := range ops {
			if op&1 == 0 {
				take()
			} else if off < len(data) {
				n := min(1+int(op>>1)*(bound/32+1), len(data)-off)
				chunk := data[off : off+n]
				need := n/2 + 1
				ack, rej := st.ingest(chunk, clk.Now())
				switch {
				case need > bound:
					if rej == nil || rej.code != http.StatusRequestEntityTooLarge || rej.retryAfter != 0 {
						t.Fatalf("%d-byte chunk, bound %d: reject %+v, want permanent 413", n, bound, rej)
					}
				case need > bound-len(ref):
					if rej == nil || rej.code != http.StatusRequestEntityTooLarge || rej.retryAfter <= 0 {
						t.Fatalf("%d-byte chunk, %d/%d buffered: reject %+v, want retryable 413", n, len(ref), bound, rej)
					}
				default:
					if rej != nil {
						t.Fatalf("%d-byte chunk, %d/%d buffered: rejected %+v", n, len(ref), bound, rej)
					}
					if !refDec.Terminated() {
						queued = append(queued, chunk...)
					}
					if err := refDec.Feed(chunk, refSink); err != nil {
						t.Fatalf("reference decode: %v", err)
					}
					off += n
					if ack.BufferedEvents != len(ref) || ack.BufferCap != bound {
						t.Fatalf("ack %d/%d events, reference %d/%d", ack.BufferedEvents, ack.BufferCap, len(ref), bound)
					}
				}
			}
			st.mu.Lock()
			bufs := 0
			for b := st.live.head; b != nil; b = b.next {
				bufs++
			}
			count, qbytes := st.count, st.queuedBytesLocked()
			st.mu.Unlock()
			if count != len(ref) || qbytes != len(queued) || bufs > qbytes/bufBytes+1 {
				t.Fatalf("queue holds %d events in %d bytes (%d buffers), reference %d events in %d bytes",
					count, qbytes, bufs, len(ref), len(queued))
			}
		}
		for len(queued) > 0 {
			take()
		}
		if len(ref) != 0 {
			t.Fatalf("drained queue left %d events undelivered", len(ref))
		}
		if g.next() {
			t.Fatal("drained queue still returned a buffer")
		}
	})
}

// appendSink collects a decoder's batches into a flat slice.
type appendSink struct{ events *[]trace.Event }

func (s appendSink) ConsumeBatch(batch []trace.Event) bool {
	*s.events = append(*s.events, batch...)
	return true
}

// TestStreamMalformedChunk checks a bad chunk fails the stream with 400
// and later chunks are refused.
func TestStreamMalformedChunk(t *testing.T) {
	_, ts := newTestService(t, testConfig())
	code, m, _ := openStream(t, ts.URL, `{"tenant": "acme", "workload": "stencil-default", "prefetcher": "cbws"}`)
	if code != http.StatusCreated {
		t.Fatalf("open: %d %v", code, m)
	}
	id := m["id"].(string)
	if code, _ := postChunk(t, ts.URL, id, []byte("this is not CBWT")); code != http.StatusBadRequest {
		t.Fatalf("garbage chunk: %d, want 400", code)
	}
	view, err := apiv1.NewClient(ts.URL).StreamStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StreamFailed {
		t.Fatalf("state after bad chunk = %s, want failed", view.State)
	}
	if code, _ := postChunk(t, ts.URL, id, []byte{0xFF}); code != http.StatusConflict {
		t.Fatalf("chunk after failure: %d, want 409", code)
	}
}

// TestStreamIdleReaper checks the idle sweep: a cleanly terminated
// stream finalizes into a result, a mid-trace one is canceled.
func TestStreamIdleReaper(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig()
	cfg.Clock = clk.Now
	cfg.StreamIdleTimeout = time.Minute
	svc, ts := newTestService(t, cfg)
	client := apiv1.NewClient(ts.URL)

	// Stream 1: a terminated trace that under-runs the instruction
	// budget, never closed — the simulator drains it and then sits
	// waiting for chunks; only the reaper can finalize it.
	data := encodeWorkloadTrace(t, "stencil-default", cfg.BaseSim.MaxInstructions/2)
	done, err := client.OpenStream(apiv1.OpenStreamRequest{Tenant: "a", Workload: "stencil-default", Prefetcher: "cbws"})
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(t, client, done.ID, data)
	// Stream 2: header only — cut mid-trace.
	stuck, err := client.OpenStream(apiv1.OpenStreamRequest{Tenant: "a", Workload: "stencil-default", Prefetcher: "cbws"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SendChunk(stuck.ID, encodeTestHeader(t, "stencil-default"), nil); err != nil {
		t.Fatal(err)
	}

	clk.Advance(2 * time.Minute)
	svc.reapIdleStreams(clk.Now())

	view, err := client.WaitStream(done.ID)
	if err != nil {
		t.Fatalf("terminated idle stream should finalize: %v", err)
	}
	if view.Key == "" {
		t.Fatal("finalized idle stream has no result key")
	}
	if _, err := client.WaitStream(stuck.ID); err == nil {
		t.Fatal("mid-trace idle stream should be canceled")
	}
	st, _ := svc.Stream(stuck.ID)
	if got := st.View().State; got != StreamCanceled {
		t.Fatalf("mid-trace idle stream state = %s, want canceled", got)
	}
}

// TestStreamDrainFinalizeOrCancel checks graceful drain settles every
// open stream: terminated traces finalize into cached results,
// mid-trace streams cancel — and Drain returns only once both runners
// exited.
func TestStreamDrainFinalizeOrCancel(t *testing.T) {
	cfg := testConfig()
	svc, ts := newTestService(t, cfg)
	client := apiv1.NewClient(ts.URL)

	// A terminated but under-budget trace: still open at drain time,
	// finalizable because its byte stream ended cleanly.
	data := encodeWorkloadTrace(t, "stencil-default", cfg.BaseSim.MaxInstructions/2)
	fin, err := client.OpenStream(apiv1.OpenStreamRequest{Tenant: "a", Workload: "stencil-default", Prefetcher: "cbws"})
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(t, client, fin.ID, data)
	cut, err := client.OpenStream(apiv1.OpenStreamRequest{Tenant: "b", Workload: "stencil-default", Prefetcher: "cbws"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SendChunk(cut.ID, encodeTestHeader(t, "stencil-default"), nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	finSt, _ := svc.Stream(fin.ID)
	v := finSt.View()
	if v.State != StreamDone || v.Key == "" {
		t.Fatalf("terminated stream after drain: %s key=%q, want done with key", v.State, v.Key)
	}
	if _, ok := svc.Result(v.Key); !ok {
		t.Fatal("drained stream's result missing from cache")
	}
	cutSt, _ := svc.Stream(cut.ID)
	if got := cutSt.View().State; got != StreamCanceled {
		t.Fatalf("mid-trace stream after drain = %s, want canceled", got)
	}
}

// TestStreamOpenValidation checks open-time rejects.
func TestStreamOpenValidation(t *testing.T) {
	_, ts := newTestService(t, testConfig())
	cases := map[string]string{
		"missing tenant":     `{"workload": "w", "prefetcher": "cbws"}`,
		"missing workload":   `{"tenant": "a", "prefetcher": "cbws"}`,
		"unknown prefetcher": `{"tenant": "a", "workload": "w", "prefetcher": "nope"}`,
		"unknown field":      `{"tenant": "a", "workload": "w", "prefetcher": "cbws", "bogus": 1}`,
	}
	for name, body := range cases {
		if code, m, _ := openStream(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %v, want 400", name, code, m)
		}
	}
	// Unregistered workload names are allowed — the trace arrives over
	// the wire — they just never adopt a closed-job cache key.
	if code, m, _ := openStream(t, ts.URL, `{"tenant": "a", "workload": "custom-app", "prefetcher": "cbws"}`); code != http.StatusCreated {
		t.Errorf("custom workload: %d %v, want 201", code, m)
	}
}

// TestFinishedStreamsReleaseQueue checks every terminal path — done
// (closed under budget, or stopped by the exhausted budget), failed and
// canceled — drops the stream's queue buffers, ingest decoder and hash
// state once the runner settles it, while a late chunk gets the status
// it always got and acks keep reporting the buffer bound.
func TestFinishedStreamsReleaseQueue(t *testing.T) {
	const wl = "stencil-default"
	cfg := testConfig()
	svc, ts := newTestService(t, cfg)
	client := apiv1.NewClient(ts.URL)
	req := apiv1.OpenStreamRequest{Tenant: "acme", Workload: wl, Prefetcher: "cbws"}
	open := func() string {
		t.Helper()
		view, err := client.OpenStream(req)
		if err != nil {
			t.Fatal(err)
		}
		return view.ID
	}
	settled := func(name, id string, want StreamState) {
		t.Helper()
		st, ok := svc.Stream(id)
		if !ok {
			t.Fatalf("%s: stream %s not listed", name, id)
		}
		<-st.done
		st.mu.Lock()
		state, count, live := st.state, st.count, st.live
		st.mu.Unlock()
		if state != want {
			t.Fatalf("%s: state %s, want %s", name, state, want)
		}
		if live != nil || count != 0 {
			t.Errorf("%s: finished stream still holds its queue, decoder or hash state (%d events buffered)", name, count)
		}
	}
	late := []byte{byte(trace.Instr), 0x01}

	// Done under budget, closed by the client: late input is refused.
	half := streamTrace(t, client, req, encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions/2), 16<<10)
	settled("done", half.ID, StreamDone)
	if code, _ := postChunk(t, ts.URL, half.ID, late); code != http.StatusConflict {
		t.Errorf("done: late chunk got %d, want 409", code)
	}

	// Done because the budget ran out: late input is accepted and
	// discarded, and the ack still reports the buffer bound.
	full := open()
	feedChunks(t, client, full, encodeWorkloadTrace(t, wl, 2*cfg.BaseSim.MaxInstructions))
	if _, err := client.WaitStream(full); err != nil {
		t.Fatal(err)
	}
	settled("budget done", full, StreamDone)
	ack, err := client.SendChunk(full, late, nil)
	if err != nil {
		t.Fatalf("budget done: late chunk: %v", err)
	}
	if ack.BufferCap != svc.cfg.StreamBufferEvents {
		t.Errorf("budget done: ack buffer_cap %d, want %d", ack.BufferCap, svc.cfg.StreamBufferEvents)
	}

	// Failed on a malformed chunk.
	bad := open()
	if code, _ := postChunk(t, ts.URL, bad, []byte("this is not CBWT")); code != http.StatusBadRequest {
		t.Fatalf("failed: garbage chunk got %d, want 400", code)
	}
	settled("failed", bad, StreamFailed)
	if code, _ := postChunk(t, ts.URL, bad, late); code != http.StatusConflict {
		t.Errorf("failed: late chunk got %d, want 409", code)
	}

	// Canceled by the client mid-trace.
	cut := open()
	if _, err := client.SendChunk(cut, encodeTestHeader(t, wl), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AbortStream(cut); err != nil {
		t.Fatal(err)
	}
	settled("canceled", cut, StreamCanceled)
	if code, _ := postChunk(t, ts.URL, cut, late); code != http.StatusConflict {
		t.Errorf("canceled: late chunk got %d, want 409", code)
	}
}

// TestOneSlotInterleavesJobAndStream runs a closed job and a stream on
// a one-slot service. While the job holds the slot the stream, its
// trace fully buffered, waits in the scheduler instead of simulating
// beside it; once the job simulates, the two alternate quantum by
// quantum, so the short stream finishes while the long job is still
// mid-run.
func TestOneSlotInterleavesJobAndStream(t *testing.T) {
	const wl = "stencil-default"
	hold := make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(hold) }) }
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hold
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Peers = []string{peer.URL}
	cfg.PeerTimeout = time.Minute
	cfg.StreamBufferEvents = 1 << 20
	svc, ts := newTestService(t, cfg)
	t.Cleanup(unhold)

	// The job's peer probe runs on its first slot, so the fake sibling
	// holds the only slot until the test answers it.
	long := mustSpec(t, svc, wl, "none")
	long.Config.MaxInstructions = 10 * cfg.BaseSim.MaxInstructions
	view, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, view.Key, StatusRunning)
	j, _ := svc.Job(view.Key)

	client := apiv1.NewClient(ts.URL)
	sv, err := client.OpenStream(apiv1.OpenStreamRequest{Tenant: "acme", Workload: wl, Prefetcher: "none"})
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(t, client, sv.ID, encodeWorkloadTrace(t, wl, cfg.BaseSim.MaxInstructions))
	if _, err := client.CloseStream(sv.ID); err != nil {
		t.Fatal(err)
	}
	st, _ := svc.Stream(sv.ID)
	deadline := time.Now().Add(30 * time.Second)
	for svc.sched.waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the stream never queued for the job's slot")
		}
		time.Sleep(time.Millisecond)
	}
	if p := st.progress.Load(); p != 0 {
		t.Fatalf("stream simulated %d instructions while the job held the only slot", p)
	}

	unhold()
	<-st.Done()
	if v := st.View(); v.State != StreamDone {
		t.Fatalf("stream: %s %s, want done", v.State, v.Error)
	}
	jv := j.View()
	if jv.Status != StatusRunning || jv.Progress.Instructions == 0 {
		t.Fatalf("job when the stream finished: %s at %d instructions, want running mid-way", jv.Status, jv.Progress.Instructions)
	}

	<-j.Done()
	if jv := j.View(); jv.Status != StatusDone {
		t.Fatalf("job: %s %s, want done", jv.Status, jv.Error)
	}
	svc.sched.mu.Lock()
	free, waiting := svc.sched.free, len(svc.sched.started)+len(svc.sched.fresh)
	svc.sched.mu.Unlock()
	if free != 1 || waiting != 0 {
		t.Fatalf("scheduler after every run ended: %d free, %d waiting; want 1, 0", free, waiting)
	}
}

// TestFinishedStreamsRetainLittle checks what a finished stream keeps
// for the rest of the daemon's life: the stream table lists every
// stream ever served, so each finished one must shed its ingest
// decoder (12 KiB of batch) and hash state. After 200 streamed and
// finished traces — the same bytes each time, so they share one cached
// record — the retained heap must stay under 1 KiB per stream.
func TestFinishedStreamsRetainLittle(t *testing.T) {
	const wl, streams = "stencil-default", 200
	svc, _ := newTestService(t, testConfig())
	spec, err := svc.parseStreamSpec(OpenStreamRequest{Workload: wl, Prefetcher: "none"})
	if err != nil {
		t.Fatal(err)
	}
	data := encodeWorkloadTrace(t, wl, 2000)
	run := func() {
		t.Helper()
		view, err := svc.OpenStream("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := svc.Stream(view.ID)
		if _, rej := st.ingest(data, svc.cfg.Clock()); rej != nil {
			t.Fatalf("trace rejected: %v", rej)
		}
		if _, rej := st.closeInput(); rej != nil {
			t.Fatalf("close: %v", rej)
		}
		<-st.Done()
		if v := st.View(); v.State != StreamDone {
			t.Fatalf("stream %s: %s %s, want done", v.ID, v.State, v.Error)
		}
	}
	run() // caches the record every later stream shares

	// Two collections before each reading: the first moves what
	// sync.Pools hold into their victim caches, the second frees it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range streams {
		run()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams; per >= 1<<10 {
		t.Fatalf("each finished stream retains %d heap bytes, want < 1 KiB", per)
	}
}

// TestStreamWalksFollowOpenStreams checks that the walks over streams —
// OpenStream's capacity count, the expvar gauges and the idle reaper —
// visit only open streams, so their cost does not grow with the
// streams a daemon has finished. With one stream open (its tenant at
// quota, so each further open walks the table and is refused), the
// three together must cost within 2× at 1,000 and at 50,000 finished
// streams; walking every stream listed costs over 100× more at 50,000.
func TestStreamWalksFollowOpenStreams(t *testing.T) {
	cfg := testConfig()
	cfg.TenantStreams = 1
	cfg.StreamIdleTimeout = time.Hour
	svc, _ := newTestService(t, cfg)
	spec, err := svc.parseStreamSpec(OpenStreamRequest{Workload: "stencil-default", Prefetcher: "none"})
	if err != nil {
		t.Fatal(err)
	}
	view, err := svc.OpenStream("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	held, _ := svc.Stream(view.ID)

	// finish lists finished streams until the table holds n of them, as
	// finishStream leaves them: terminal, with no live state.
	finished := make(chan struct{})
	close(finished)
	finish := func(n int) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		for len(svc.streams) < n+1 {
			svc.streamSeq++
			id := fmt.Sprintf("st-%08d", svc.streamSeq)
			svc.streams[id] = &Stream{ID: id, Tenant: "acme", Spec: spec, state: StreamCanceled, done: finished}
		}
	}
	const ops = 200
	cost := func() time.Duration {
		t.Helper()
		now := svc.cfg.Clock()
		best := time.Duration(1 << 62)
		for range 5 {
			start := time.Now()
			for range ops {
				if _, err := svc.OpenStream("acme", spec); err == nil {
					t.Fatal("OpenStream admitted a stream past the tenant quota")
				}
				if open, _, _ := svc.streamGauges(); open != 1 {
					t.Fatalf("streams_open %d, want 1", open)
				}
				svc.reapIdleStreams(now)
			}
			best = min(best, time.Since(start)/ops)
		}
		return best
	}
	finish(1_000)
	small := cost()
	finish(50_000)
	large := cost()
	t.Logf("open + gauges + reap: %v at 1,000 finished streams, %v at 50,000", small, large)
	if large > 2*small {
		t.Errorf("open + gauges + reap cost %v at 50,000 finished streams, %v at 1,000: want within 2×", large, small)
	}

	held.abort("test")
	<-held.Done()
	svc.mu.Lock()
	open := len(svc.open)
	svc.mu.Unlock()
	if open != 0 {
		t.Errorf("%d streams left in the open table after the last one finished", open)
	}
}
