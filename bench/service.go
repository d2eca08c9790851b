package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/harness"
	"cbws/internal/sim"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// tenantRate lifts the per-tenant ingest token bucket (default 8 MiB/s)
// far above what two clients can send, so admission never paces the
// streams being measured.
const tenantRate = 268435456

// pollPeriod is the clients' status polling period; the 100 ms default
// would dominate a job that simulates in ~25 ms.
const pollPeriod = 2 * time.Millisecond

// daemon is one cbwsd subprocess.
type daemon struct {
	cmd      *exec.Cmd
	client   *apiv1.Client
	code     string // code version baked into job keys
	cacheDir string
	done     chan error
	reject   atomic.Int64 // 429 and retryable-413 waits the client slept out
}

// startDaemon spawns cbwsd on an ephemeral port over the given cache
// directory (a fresh one when empty) and waits until /healthz answers.
func (b *bench) startDaemon(streamBuffer int, cacheDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(b.work, "cbwsd-")
	if err != nil {
		return nil, err
	}
	if cacheDir == "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(b.cbwsd,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache-dir", cacheDir,
		"-n", strconv.FormatUint(b.scale.instr, 10), "-warmup", strconv.FormatUint(b.scale.warmup, 10),
		"-workers", strconv.Itoa(b.nproc), "-tenant-rate", strconv.Itoa(tenantRate),
		"-stream-buffer", strconv.Itoa(streamBuffer))
	cmd.Stderr = logFile
	// If the benchmark dies, the kernel takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cbwsd: %w", err)
	}
	d := &daemon{cmd: cmd, cacheDir: cacheDir, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil {
			d.client = apiv1.NewClient("http://" + strings.TrimSpace(string(addr)))
			d.client.Poll = pollPeriod
			d.client.OnBackpressure = func(time.Duration) { d.reject.Add(1) }
			if h, err := d.client.Healthz(); err == nil {
				d.code = h.CodeVersion
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("cbwsd exited during start-up (%v); see %s", err, logFile.Name())
		case <-time.After(pollPeriod):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cbwsd did not answer /healthz within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("cbwsd did not drain within 60s")
	}
}

// vars is the part of the daemon's expvar the benchmark checks.
type vars struct {
	Cbwsd struct {
		JobsSimulated int64 `json:"jobs_simulated"`
		CacheHits     int64 `json:"cache_hits"`
		CacheMisses   int64 `json:"cache_misses"`
		StreamsDone   int64 `json:"streams_done"`
	} `json:"cbwsd"`
	Memstats struct {
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint64 `json:"NumGC"`
	} `json:"memstats"`
}

func (d *daemon) vars() (vars, error) {
	var v vars
	err := d.client.GetJSON(apiv1.PathVars, &v)
	return v, err
}

func (d *daemon) cpu() time.Duration {
	t, _ := procCPU(d.cmd.Process.Pid)
	return t
}

func (d *daemon) peakMB() float64 { return peakMB(d.cmd.Process.Pid) }

// item is one golden cell served by the daemon, either as a closed job
// or as a CBWT stream.
type item struct {
	wl, pf string
	id     string // workload/scheme, the spans' shared ID
	golden string
	body   []byte // closed job: the submit body
	cbwt   []byte // stream: the captured trace
}

// items lists every cell of specs × the golden roster in a seeded order;
// for each workload the seed picks one scheme whose cell is streamed
// from a CBWT capture, and every other cell is a closed job.
func (b *bench) items(specs []workload.Spec) ([]item, error) {
	var out []item
	for _, s := range specs {
		streamed := b.rng.IntN(len(b.scale.factories))
		for k, f := range b.scale.factories {
			it := item{wl: s.Name, pf: f.Name, id: cellKey(s.Name, f.Name), golden: b.goldenHash(s.Name, f.Name)}
			if k != streamed {
				body, err := json.Marshal(apiv1.SubmitRequest{Workload: s.Name, Prefetcher: f.Name})
				if err != nil {
					return nil, err
				}
				it.body = body
			}
			out = append(out, it)
		}
	}
	return permute(b, out), nil
}

// capture renders each streamed item's workload as CBWT bytes, bounded
// to the simulation window, and returns the stream buffer size that
// holds a whole trace plus one chunk, so ingest never waits on a full
// buffer.
func (b *bench) capture(items []item) (int, error) {
	buffer := 0
	for i := range items {
		it := &items[i]
		if it.body != nil {
			continue
		}
		spec, ok := workload.ByName(it.wl)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", it.wl)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, it.wl)
		if err != nil {
			return 0, err
		}
		cs := countSink{down: w}
		trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: b.scale.instr}, &cs)
		if err := w.Close(); err != nil {
			return 0, err
		}
		it.cbwt = buf.Bytes()
		buffer = max(buffer, int(cs.events)+b.scale.chunkBytes/2+1)
	}
	return buffer, nil
}

// expectedKey is the content address the daemon must file a cell under.
func (b *bench) expectedKey(d *daemon, it *item) string {
	return apiv1.JobSpec{Workload: it.wl, Prefetcher: it.pf, Config: b.simConfig()}.Key(d.code)
}

// sweepCounts are the totals the clients of one sweep add to.
type sweepCounts struct {
	requests atomic.Int64 // HTTP requests that could be refused: submits, opens, chunks
	chunkB   atomic.Int64 // stream bytes sent
	resultB  atomic.Int64 // run-record bytes fetched
}

// sweepResult is one cold sweep.
type sweepResult struct {
	wall      time.Duration
	lat       []time.Duration // per item, submit or open to verified record
	cpu       time.Duration   // daemon CPU over the sweep
	clients   time.Duration   // bench-process CPU over the sweep
	jobs      int
	streams   int
	rejected  int64
	simulated int64 // jobs_simulated delta
	counts    sweepCounts
}

// sweep serves every item from nproc closed-loop clients: each item is
// completed and verified before the client pulls the next.
func (b *bench) sweep(d *daemon, items []item) *sweepResult {
	r := &sweepResult{lat: make([]time.Duration, len(items))}
	v0, err := d.vars()
	b.checkErr(err, "expvar")
	rej0, cpu0, self0 := d.reject.Load(), d.cpu(), selfCPU()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < b.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := &items[i]
				t := time.Now()
				var err error
				if it.body != nil {
					err = b.serveJob(d, it, &r.counts)
				} else {
					err = b.serveStream(d, it, fmt.Sprintf("bench-%d", g), &r.counts)
				}
				r.lat[i] = time.Since(t)
				b.checkErr(err, it.id)
			}
		}(g)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.cpu, r.clients = d.cpu()-cpu0, selfCPU()-self0
	r.rejected = d.reject.Load() - rej0
	for i := range items {
		if items[i].body != nil {
			r.jobs++
		} else {
			r.streams++
		}
	}
	v1, err := d.vars()
	if b.checkErr(err, "expvar") {
		r.simulated = v1.Cbwsd.JobsSimulated - v0.Cbwsd.JobsSimulated
		b.check(r.simulated == int64(r.jobs), "jobs_simulated grew by %d over a sweep of %d closed jobs", r.simulated, r.jobs)
		streams := v1.Cbwsd.StreamsDone - v0.Cbwsd.StreamsDone
		b.check(streams == int64(r.streams), "streams_done grew by %d over a sweep of %d streams", streams, r.streams)
	}
	return r
}

// serveJob submits a closed job, waits for it, and verifies the served
// record against golden.
func (b *bench) serveJob(d *daemon, it *item, c *sweepCounts) error {
	root := b.tr.begin("service.job", it.id, -1)
	defer b.tr.end(root)
	s := b.tr.begin("api.submit", it.id, root)
	c.requests.Add(1)
	view, err := d.client.Submit(it.body)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if want := b.expectedKey(d, it); view.Key != want {
		return fmt.Errorf("job key %.12s, expected %.12s", view.Key, want)
	}
	s = b.tr.begin("service.wait", it.id, root)
	_, err = d.client.WaitDone(view.Key)
	b.tr.end(s)
	if err != nil {
		return err
	}
	return b.fetchVerify(d, it, view.Key, root, c)
}

// serveStream streams a captured trace in fixed chunks, finalizes the
// stream and verifies the record it produced.
func (b *bench) serveStream(d *daemon, it *item, tenant string, c *sweepCounts) error {
	root := b.tr.begin("stream.item", it.id, -1)
	defer b.tr.end(root)
	s := b.tr.begin("stream.open", it.id, root)
	c.requests.Add(1)
	view, err := d.client.OpenStream(apiv1.OpenStreamRequest{Tenant: tenant, Workload: it.wl, Prefetcher: it.pf})
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	measure := func(dur time.Duration, _ int) {
		c.requests.Add(1)
		b.tr.add("stream.chunk", it.id, root, time.Now().Add(-dur), dur)
	}
	for off := 0; off < len(it.cbwt); off += b.scale.chunkBytes {
		chunk := it.cbwt[off:min(off+b.scale.chunkBytes, len(it.cbwt))]
		if _, err := d.client.SendChunk(view.ID, chunk, measure); err != nil {
			return fmt.Errorf("chunk: %w", err)
		}
		c.chunkB.Add(int64(len(chunk)))
	}
	s = b.tr.begin("stream.finalize", it.id, root)
	view, err = d.client.CloseStream(view.ID)
	if err == nil && view.State != apiv1.StreamDone {
		view, err = d.client.WaitStream(view.ID)
	}
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	if want := b.expectedKey(d, it); view.Key != want {
		return fmt.Errorf("stream filed under %.12s, closed-job key %.12s", view.Key, want)
	}
	return b.fetchVerify(d, it, view.Key, root, c)
}

// fetchVerify reads a served run record and checks its cell hash.
func (b *bench) fetchVerify(d *daemon, it *item, key string, parent int, c *sweepCounts) error {
	s := b.tr.begin("api.result", it.id, parent)
	raw, err := d.client.Result(key)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	c.resultB.Add(int64(len(raw)))
	var rec harness.RunRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	got := harness.CellHash(sim.Result{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Metrics: rec.Metrics})
	if got != it.golden {
		return fmt.Errorf("served record hash %.12s, golden %.12s", got, it.golden)
	}
	return nil
}

// hotResult is one closed-loop hot-key phase.
type hotResult struct {
	lat     []time.Duration
	cpu     time.Duration
	alloc   uint64
	gc      uint64
	hits    int64
	wall    time.Duration
	clients time.Duration // bench-process CPU over the phase
}

// hotSchedule draws the seeded request mix: hotFrac of requests go to a
// small hot set, the rest uniformly over all cells.
func (b *bench) hotSchedule(n, cells int) []int32 {
	hot := b.rng.Perm(cells)[:min(b.scale.hotCells, cells)]
	sched := make([]int32, n)
	for i := range sched {
		if b.rng.Float64() < b.scale.hotFrac {
			sched[i] = int32(hot[b.rng.IntN(len(hot))])
		} else {
			sched[i] = int32(b.rng.IntN(cells))
		}
	}
	return sched
}

// hot replays cached cells from nproc closed-loop clients for the given
// time; every request must be a cache hit.
func (b *bench) hot(d *daemon, items []item, length time.Duration) *hotResult {
	bodies := make([][]byte, len(items))
	keys := make([]string, len(items))
	for i := range items {
		body, err := json.Marshal(apiv1.SubmitRequest{Workload: items[i].wl, Prefetcher: items[i].pf})
		if !b.checkErr(err, "submit body") {
			return &hotResult{}
		}
		bodies[i], keys[i] = body, b.expectedKey(d, &items[i])
	}
	// Sized for the fastest rate seen on the reference machine with
	// headroom; the schedule wraps if a faster machine outruns it.
	sched := b.hotSchedule(1<<20, len(items))
	h := &hotResult{}
	v0, err := d.vars()
	b.checkErr(err, "expvar")
	cpu0, self0 := d.cpu(), selfCPU()
	var next, hits, failed atomic.Int64
	var firstErr atomic.Pointer[string]
	var wg sync.WaitGroup
	lats := make([][]time.Duration, b.nproc)
	start := time.Now()
	deadline := start.Add(length)
	for g := 0; g < b.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c := sched[int(next.Add(1)-1)%len(sched)]
				t := time.Now()
				view, err := d.client.Submit(bodies[c])
				lat := time.Since(t)
				b.tr.add("api.hot_submit", items[c].id, -1, t, lat)
				lats[g] = append(lats[g], lat)
				switch {
				case err != nil:
					msg := err.Error()
					firstErr.CompareAndSwap(nil, &msg)
					failed.Add(1)
				case view.Key != keys[c] || !view.Cached || view.Status != apiv1.StatusDone:
					msg := fmt.Sprintf("%s: not served from the cache (status %s, cached %v)", items[c].id, view.Status, view.Cached)
					firstErr.CompareAndSwap(nil, &msg)
					failed.Add(1)
				default:
					hits.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	h.lat = slices.Concat(lats...)
	h.hits = hits.Load()
	b.attempted.Add(int64(len(h.lat)))
	if msg := firstErr.Load(); msg != nil {
		b.failed.Add(failed.Load())
		b.note("hot request: " + *msg)
	}
	h.wall = time.Since(start)
	h.cpu, h.clients = d.cpu()-cpu0, selfCPU()-self0
	v1, err := d.vars()
	if b.checkErr(err, "expvar") {
		h.alloc = v1.Memstats.TotalAlloc - v0.Memstats.TotalAlloc
		h.gc = v1.Memstats.NumGC - v0.Memstats.NumGC
		sim := v1.Cbwsd.JobsSimulated - v0.Cbwsd.JobsSimulated
		b.check(sim == 0, "jobs_simulated grew by %d during the hot phase", sim)
		hits := v1.Cbwsd.CacheHits - v0.Cbwsd.CacheHits
		b.check(hits == int64(len(h.lat)), "daemon counted %d cache hits for %d requests", hits, len(h.lat))
	}
	return h
}

// reportCold sets the api/service/stream layer metrics of a traced cold
// sweep whose spans start at mark.
func (b *bench) reportCold(r *sweepResult, mark int) {
	dur := func(name string) []time.Duration { return b.tr.durations(name, mark) }
	b.setLatency("api.submit_ms_p50", 0.50, dur("api.submit"))
	b.setLatency("api.submit_ms_p95", 0.95, dur("api.submit"))
	b.setLatency("service.wait_ms_p50", 0.50, dur("service.wait"))
	b.setLatency("service.wait_ms_p95", 0.95, dur("service.wait"))
	b.setLatency("api.result_ms_p50", 0.50, dur("api.result"))
	b.set("api.result_kb", "KB", float64(r.counts.resultB.Load())/1024/float64(r.jobs+r.streams))
	b.setLatency("stream.open_ms_p50", 0.50, dur("stream.open"))
	chunks := dur("stream.chunk")
	b.setLatency("stream.chunk_ack_ms_p50", 0.50, chunks)
	b.setLatency("stream.chunk_ack_ms_p99", 0.99, chunks)
	b.set("stream.ingest_mb_per_s", "MB/s", float64(r.counts.chunkB.Load())/(1<<20)/sumDur(chunks).Seconds())
	b.setLatency("stream.finalize_ms_p50", 0.50, dur("stream.finalize"))
	b.set("service.accept_ratio", "ratio", 1-float64(r.rejected)/float64(r.counts.requests.Load()))
	b.set("service.jobs_simulated", "count", float64(r.simulated))
	b.set("service.cpu_s_per_job", "s", r.cpu.Seconds()/float64(r.jobs+r.streams))
}

// reportHot sets the api/service layer metrics of a hot phase.
func (b *bench) reportHot(h *hotResult) {
	n := float64(len(h.lat))
	b.setLatency("api.hot_ms_p50", 0.50, h.lat)
	b.setLatency("api.hot_ms_p999", 0.999, h.lat)
	b.setLatency("api.hot_ms_max", 1, h.lat)
	long, med := 0, quantile(h.lat, 0.5)
	for _, l := range h.lat {
		if l > 10*med {
			long++
		}
	}
	b.set("service.long_requests", "count", float64(long))
	b.set("service.cache_hit_ratio", "ratio", float64(h.hits)/n)
	b.set("service.cpu_us_per_request", "us", float64(h.cpu.Microseconds())/n)
	b.set("service.alloc_kb_per_request", "KB", float64(h.alloc)/1024/n)
	b.set("service.gc_per_kreq", "count", float64(h.gc)*1000/n)
}

// reportKeyCost times apiv1.JobSpec.Key over every golden cell.
func (b *bench) reportKeyCost(code string) {
	cfg := b.simConfig()
	var specs []apiv1.JobSpec
	for _, s := range b.scale.specs {
		for _, f := range b.scale.factories {
			specs = append(specs, apiv1.JobSpec{Workload: s.Name, Prefetcher: f.Name, Config: cfg})
		}
	}
	const reps = 20
	d := timed(func() {
		for r := 0; r < reps; r++ {
			for _, s := range specs {
				s.Key(code)
			}
		}
	})
	b.set("api.key_us", "us", float64(d.Microseconds())/float64(reps*len(specs)))
}

// serviceProbe gives traced in-process runs the service layer metrics:
// a daemon serves a seeded sample of cells cold, then hot for one probe
// period.
func (b *bench) serviceProbe() error {
	items, err := b.items(permute(b, b.scale.specs)[:b.scale.sampleSpecs])
	if err != nil {
		return err
	}
	buffer, err := b.capture(items)
	if err != nil {
		return err
	}
	d, err := b.startDaemon(buffer, "")
	if err != nil {
		return err
	}
	mark := b.tr.mark()
	b.reportCold(b.sweep(d, items), mark)
	b.reportHot(b.hot(d, items, b.scale.probeHot))
	b.reportKeyCost(d.code)
	return d.stop()
}

// runServiceCold is the write side of the service: each round's unit is
// a sweep serving all golden cells from a fresh daemon, and its set-up
// the CBWT capture plus that daemon's start-up. An operation is one
// cell, from submit (or stream open) to its verified record.
func runServiceCold(b *bench) error {
	items, err := b.items(b.scale.specs)
	if err != nil {
		return err
	}
	var last *daemon
	e := newE2E()
	oneSweep := func() (*sweepResult, error) {
		if last != nil {
			err := last.stop()
			last = nil
			if err != nil {
				return nil, err
			}
		}
		t := time.Now()
		buffer, err := b.capture(items)
		if err == nil {
			last, err = b.startDaemon(buffer, "")
		}
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, time.Since(t).Seconds())
		return b.sweep(last, items), nil
	}
	defer func() {
		if last != nil {
			last.stop()
		}
	}()
	start := time.Now()
	for rep := 0; b.repsDue(rep, start); rep++ {
		r, err := oneSweep()
		if err != nil {
			return err
		}
		e.unit(r.lat, r.wall, r.cpu, last.peakMB())
		for i := range items {
			e.part(items[i].id, r.lat[i])
		}
	}
	b.reportE2E(e)
	if b.tr == nil {
		return nil
	}

	mark, mem := b.tr.mark(), readMem()
	r, err := oneSweep()
	if err != nil {
		return err
	}
	b.reportRuntime(r.clients, r.wall, mem.since(), len(items))
	b.reportOverhead(e.rate, float64(len(items))/r.wall.Seconds())
	b.reportCold(r, mark)
	b.reportHot(b.hot(last, items, b.scale.probeHot))
	b.reportKeyCost(last.code)
	b.sampleLedgers()
	return nil
}
