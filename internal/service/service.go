// Package service is the long-running simulation daemon behind cmd/cbwsd:
// an HTTP/JSON job queue over the evaluation harness with a
// content-addressed result cache.
//
// Jobs are (workload, prefetcher, sim.Config) triples. Submission is
// idempotent — the job's identity is a canonical hash of its effective
// values plus the simulator code version — and completed results are
// cached in memory and on disk under that hash, so a repeated sweep is
// served in O(1) without simulating anything. Production concerns are
// handled end to end: one slot scheduler bounding every simulation,
// closed jobs and streams alike, a bounded queue with 429 + Retry-After
// backpressure, per-job timeouts, progress reporting from the
// simulator's probe hooks, expvar counters, and graceful drain that
// finishes running jobs.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the scheduler's slot count: the bound on concurrent
	// simulations, closed jobs and streams together (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds the number of accepted closed jobs still waiting
	// for their first slot; submissions beyond it are rejected with 429
	// (default 64).
	QueueDepth int
	// JobTimeout aborts a single simulation after this long (0: no
	// timeout). A timed-out job is reported failed.
	JobTimeout time.Duration
	// CacheDir persists results, one run record per key ("" = memory
	// only).
	CacheDir string
	// BaseSim is the configuration submitted partial configs merge over
	// (zero value: the Table II defaults with the harness's standard
	// 4M/1M window).
	BaseSim sim.Config
	// SampleInterval is the probe/progress period in committed
	// instructions (0: sim.DefaultSampleInterval).
	SampleInterval uint64
	// RetryAfter is advertised in the Retry-After header of 429
	// responses (0: 1s).
	RetryAfter time.Duration
	// CodeVersion overrides the build's VCS revision in cache keys
	// ("": CodeVersion()).
	CodeVersion string
	// Corpus, when set, replays corpus-backed workloads from packed
	// CBWC files: a job naming such a workload runs from replay, and
	// its key absorbs the corpus content address (JobSpec.WorkloadHash).
	Corpus *harness.CorpusSource
	// MaxStreams bounds non-terminal streams daemon-wide; opens beyond
	// it are rejected 429 (default 64, < 0: unlimited).
	MaxStreams int
	// TenantStreams bounds concurrently open streams per tenant
	// (default 4, < 0: unlimited).
	TenantStreams int
	// TenantRateBytes is each tenant's sustained chunk-ingest rate in
	// bytes/second (default 8 MiB/s).
	TenantRateBytes float64
	// TenantBurstBytes is each tenant's token-bucket capacity — the
	// largest admissible chunk and the instantaneous burst (default
	// 4 MiB).
	TenantBurstBytes float64
	// StreamBufferEvents bounds each stream's buffer between ingest
	// and simulation, in events decoded at ingest and not yet
	// simulated; chunks that cannot fit are rejected 413 (default
	// 1<<16). The buffer holds the events' CBWT bytes, at most 21 per
	// event (~3.5 typical) plus one chunk. It is a bound, not an
	// allocation: a stream's buffers grow with the most bytes it has
	// held at once.
	StreamBufferEvents int
	// StreamIdleTimeout finalizes (cleanly terminated) or cancels
	// (mid-stream) streams with no chunk for this long (default 2m,
	// < 0: never).
	StreamIdleTimeout time.Duration
	// Clock supplies the time for rate-limit refill, idle detection and
	// run-record wall-time telemetry (default time.Now); tests inject a
	// fake.
	Clock func() time.Time
	// Peers are sibling daemons' base URLs (this daemon excluded).
	// Before simulating a job, the daemon asks the siblings for the
	// job's content address in ring order and serves a validated answer
	// from its own cache instead of simulating — the federated result
	// cache. Empty: fully standalone, exactly the pre-cluster behavior.
	Peers []string
	// PeerTimeout bounds each sibling probe (0: 2s).
	PeerTimeout time.Duration
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	var zero sim.Config
	if c.BaseSim == zero {
		c.BaseSim = harness.DefaultOptions().Sim
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = sim.DefaultSampleInterval
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CodeVersion == "" {
		c.CodeVersion = CodeVersion()
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 64
	}
	if c.TenantStreams == 0 {
		c.TenantStreams = 4
	}
	if c.TenantRateBytes <= 0 {
		c.TenantRateBytes = 8 << 20
	}
	if c.TenantBurstBytes <= 0 {
		c.TenantBurstBytes = 4 << 20
	}
	if c.StreamBufferEvents <= 0 {
		c.StreamBufferEvents = 1 << 16
	}
	if c.StreamIdleTimeout == 0 {
		c.StreamIdleTimeout = 2 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Service is a running simulation daemon: slot scheduler, job and
// stream tables, result cache.
type Service struct {
	cfg   Config
	cache *Cache
	sched *ticketSched

	// mu guards the run tables and the draining flag together: a run is
	// registered (and counted in wg) before Drain flips the flag, and
	// is then drained, or it is refused.
	mu        sync.Mutex
	jobs      map[string]*Job    //cbws:guardedby mu
	streams   map[string]*Stream //cbws:guardedby mu
	streamSeq uint64             //cbws:guardedby mu
	draining  bool               //cbws:guardedby mu

	tenants  *tenantTable
	peers    *peerFetcher
	counters counters
	quit     chan struct{}
	wg       sync.WaitGroup // every job and stream runner, and the reaper
}

// New builds a Service, loads the cache, and starts the idle reaper.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.BaseSim.Validate(); err != nil {
		return nil, fmt.Errorf("service: base config: %w", err)
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	peers, err := newPeerFetcher(cfg.Peers, cfg.PeerTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		cache:   cache,
		sched:   newTicketSched(cfg.Workers),
		jobs:    make(map[string]*Job),
		streams: make(map[string]*Stream),
		tenants: newTenantTable(cfg.TenantRateBytes, cfg.TenantBurstBytes),
		peers:   peers,
		quit:    make(chan struct{}),
	}
	publishVars(s)
	if cfg.StreamIdleTimeout > 0 {
		s.wg.Add(1)
		go s.reaper()
	}
	return s, nil
}

// Cache exposes the result cache (read-only use: stats, tests).
func (s *Service) Cache() *Cache { return s.cache }

// CodeVersion returns the version string baked into this service's
// cache keys.
func (s *Service) CodeVersion() string { return s.cfg.CodeVersion }

// Submit registers the spec as a job, idempotently. The returned view
// reflects the state at submission: done+cached when the result is
// already in the content-addressed cache, the existing job's state
// when the same spec was submitted before, queued when a fresh job was
// accepted. ErrQueueFull is returned when QueueDepth jobs already wait
// for their first slot, and ErrDraining once drain has begun.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	if err := s.resolveWorkloadHash(&spec); err != nil {
		return JobView{}, err
	}
	key := spec.Key(s.cfg.CodeVersion)
	if view, ok := s.cachedView(key); ok {
		s.counters.cacheHits.Add(1)
		return view, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, ErrDraining
	}
	if j, ok := s.jobs[key]; ok {
		return j.View(), nil
	}
	// Only runJob lowers jobsQueued and only this section raises it, so
	// the check cannot admit past the depth. A bounce leaves no
	// tombstone: a later retry creates the job afresh.
	if s.counters.jobsQueued.Load() >= int64(s.cfg.QueueDepth) {
		s.counters.rejected.Add(1)
		return JobView{}, ErrQueueFull
	}
	j := newJob(key, spec)
	s.jobs[key] = j
	s.counters.cacheMisses.Add(1)
	s.counters.jobsQueued.Add(1)
	view := j.View() // before the runner can move it past queued
	s.wg.Add(1)
	go s.runJob(j)
	return view, nil
}

// resolveWorkloadHash reconciles the spec's workload hash with the
// daemon's corpus source before keying. A corpus-backed workload gets
// its corpus content address stamped into the spec (so the job key —
// and therefore the cache entry — is bound to the exact trace bytes);
// a client that pins a hash the daemon cannot honor, or asks for more
// instructions than the corpus holds, is rejected rather than silently
// served a result computed from different or fewer events.
func (s *Service) resolveWorkloadHash(spec *JobSpec) error {
	var have string
	if s.cfg.Corpus != nil {
		have, _ = s.cfg.Corpus.Hash(spec.Workload)
		if err := s.cfg.Corpus.CheckCovers(spec.Workload, spec.Config.MaxInstructions); err != nil {
			return fmt.Errorf("%w: %v", ErrCorpusMismatch, err)
		}
	}
	switch {
	case spec.WorkloadHash == "":
		spec.WorkloadHash = have // "" when generator-backed: key shape unchanged
	case have == "":
		return fmt.Errorf("%w: job pins workload_hash %.12s… but this daemon has no corpus for %q",
			ErrCorpusMismatch, spec.WorkloadHash, spec.Workload)
	case spec.WorkloadHash != have:
		return fmt.Errorf("%w: job pins workload_hash %.12s… but the daemon's corpus for %q is %.12s…",
			ErrCorpusMismatch, spec.WorkloadHash, spec.Workload, have)
	}
	return nil
}

// cachedView synthesizes a done view for a key present in the result
// cache. The cache is authoritative across restarts: a key may be
// cached without a live job in this daemon's table.
func (s *Service) cachedView(key string) (JobView, bool) {
	workload, prefetcher, ok := s.cache.Names(key)
	if !ok {
		return JobView{}, false
	}
	return JobView{
		Key:        key,
		Workload:   workload,
		Prefetcher: prefetcher,
		Status:     StatusDone,
		Cached:     true,
	}, true
}

// Job returns the live job table entry for key.
func (s *Service) Job(key string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	return j, ok
}

// Status reports the state of key: the live job when one exists, else
// a cache-synthesized done view.
func (s *Service) Status(key string) (JobView, bool) {
	if j, ok := s.Job(key); ok {
		view := j.View()
		if view.Status == StatusDone {
			// Mark completions whose bytes are served from the cache, so
			// clients can distinguish fresh work from replays.
			if _, cached := s.cache.Get(key); cached {
				view.Cached = true
			}
		}
		return view, true
	}
	return s.cachedView(key)
}

// Result returns the encoded run record for key.
func (s *Service) Result(key string) ([]byte, bool) {
	return s.cache.Get(key)
}

// runJob executes one job end to end: wait for a first slot, serve the
// result from a sibling or simulate it with probe + progress attached,
// and store the run record under the job's content address.
func (s *Service) runJob(j *Job) {
	defer s.wg.Done()
	granted := s.sched.acquire(false)
	s.counters.jobsQueued.Add(-1)
	if !granted {
		s.counters.jobsCanceled.Add(1)
		j.set(StatusCanceled, "server draining")
		return
	}
	slots := &slotGen{sched: s.sched, held: true}
	defer slots.release()
	j.set(StatusRunning, "")
	s.counters.jobsRunning.Add(1)
	defer s.counters.jobsRunning.Add(-1)

	// Federated cache: any sibling that already computed this key serves
	// it in milliseconds; simulation is the fallback, not the default.
	if s.tryPeerFetch(j) {
		s.counters.jobsDone.Add(1)
		j.set(StatusDone, "")
		return
	}

	ctx := context.Background()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	spec, ok := workload.ByName(j.Spec.Workload)
	if !ok {
		// Validated at submit; only a roster change mid-flight gets here.
		s.failJob(j, fmt.Sprintf("unknown workload %q", j.Spec.Workload))
		return
	}
	if s.cfg.Corpus != nil {
		spec = s.cfg.Corpus.Override(spec)
	}
	f, err := registry.Resolve(j.Spec.Prefetcher)
	if err != nil {
		s.failJob(j, err.Error())
		return
	}

	s.counters.jobsSimulated.Add(1)
	ts := s.newSeries(j.Spec.Config)
	start := s.cfg.Clock()
	slots.gen = spec.Make()
	res, err := sim.RunContext(ctx, j.Spec.Config, slots, f.New(),
		sim.WithProbe(ts), sim.WithSampleInterval(s.cfg.SampleInterval),
		sim.WithProgress(j.progress.Store))
	slots.release()
	if err == nil {
		err = s.storeRecord(j.Key, j.Spec, res, ts.Points(), start)
	}
	if err != nil {
		s.failJob(j, err.Error())
		return
	}
	s.counters.jobsDone.Add(1)
	j.set(StatusDone, "")
}

// newSeries sizes a run-record time series so steady-state sampling
// never reallocates: one point per interval plus the final sample and
// slack for boundary overshoot.
func (s *Service) newSeries(cfg sim.Config) *sim.TimeSeries {
	return sim.NewTimeSeries(int(cfg.MaxInstructions/s.cfg.SampleInterval) + 2)
}

// storeRecord assembles the run record of a finished simulation and
// caches it under key, which spec was keyed to: the record carries the
// spec's code version and workload hash so it re-derives its own key.
// First write wins: when the key is already cached (a full-budget
// stream adopting a closed job's key races that job), the existing
// bytes stay authoritative; the two differ only in wall-clock
// telemetry. The cache keeps the bytes for the daemon's life, so they
// are copied out of MarshalIndent's buffer, which is sized for growth
// at up to twice the record, into an exact-length one.
func (s *Service) storeRecord(key string, spec JobSpec, res sim.Result, points []sim.SamplePoint, start time.Time) error {
	rec := harness.NewRunRecord(spec.Config, res, s.cfg.SampleInterval, points, s.cfg.Clock().Sub(start))
	rec.CodeVersion, rec.WorkloadHash = s.cfg.CodeVersion, spec.WorkloadHash
	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	data := make([]byte, len(enc)+1)
	data[copy(data, enc)] = '\n'
	if err := s.cache.PutOnce(key, rec, data); err != nil {
		return fmt.Errorf("caching result: %w", err)
	}
	return nil
}

func (s *Service) failJob(j *Job, msg string) {
	s.counters.jobsFailed.Add(1)
	j.set(StatusFailed, msg)
}

// Draining reports whether drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the service: no new jobs or streams are
// accepted, closed jobs still waiting for their first slot are
// canceled, every open stream is finalized or canceled, and started
// runs finish. Every result is on disk once stored, so nothing is left
// to persist. It returns ctx.Err() if the started runs did not finish
// in time.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil // already draining
	}
	s.draining = true
	s.mu.Unlock()

	close(s.quit)
	s.sched.drain()
	settleStreams(s.streamsByID())
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Sentinel submission errors, mapped to HTTP statuses by the server
// layer.
var (
	ErrQueueFull = fmt.Errorf("job queue is full")
	ErrDraining  = fmt.Errorf("server is draining")
	// ErrCorpusMismatch rejects a submission that pins a workload_hash
	// the daemon's corpus source cannot honor, or whose instruction
	// budget runs past the end of its corpus (HTTP 409).
	ErrCorpusMismatch = fmt.Errorf("workload corpus mismatch")
)
