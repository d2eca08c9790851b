package service

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
)

// counters are the service's expvar-exported operational counters.
// Everything is atomic: the submit path and the runners update them
// concurrently.
type counters struct {
	jobsQueued    atomic.Int64 // accepted, still waiting for a first scheduler slot
	jobsRunning   atomic.Int64 // granted a first slot, not yet finished
	jobsDone      atomic.Int64 // completed successfully (lifetime)
	jobsFailed    atomic.Int64 // failed or timed out (lifetime)
	jobsCanceled  atomic.Int64 // canceled while queued, by drain (lifetime)
	jobsSimulated atomic.Int64 // jobs that actually ran a simulation (lifetime)
	cacheHits     atomic.Int64 // submissions answered from the result cache
	cacheMisses   atomic.Int64 // submissions that created a new job
	rejected      atomic.Int64 // submissions rejected with 429 (queue full)
	peerHits      atomic.Int64 // jobs served from a sibling's cache instead of simulating
	peerMisses    atomic.Int64 // sibling probes answered 404 (per-peer, not per-job)
	peerErrors    atomic.Int64 // sibling probes that failed transport or validation

	streamsOpened   atomic.Int64 // streams admitted (lifetime)
	streamsDone     atomic.Int64 // streams finalized into a cached result (lifetime)
	streamsFailed   atomic.Int64 // streams failed: decode/simulation error (lifetime)
	streamsCanceled atomic.Int64 // streams aborted: client, idle timeout, drain (lifetime)
	streamsRejected atomic.Int64 // stream opens rejected 429: daemon or tenant quota (lifetime)
}

// Vars is the operational-counter snapshot served under the "cbwsd"
// expvar and returned by Service.Counters. A struct (not a map) keeps
// the JSON field order fixed.
type Vars struct {
	JobsQueued    int64   `json:"jobs_queued"`
	JobsRunning   int64   `json:"jobs_running"`
	JobsDone      int64   `json:"jobs_done"`
	JobsFailed    int64   `json:"jobs_failed"`
	JobsCanceled  int64   `json:"jobs_canceled"`
	JobsSimulated int64   `json:"jobs_simulated"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	CacheEntries  int     `json:"cache_entries"`
	Quarantined   int     `json:"cache_quarantined"` // cache files set aside at start-up as torn or mis-keyed
	Rejected      int64   `json:"rejected_429"`
	PeerHits      int64   `json:"peer_fetch_hits"`
	PeerMisses    int64   `json:"peer_fetch_misses"`
	PeerErrors    int64   `json:"peer_fetch_errors"`
	Peers         int     `json:"peers"`
	QueueDepth    int     `json:"queue_depth"`
	Workers       int     `json:"workers"`
	Draining      bool    `json:"draining"`

	StreamsOpen     int   `json:"streams_open"`
	StreamsOpened   int64 `json:"streams_opened"`
	StreamsDone     int64 `json:"streams_done"`
	StreamsFailed   int64 `json:"streams_failed"`
	StreamsCanceled int64 `json:"streams_canceled"`
	StreamsRejected int64 `json:"streams_rejected_429"`
	// StreamsBufferedEvents and StreamsBufferedBytes sum, over open
	// streams, the events decoded at ingest and not yet handed to the
	// simulator, and the CBWT bytes queued for it.
	StreamsBufferedEvents int          `json:"streams_buffered_events"`
	StreamsBufferedBytes  int          `json:"streams_buffered_bytes"`
	Tenants               []TenantVars `json:"tenants,omitempty"`
}

func (s *Service) vars() Vars {
	c := &s.counters
	hits, misses := c.cacheHits.Load(), c.cacheMisses.Load()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	open, bufferedEvents, bufferedBytes := s.streamGauges()
	return Vars{
		JobsQueued:    c.jobsQueued.Load(),
		JobsRunning:   c.jobsRunning.Load(),
		JobsDone:      c.jobsDone.Load(),
		JobsFailed:    c.jobsFailed.Load(),
		JobsCanceled:  c.jobsCanceled.Load(),
		JobsSimulated: c.jobsSimulated.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheHitRatio: ratio,
		CacheEntries:  s.cache.Len(),
		Quarantined:   s.cache.quarantined,
		Rejected:      c.rejected.Load(),
		PeerHits:      c.peerHits.Load(),
		PeerMisses:    c.peerMisses.Load(),
		PeerErrors:    c.peerErrors.Load(),
		Peers:         len(s.cfg.Peers),
		QueueDepth:    s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Draining:      s.Draining(),

		StreamsOpen:           open,
		StreamsOpened:         c.streamsOpened.Load(),
		StreamsDone:           c.streamsDone.Load(),
		StreamsFailed:         c.streamsFailed.Load(),
		StreamsCanceled:       c.streamsCanceled.Load(),
		StreamsRejected:       c.streamsRejected.Load(),
		StreamsBufferedEvents: bufferedEvents,
		StreamsBufferedBytes:  bufferedBytes,
		Tenants:               s.tenantVars(),
	}
}

// tenantVars snapshots every tenant account, sorted by name so the
// expvar JSON is deterministic (the tenant table is a map).
func (s *Service) tenantVars() []TenantVars {
	s.tenants.mu.Lock()
	tens := make([]*tenant, 0, len(s.tenants.m))
	for _, t := range s.tenants.m {
		tens = append(tens, t)
	}
	s.tenants.mu.Unlock()
	sort.SliceStable(tens, func(i, j int) bool { return tens[i].name < tens[j].name })
	out := make([]TenantVars, len(tens))
	for i, t := range tens {
		out[i] = t.vars()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Counters snapshots the service's operational counters — the same
// values the "cbwsd" expvar serves.
func (s *Service) Counters() Vars { return s.vars() }

// The "cbwsd" expvar reflects the most recently constructed Service.
// expvar names are process-global and re-publishing panics, so the var
// is registered once and indirects through an atomic pointer; tests
// that build several services just move the pointer.
var (
	activeService atomic.Pointer[Service]
	publishOnce   sync.Once
)

func publishVars(s *Service) {
	activeService.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("cbwsd", expvar.Func(func() any {
			if svc := activeService.Load(); svc != nil {
				return svc.vars()
			}
			return Vars{}
		}))
	})
}
