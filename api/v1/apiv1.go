// Package apiv1 is the versioned wire contract of the cbwsd simulation
// service: the request/response body types, the route layout, the job
// content-address (JobSpec.Key), and the shared HTTP client every
// consumer — cbwsctl, cbwsload, and the daemon's own peer-fetch path —
// speaks through.
//
// Compatibility rules (the "v1" in the import path is a promise):
//
//   - Body shapes only grow. New fields must be optional (omitempty)
//     and servers must reject nothing they accepted before. Removing
//     or renaming a JSON field is a v2.
//   - Routes under /v1/ are stable. New routes may be added; existing
//     ones never change method, path shape, or status-code mapping.
//   - The canonical key encoding (KeySchema) is part of the contract:
//     it decides which cached results are shareable between daemons,
//     so any change to it must bump KeySchema, never mutate it in
//     place.
//
// The types here marshal byte-identically to the pre-extraction
// internal/service definitions, so job keys computed by older daemons
// are unchanged.
package apiv1

import "encoding/json"

// Route layout of the v1 API. Servers mount these exact paths; clients
// construct requests from them.
const (
	PathJobs        = "/v1/jobs"        // POST: submit; GET {key}: status
	PathResults     = "/v1/results"     // GET {key}: run-record JSON
	PathWorkloads   = "/v1/workloads"   // GET: workload roster
	PathPrefetchers = "/v1/prefetchers" // GET: prefetcher roster
	PathHealthz     = "/healthz"        // GET: liveness + drain state
	PathVars        = "/debug/vars"     // GET: expvar counters
)

// SubmitRequest is the POST /v1/jobs body. Config, when present, is a
// partial sim.Config merged over the daemon's base configuration
// (unknown fields are rejected); absent, the base is used as-is.
type SubmitRequest struct {
	Workload   string          `json:"workload"`
	Prefetcher string          `json:"prefetcher"`
	Config     json.RawMessage `json:"config,omitempty"`
	// WorkloadHash, when present, pins the content address of the
	// corpus the job must run from; the daemon rejects the submission
	// (409) if its corpus for the workload differs.
	WorkloadHash string `json:"workload_hash,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued → running → done | failed, with canceled
// for jobs still queued when the daemon drains.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Progress is the polled completion state of a job, derived from the
// simulator's progress hook.
type Progress struct {
	// Instructions is the committed instruction count at the last
	// progress report (0 until the first sample interval elapses).
	Instructions uint64 `json:"instructions"`
	// MaxInstructions is the job's instruction budget.
	MaxInstructions uint64 `json:"max_instructions"`
}

// JobView is the wire form of a job's state, returned by the submit and
// status endpoints.
type JobView struct {
	Key        string   `json:"key"`
	Workload   string   `json:"workload"`
	Prefetcher string   `json:"prefetcher"`
	Status     Status   `json:"status"`
	Progress   Progress `json:"progress"`
	// Cached marks a view synthesized from the result cache alone (the
	// result predates this daemon's job table) or a completion whose
	// bytes are served from the cache.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// RosterEntry is one name in the workload/prefetcher listings.
type RosterEntry struct {
	Name  string `json:"name"`
	Suite string `json:"suite,omitempty"`
	MI    bool   `json:"mi,omitempty"`
}

// Healthz is the liveness body.
type Healthz struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	CodeVersion string `json:"code_version"`
}
