package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	apiv1 "cbws/api/v1"
	"cbws/internal/debugsrv"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// SubmitRequest is the POST /v1/jobs body (wire type, see api/v1).
type SubmitRequest = apiv1.SubmitRequest

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client went away; nothing useful to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiv1.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds submit request bodies; configs are small.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs          submit a job (idempotent by content address)
//	GET  /v1/jobs/{key}    job status with progress
//	GET  /v1/results/{key} the run-record JSON for a completed job
//	GET  /v1/workloads     workload roster
//	GET  /v1/prefetchers   prefetcher roster
//	GET  /healthz          liveness + drain state
//	GET  /debug/...        pprof + expvar diagnostics (debugsrv)
//
// plus the streaming-simulation API (see api/v1 PathStreams):
//
//	POST   /v1/streams              open a stream (admission-controlled)
//	GET    /v1/streams/{id}         stream status
//	POST   /v1/streams/{id}/chunks  append CBWT trace bytes
//	POST   /v1/streams/{id}/close   end of input, finalize
//	DELETE /v1/streams/{id}         abort
//	GET    /v1/streams/{id}/probe   live probe snapshot
//
// The wire contract (paths, body shapes, status mapping) is the api/v1
// package; this handler is its server side.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+apiv1.PathJobs, s.handleSubmit)
	mux.HandleFunc("GET "+apiv1.PathJobs+"/{key}", s.handleStatus)
	mux.HandleFunc("GET "+apiv1.PathResults+"/{key}", s.handleResult)
	mux.HandleFunc("GET "+apiv1.PathWorkloads, s.handleWorkloads)
	mux.HandleFunc("GET "+apiv1.PathPrefetchers, s.handlePrefetchers)
	mux.HandleFunc("GET "+apiv1.PathHealthz, s.handleHealthz)
	mux.HandleFunc("POST "+apiv1.PathStreams, s.handleStreamOpen)
	mux.HandleFunc("GET "+apiv1.PathStreams+"/{id}", s.handleStreamStatus)
	mux.HandleFunc("POST "+apiv1.PathStreams+"/{id}/chunks", s.handleStreamChunk)
	mux.HandleFunc("POST "+apiv1.PathStreams+"/{id}/close", s.handleStreamClose)
	mux.HandleFunc("DELETE "+apiv1.PathStreams+"/{id}", s.handleStreamAbort)
	mux.HandleFunc("GET "+apiv1.PathStreams+"/{id}/probe", s.handleStreamProbe)
	mux.Handle("GET /debug/", debugsrv.Handler())
	return mux
}

// ParseSpec decodes one submit request against the base configuration.
// Shared by the HTTP handler and by clients (cbwsctl) that want the
// canonical key of a request without a round trip.
func ParseSpec(body []byte, base sim.Config) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return JobSpec{}, fmt.Errorf("parsing request: %w", err)
	}
	spec := JobSpec{Workload: req.Workload, Prefetcher: req.Prefetcher, Config: base, WorkloadHash: req.WorkloadHash}
	if len(req.Config) > 0 {
		cfg, err := sim.ReadConfig(bytes.NewReader(req.Config), base)
		if err != nil {
			return JobSpec{}, err
		}
		spec.Config = cfg
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	spec, err := ParseSpec(body, s.cfg.BaseSim)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "%v (retry after %s)", err, s.cfg.RetryAfter)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrCorpusMismatch):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if view.Status == StatusQueued {
		code = http.StatusAccepted
	}
	writeJSON(w, code, view)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	view, ok := s.Status(key)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", key)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.Result(key)
	if !ok {
		if _, _, indexed := s.cache.Names(key); indexed {
			// The record is still indexed, so its read failed for a
			// reason other than its bytes; the file is untouched and a
			// retry, here or on a sibling, may be served.
			writeError(w, http.StatusServiceUnavailable, "result %q could not be read, retry", key)
			return
		}
		if view, live := s.Status(key); live {
			writeError(w, http.StatusNotFound, "job %q is %s, result not available", key, view.Status)
		} else {
			writeError(w, http.StatusNotFound, "unknown job %q", key)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []apiv1.RosterEntry
	for _, spec := range workload.All() {
		out = append(out, apiv1.RosterEntry{Name: spec.Name, Suite: spec.Suite, MI: spec.MI})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handlePrefetchers(w http.ResponseWriter, r *http.Request) {
	var out []apiv1.RosterEntry
	for _, f := range registry.Names() {
		out = append(out, apiv1.RosterEntry{Name: f})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, apiv1.Healthz{
		Status:      "ok",
		Draining:    s.Draining(),
		CodeVersion: s.cfg.CodeVersion,
	})
}
