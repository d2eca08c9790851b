package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/registry"
	"cbws/internal/sim"
)

// OpenStreamRequest is the POST /v1/streams body (wire type, api/v1).
type OpenStreamRequest = apiv1.OpenStreamRequest

// maxChunkBodyBytes bounds one chunk upload. It is deliberately above
// any sane tenant burst: a chunk the admission layer can never grant is
// rejected with a proper 413 + explanation instead of a transport
// error.
const maxChunkBodyBytes = 16 << 20

// chunkBufPool recycles chunk request-body buffers so sustained chunk
// ingest does not allocate a fresh buffer per HTTP request. (The
// in-memory ingest path itself is allocation-free; see
// TestStreamIngestZeroAlloc.)
var chunkBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeReject maps an admission refusal to its HTTP response. A
// positive retryAfter marks the reject retryable via the Retry-After
// header — on 413 the header's presence is the wire signal that
// distinguishes "buffer momentarily full" from "can never fit".
func writeReject(w http.ResponseWriter, rej *ingestReject) {
	if rej.retryAfter > 0 {
		secs := int(rej.retryAfter.Seconds() + 0.5)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, rej.code, "%s", rej.msg)
}

// parseStreamSpec validates an open-stream request into the JobSpec the
// finalized stream will be recorded under. Unlike closed-job specs the
// workload need not be a registered generator — the trace arrives over
// the wire — so only the simulated system is validated here.
func (s *Service) parseStreamSpec(req OpenStreamRequest) (JobSpec, error) {
	if req.Workload == "" {
		return JobSpec{}, fmt.Errorf("missing workload name")
	}
	if _, err := registry.Resolve(req.Prefetcher); err != nil {
		return JobSpec{}, err
	}
	spec := JobSpec{Workload: req.Workload, Prefetcher: req.Prefetcher, Config: s.cfg.BaseSim}
	if len(req.Config) > 0 {
		cfg, err := sim.ReadConfig(bytes.NewReader(req.Config), s.cfg.BaseSim)
		if err != nil {
			return JobSpec{}, err
		}
		spec.Config = cfg
	}
	if err := spec.Config.Validate(); err != nil {
		return JobSpec{}, err
	}
	if spec.Config.MaxInstructions == 0 {
		return JobSpec{}, fmt.Errorf("config.max_instructions must be positive")
	}
	return spec, nil
}

func (s *Service) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req OpenStreamRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	spec, err := s.parseStreamSpec(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := s.OpenStream(req.Tenant, spec)
	var rej *ingestReject
	switch {
	case errors.As(err, &rej):
		writeReject(w, rej)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, view)
}

func (s *Service) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	buf := chunkBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer chunkBufPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxChunkBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"chunk exceeds the %d-byte upload bound; send smaller chunks", maxChunkBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading chunk: %v", err)
		return
	}
	ack, rej := st.ingest(buf.Bytes(), s.cfg.Clock())
	if rej != nil {
		writeReject(w, rej)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Service) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.View())
}

func (s *Service) handleStreamProbe(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.Probe())
}

func (s *Service) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	view, rej := st.closeInput()
	if rej != nil {
		writeReject(w, rej)
		return
	}
	// Give the finalizing run a brief head start so the common
	// close-after-last-chunk call usually returns the terminal view
	// (with the result key) directly instead of forcing a status poll.
	select {
	case <-st.Done():
		view = st.View()
	case <-time.After(2 * time.Second):
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleStreamAbort(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.abort("canceled by client"))
}
