package apiv1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cbws/internal/sim"
)

// Streaming routes. A stream is a long-lived simulation fed CBWT trace
// bytes chunk by chunk instead of a closed (workload, prefetcher,
// config) job:
//
//	POST   /v1/streams              open (OpenStreamRequest → StreamView)
//	GET    /v1/streams/{id}         status (StreamView)
//	POST   /v1/streams/{id}/chunks  append CBWT bytes (→ ChunkAck)
//	POST   /v1/streams/{id}/close   end of input; finalize (→ StreamView)
//	DELETE /v1/streams/{id}         abort (→ StreamView)
//	GET    /v1/streams/{id}/probe   live probe snapshot (StreamProbeView)
//
// Admission control is part of the contract: over-quota opens and
// chunks are rejected with 429 + Retry-After (retryable), oversized or
// unbuffereable chunks with 413 (a Retry-After header marks the 413
// retryable; its absence means the chunk can never fit).
const PathStreams = "/v1/streams"

// OpenStreamRequest is the POST /v1/streams body. Tenant names the
// quota account the stream is billed to. Workload and Config mirror the
// closed-job SubmitRequest: the simulated system is configured up
// front, while the instruction stream arrives later as chunks. The
// declared workload decides the result's content address — a stream
// that runs the full MaxInstructions budget yields a RunRecord cached
// under the same key as the equivalent closed job.
type OpenStreamRequest struct {
	Tenant     string          `json:"tenant"`
	Workload   string          `json:"workload"`
	Prefetcher string          `json:"prefetcher"`
	Config     json.RawMessage `json:"config,omitempty"`
}

// StreamState is a stream's lifecycle state: open → finalizing → done,
// with failed for decode/simulation errors and canceled for aborts
// (client DELETE, idle timeout mid-event, daemon drain).
type StreamState string

const (
	StreamOpen       StreamState = "open"
	StreamFinalizing StreamState = "finalizing"
	StreamDone       StreamState = "done"
	StreamFailed     StreamState = "failed"
	StreamCanceled   StreamState = "canceled"
)

// Terminal reports whether the state is final.
func (s StreamState) Terminal() bool {
	return s == StreamDone || s == StreamFailed || s == StreamCanceled
}

// StreamView is the wire form of a stream's state.
type StreamView struct {
	ID         string      `json:"id"`
	Tenant     string      `json:"tenant"`
	Workload   string      `json:"workload"`
	Prefetcher string      `json:"prefetcher"`
	State      StreamState `json:"state"`
	// Key is the content address of the finalized RunRecord in the
	// result cache; set once State is done.
	Key      string   `json:"key,omitempty"`
	BytesIn  uint64   `json:"bytes_in"`
	Chunks   uint64   `json:"chunks"`
	Events   uint64   `json:"events"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// ChunkAck is the POST chunk response: enough state for a feeder to
// pace itself without a separate status poll.
type ChunkAck struct {
	State   StreamState `json:"state"`
	BytesIn uint64      `json:"bytes_in"`
	// BufferedEvents/BufferCap expose the stream's bounded queue, in
	// events decoded at ingest and not yet simulated; feeders seeing
	// Buffered approach Cap should expect 413s next.
	BufferedEvents int `json:"buffered_events"`
	BufferCap      int `json:"buffer_cap"`
}

// StreamProbeView is the live observability snapshot: the most recent
// probe sample of the in-flight simulation plus the stream state.
type StreamProbeView struct {
	ID       string      `json:"id"`
	State    StreamState `json:"state"`
	Progress Progress    `json:"progress"`
	// Samples is the number of probe samples taken so far; 0 means
	// Latest is not yet meaningful.
	Samples int             `json:"samples"`
	Latest  sim.SamplePoint `json:"latest"`
}

// OpenStream opens a stream, sleeping out 429 admission rejects under
// the client Budget like Submit does for queue-full.
func (c *Client) OpenStream(req OpenStreamRequest) (StreamView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return StreamView{}, err
	}
	deadline := time.Now().Add(c.Budget)
	for {
		view, retry, err := c.TryOpenStream(body)
		if err == nil {
			return view, nil
		}
		if retry <= 0 || time.Now().Add(retry).After(deadline) {
			return view, err
		}
		if c.Logf != nil {
			c.Logf("stream admission rejected, retrying in %s", retry)
		}
		if c.OnBackpressure != nil {
			c.OnBackpressure(retry)
		}
		time.Sleep(retry)
	}
}

// TryOpenStream posts one open request without retrying. On a 429 the
// returned wait is the jittered Retry-After (> 0); load harnesses use
// the single-attempt form to count quota rejections instead of
// sleeping them out.
func (c *Client) TryOpenStream(body []byte) (view StreamView, retry time.Duration, err error) {
	resp, err := c.HTTP.Post(c.Base+PathStreams, "application/json", bytes.NewReader(body))
	if err != nil {
		return StreamView{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return StreamView{}, 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		if err := json.Unmarshal(raw, &view); err != nil {
			return StreamView{}, 0, fmt.Errorf("decoding open-stream response: %w", err)
		}
		return view, 0, nil
	case http.StatusTooManyRequests:
		return StreamView{}, c.retryAfter(resp), decodeError(resp, raw)
	default:
		return StreamView{}, 0, decodeError(resp, raw)
	}
}

// SendChunk appends CBWT bytes to an open stream, retrying 429 (rate
// limit) and retryable 413 (buffer full) waits under the Budget. The
// measure callback, when set, observes each attempt's ack latency —
// including rejected attempts — so load harnesses can report chunk-ack
// percentiles without wrapping the client.
func (c *Client) SendChunk(id string, chunk []byte, measure func(time.Duration, int)) (ChunkAck, error) {
	url := c.Base + PathStreams + "/" + id + "/chunks"
	deadline := time.Now().Add(c.Budget)
	for {
		start := time.Now()
		resp, err := c.HTTP.Post(url, "application/octet-stream", bytes.NewReader(chunk))
		if err != nil {
			return ChunkAck{}, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if measure != nil {
			measure(time.Since(start), resp.StatusCode)
		}
		if err != nil {
			return ChunkAck{}, err
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			var ack ChunkAck
			if err := json.Unmarshal(raw, &ack); err != nil {
				return ChunkAck{}, fmt.Errorf("decoding chunk ack: %w", err)
			}
			return ack, nil
		case http.StatusTooManyRequests:
			wait := c.retryAfter(resp)
			if time.Now().Add(wait).After(deadline) {
				return ChunkAck{}, fmt.Errorf("rate limit held for %s: %w", c.Budget, decodeError(resp, raw))
			}
			if c.OnBackpressure != nil {
				c.OnBackpressure(wait)
			}
			time.Sleep(wait)
		case http.StatusRequestEntityTooLarge:
			if resp.Header.Get("Retry-After") == "" {
				// No Retry-After: the chunk exceeds a hard bound
				// (tenant burst or buffer capacity) and can never fit.
				return ChunkAck{}, decodeError(resp, raw)
			}
			wait := c.retryAfter(resp)
			if time.Now().Add(wait).After(deadline) {
				return ChunkAck{}, fmt.Errorf("stream buffer stayed full for %s: %w", c.Budget, decodeError(resp, raw))
			}
			if c.OnBackpressure != nil {
				c.OnBackpressure(wait)
			}
			time.Sleep(wait)
		default:
			return ChunkAck{}, decodeError(resp, raw)
		}
	}
}

// StreamStatus reads one stream's state.
func (c *Client) StreamStatus(id string) (StreamView, error) {
	var view StreamView
	err := c.GetJSON(PathStreams+"/"+id, &view)
	return view, err
}

// StreamProbe reads the live probe snapshot of an in-flight stream.
func (c *Client) StreamProbe(id string) (StreamProbeView, error) {
	var view StreamProbeView
	err := c.GetJSON(PathStreams+"/"+id+"/probe", &view)
	return view, err
}

// CloseStream declares end of input and asks the daemon to finalize.
func (c *Client) CloseStream(id string) (StreamView, error) {
	resp, err := c.HTTP.Post(c.Base+PathStreams+"/"+id+"/close", "application/json", nil)
	if err != nil {
		return StreamView{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return StreamView{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return StreamView{}, decodeError(resp, raw)
	}
	var view StreamView
	if err := json.Unmarshal(raw, &view); err != nil {
		return StreamView{}, fmt.Errorf("decoding close response: %w", err)
	}
	return view, nil
}

// AbortStream cancels a stream; buffered and future input is discarded
// and no result is produced.
func (c *Client) AbortStream(id string) (StreamView, error) {
	req, err := http.NewRequest(http.MethodDelete, c.Base+PathStreams+"/"+id, nil)
	if err != nil {
		return StreamView{}, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return StreamView{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return StreamView{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return StreamView{}, decodeError(resp, raw)
	}
	var view StreamView
	if err := json.Unmarshal(raw, &view); err != nil {
		return StreamView{}, fmt.Errorf("decoding abort response: %w", err)
	}
	return view, nil
}

// WaitStream polls a stream until it reaches a terminal state, erroring
// on failed/canceled streams and when the Budget runs out.
func (c *Client) WaitStream(id string) (StreamView, error) {
	deadline := time.Now().Add(c.Budget)
	for {
		view, err := c.StreamStatus(id)
		if err != nil {
			return view, err
		}
		switch view.State {
		case StreamDone:
			return view, nil
		case StreamFailed, StreamCanceled:
			return view, fmt.Errorf("stream %s %s: %s", id, view.State, view.Error)
		}
		if time.Now().After(deadline) {
			return view, fmt.Errorf("stream %s still %s after %s", id, view.State, c.Budget)
		}
		time.Sleep(c.Poll)
	}
}
