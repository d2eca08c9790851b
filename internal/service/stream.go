package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// Stream lifecycle states and wire views (see api/v1).
type (
	StreamState     = apiv1.StreamState
	StreamView      = apiv1.StreamView
	ChunkAck        = apiv1.ChunkAck
	StreamProbeView = apiv1.StreamProbeView
)

const (
	StreamOpen       = apiv1.StreamOpen
	StreamFinalizing = apiv1.StreamFinalizing
	StreamDone       = apiv1.StreamDone
	StreamFailed     = apiv1.StreamFailed
	StreamCanceled   = apiv1.StreamCanceled
)

// streamBatch is the event count handed to the simulator per
// ConsumeBatch call, matching the trace package's internal batch size
// so the streamed pipeline has the same batching as a live generator.
const streamBatch = 256

// Counter-commit thresholds: per-stream traffic deltas accumulate
// stream-locally (under the mutex already held for ingest) and are
// flushed to the tenant's shared atomic counters only when either
// threshold is reached, or when the stream's state changes. Net effect:
// the chunk hot path does zero cross-tenant atomic traffic per chunk in
// steady state.
const (
	counterCommitBytes  = 1 << 20
	counterCommitChunks = 64
)

// ingestReject is a chunk/open admission refusal, mapped to an HTTP
// status by the server layer. retryAfter > 0 marks the reject as
// retryable and is advertised in the Retry-After header.
type ingestReject struct {
	code       int // HTTP status
	retryAfter time.Duration
	msg        string
}

func (r *ingestReject) Error() string { return r.msg }

// Stream is one live streaming simulation: the incremental CBWT
// decoder, the bounded event ring between the HTTP ingest side and the
// simulator, and the lifecycle state machine.
//
// Locking: mu guards everything below it; the condition variable is
// signaled when the ring gains events or the lifecycle advances
// (close/abort), which is what the simulator side blocks on. Lock
// order is Stream.mu before tenant.mu; never the reverse.
type Stream struct {
	ID     string
	Tenant string
	Spec   JobSpec

	ten *tenant

	// progress mirrors the simulator's WithProgress hook (total
	// committed instructions), read lock-free by status/probe requests.
	progress atomic.Uint64

	mu   sync.Mutex
	cond sync.Cond
	dec  trace.ChunkDecoder
	sum  hash.Hash // SHA-256 of the raw stream bytes, for content addressing

	ring  []trace.Event //cbws:guardedby mu — bounded FIFO between ingest and simulation; nil once finished
	head  int           //cbws:guardedby mu
	count int           //cbws:guardedby mu
	// ringCap is the ring's length as allocated, still reported in
	// chunk acks after finishStream has released the ring.
	ringCap int

	state       StreamState //cbws:guardedby mu
	errMsg      string      //cbws:guardedby mu
	resultKey   string      //cbws:guardedby mu
	inputClosed bool        //cbws:guardedby mu — no more chunks: finalize when the ring drains
	aborted     bool        //cbws:guardedby mu — discard everything; no result
	budgetDone  bool        //cbws:guardedby mu — the simulator consumed its full instruction budget

	bytesIn  uint64    //cbws:guardedby mu
	chunks   uint64    //cbws:guardedby mu
	events   uint64    //cbws:guardedby mu
	lastRecv time.Time //cbws:guardedby mu

	// Uncommitted tenant-counter deltas (see counterCommitBytes).
	pendBytes  uint64 //cbws:guardedby mu
	pendChunks uint64 //cbws:guardedby mu
	pendEvents uint64 //cbws:guardedby mu

	// Latest probe sample, copied out of the simulator's reused Sample.
	sampleCount int             //cbws:guardedby mu
	lastSample  sim.SamplePoint //cbws:guardedby mu

	done chan struct{} // closed when the runner goroutine exits
}

func newStream(id string, spec JobSpec, tenantName string, ten *tenant, bufferEvents int, now time.Time) *Stream {
	st := &Stream{
		ID:       id,
		Tenant:   tenantName,
		Spec:     spec,
		ten:      ten,
		sum:      sha256.New(),
		ring:     make([]trace.Event, bufferEvents),
		ringCap:  bufferEvents,
		state:    StreamOpen,
		lastRecv: now,
		done:     make(chan struct{}),
	}
	st.cond.L = &st.mu
	return st
}

// ringSink appends decoded batches to the stream's ring. It is only
// ever invoked from ChunkDecoder.Feed while st.mu is held, and ingest
// has already reserved enough space, so the append cannot overflow.
type ringSink struct{ st *Stream }

func (rs ringSink) ConsumeBatch(batch []trace.Event) bool {
	// ChunkDecoder.Feed only runs from ingest, which already holds
	// st.mu; the analyzer cannot see through the decoder callback.
	//lint:ignore cbws/guardedby ConsumeBatch is only reached from ingest with st.mu held
	rs.st.appendRingLocked(batch)
	return true
}

// appendRingLocked appends batch to the ring. Caller holds st.mu and
// has reserved space, so the append cannot overflow.
func (st *Stream) appendRingLocked(batch []trace.Event) {
	for _, e := range batch {
		st.ring[(st.head+st.count)%len(st.ring)] = e
		st.count++
	}
	st.events += uint64(len(batch))
	st.pendEvents += uint64(len(batch))
}

// take copies up to len(buf) ring events into buf, returning the count.
func (st *Stream) take(buf []trace.Event) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.aborted {
		return 0
	}
	n := st.count
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = st.ring[(st.head+i)%len(st.ring)]
	}
	st.head = (st.head + n) % len(st.ring)
	st.count -= n
	return n
}

// ingest admits and decodes one chunk. It is the streaming hot path:
// in steady state (header parsed, in-quota, space available) it
// performs no allocation — the decoder's fixed buffers, the
// preallocated ring, the running SHA-256, and stream-local counter
// deltas are all in place — which TestStreamIngestZeroAlloc pins.
func (st *Stream) ingest(chunk []byte, now time.Time) (ChunkAck, *ingestReject) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case StreamOpen, StreamFinalizing, StreamDone:
		if st.budgetDone {
			// The simulation already consumed its full instruction
			// budget; late bytes change nothing. Accept and discard so
			// a feeder running ahead of the simulator finishes cleanly
			// instead of spinning on a buffer nobody drains anymore.
			return st.ackLocked(), nil
		}
		if st.state != StreamOpen || st.inputClosed {
			return ChunkAck{}, &ingestReject{code: 409, msg: fmt.Sprintf("stream %s is closed to input", st.ID)}
		}
	default:
		return ChunkAck{}, &ingestReject{code: 409, msg: fmt.Sprintf("stream %s is %s: %s", st.ID, st.state, st.errMsg)}
	}

	// Space first: every encoded event is at least two bytes (kind +
	// one field byte), so a chunk can decode to at most len/2+1 events
	// (+1 for a pending partial event completed by this chunk). The
	// bound is conservative but allocation-free and branch-cheap.
	need := len(chunk)/2 + 1
	if need > len(st.ring) {
		return ChunkAck{}, &ingestReject{code: 413,
			msg: fmt.Sprintf("chunk of %d bytes can never fit the %d-event stream buffer; send smaller chunks", len(chunk), len(st.ring))}
	}
	if need > len(st.ring)-st.count {
		return ChunkAck{}, &ingestReject{code: 413, retryAfter: time.Second,
			msg: fmt.Sprintf("stream buffer full (%d/%d events); the simulator is behind, retry shortly", st.count, len(st.ring))}
	}

	// Rate admission: bytes are charged against the tenant's token
	// bucket. Oversized-for-the-bucket chunks can never be granted and
	// are a hard reject, not a retry loop.
	if float64(len(chunk)) > st.ten.bucket.burst {
		return ChunkAck{}, &ingestReject{code: 413,
			msg: fmt.Sprintf("chunk of %d bytes exceeds the tenant burst of %.0f bytes", len(chunk), st.ten.bucket.burst)}
	}
	if ok, wait := st.ten.admitBytes(now, len(chunk)); !ok {
		if wait < time.Second {
			wait = time.Second
		}
		return ChunkAck{}, &ingestReject{code: 429, retryAfter: wait,
			msg: fmt.Sprintf("tenant %q over byte rate; retry after %s", st.Tenant, wait.Round(time.Second))}
	}

	st.sum.Write(chunk)
	st.bytesIn += uint64(len(chunk))
	st.chunks++
	st.pendBytes += uint64(len(chunk))
	st.pendChunks++
	st.lastRecv = now
	if err := st.dec.Feed(chunk, ringSink{st}); err != nil {
		st.failLocked(fmt.Sprintf("malformed trace chunk: %v", err))
		return ChunkAck{}, &ingestReject{code: 400, msg: st.errMsg}
	}
	if st.pendBytes >= counterCommitBytes || st.pendChunks >= counterCommitChunks {
		st.commitPendingLocked()
	}
	st.cond.Broadcast()
	return st.ackLocked(), nil
}

// commitPendingLocked flushes the stream-local counter deltas to the
// tenant's shared atomics. Caller holds st.mu.
func (st *Stream) commitPendingLocked() {
	if st.pendBytes > 0 {
		st.ten.bytesIn.Add(st.pendBytes)
		st.pendBytes = 0
	}
	if st.pendChunks > 0 {
		st.ten.chunksIn.Add(st.pendChunks)
		st.pendChunks = 0
	}
	if st.pendEvents > 0 {
		st.ten.eventsIn.Add(st.pendEvents)
		st.pendEvents = 0
	}
}

func (st *Stream) ackLocked() ChunkAck {
	return ChunkAck{
		State:          st.state,
		BytesIn:        st.bytesIn,
		BufferedEvents: st.count,
		BufferCap:      st.ringCap,
	}
}

// failLocked moves an open stream to failed and tells the simulator
// side to discard. Caller holds st.mu.
func (st *Stream) failLocked(msg string) {
	st.state = StreamFailed
	st.errMsg = msg
	st.aborted = true
	st.commitPendingLocked()
	st.cond.Broadcast()
}

// closeInput declares end of input: the stream finalizes once the ring
// drains. A stream cut off mid-event is malformed (the byte sequence
// could never have decoded as a whole trace) and fails instead.
func (st *Stream) closeInput() (StreamView, *ingestReject) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case StreamOpen:
	case StreamFinalizing, StreamDone:
		return st.viewLocked(), nil // idempotent
	default:
		return StreamView{}, &ingestReject{code: 409, msg: fmt.Sprintf("stream %s is %s: %s", st.ID, st.state, st.errMsg)}
	}
	if !st.dec.AtEventBoundary() {
		st.failLocked("stream closed mid-event: truncated trace")
		return StreamView{}, &ingestReject{code: 400, msg: st.errMsg}
	}
	st.inputClosed = true
	st.state = StreamFinalizing
	st.commitPendingLocked()
	st.cond.Broadcast()
	return st.viewLocked(), nil
}

// abort cancels the stream; reason lands in the view's error field.
func (st *Stream) abort(reason string) StreamView {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state.Terminal() {
		return st.viewLocked()
	}
	st.state = StreamCanceled
	st.errMsg = reason
	st.aborted = true
	st.commitPendingLocked()
	st.cond.Broadcast()
	return st.viewLocked()
}

// View snapshots the stream for serialization.
func (st *Stream) View() StreamView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.viewLocked()
}

func (st *Stream) viewLocked() StreamView {
	return StreamView{
		ID:         st.ID,
		Tenant:     st.Tenant,
		Workload:   st.Spec.Workload,
		Prefetcher: st.Spec.Prefetcher,
		State:      st.state,
		Key:        st.resultKey,
		BytesIn:    st.bytesIn,
		Chunks:     st.chunks,
		Events:     st.events,
		Progress: Progress{
			Instructions:    st.progress.Load(),
			MaxInstructions: st.Spec.Config.MaxInstructions,
		},
		Error: st.errMsg,
	}
}

// Probe snapshots the live observability state.
func (st *Stream) Probe() StreamProbeView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamProbeView{
		ID:    st.ID,
		State: st.state,
		Progress: Progress{
			Instructions:    st.progress.Load(),
			MaxInstructions: st.Spec.Config.MaxInstructions,
		},
		Samples: st.sampleCount,
		Latest:  st.lastSample,
	}
}

// Done returns a channel closed when the runner goroutine has exited
// (the stream is terminal and its result, if any, is cached).
func (st *Stream) Done() <-chan struct{} { return st.done }

// streamProbe tees simulator samples into the run-record series and the
// stream's live snapshot.
type streamProbe struct {
	ts *sim.TimeSeries
	st *Stream
}

func (p streamProbe) OnSample(s *sim.Sample) {
	p.ts.OnSample(s)
	st := p.st
	st.mu.Lock()
	st.sampleCount++
	st.lastSample = sim.SamplePoint{
		Instructions:    s.Instructions,
		Cycles:          s.Cycles,
		Interval:        s.Interval,
		ROBOccupancy:    s.ROBOccupancy,
		L1MSHROccupancy: s.L1MSHROccupancy,
		L2MSHROccupancy: s.L2MSHROccupancy,
		Final:           s.Final,
	}
	st.mu.Unlock()
}

// streamGen adapts the stream's event ring to trace.Generator: the
// generator the long-lived sim.RunContext pulls from, wrapped in the
// scheduler's slotGen like every simulation. While the ring is empty it
// hands its slot back — an idle stream costs nothing.
type streamGen struct {
	st    *Stream
	slots *slotGen
	buf   [streamBatch]trace.Event
}

// Name returns the declared workload name: the simulation result (and
// therefore the run record) identifies the stream's workload exactly
// like a closed job's would.
func (g *streamGen) Name() string { return g.st.Spec.Workload }

// waitReadable blocks until the ring has events or the stream's input
// is over. It reports false when generation should end: aborted, or
// input closed with the ring drained.
func (g *streamGen) waitReadable() bool {
	st := g.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.count == 0 && !st.inputClosed && !st.aborted {
		st.cond.Wait()
	}
	return !st.aborted && st.count > 0
}

// GenerateBatches implements trace.Generator.
func (g *streamGen) GenerateBatches(sink trace.BatchSink) {
	for {
		n := g.st.take(g.buf[:])
		if n == 0 {
			g.slots.release()
			if !g.waitReadable() {
				return
			}
			continue
		}
		if !sink.ConsumeBatch(g.buf[:n]) {
			// The simulator's instruction budget is exhausted;
			// whatever else arrives is irrelevant to the result.
			g.st.mu.Lock()
			g.st.budgetDone = true
			g.st.mu.Unlock()
			return
		}
	}
}

// OpenStream validates and admits a new streaming simulation, spawns
// its runner, and returns its initial view. Admission rejections come
// back as *ingestReject (quota/rate → 429) for the server layer to map.
func (s *Service) OpenStream(tenantName string, spec JobSpec) (StreamView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return StreamView{}, ErrDraining
	}
	if tenantName == "" {
		return StreamView{}, fmt.Errorf("missing tenant name")
	}
	now := s.cfg.Clock()
	open := 0
	for _, st := range s.streams {
		st.mu.Lock()
		if !st.state.Terminal() {
			open++
		}
		st.mu.Unlock()
	}
	if s.cfg.MaxStreams > 0 && open >= s.cfg.MaxStreams {
		s.counters.streamsRejected.Add(1)
		return StreamView{}, &ingestReject{code: 429, retryAfter: s.cfg.RetryAfter,
			msg: fmt.Sprintf("daemon at its %d-stream capacity", s.cfg.MaxStreams)}
	}
	ten := s.tenants.get(tenantName, now)
	if !ten.admitOpen(s.cfg.TenantStreams) {
		s.counters.streamsRejected.Add(1)
		return StreamView{}, &ingestReject{code: 429, retryAfter: s.cfg.RetryAfter,
			msg: fmt.Sprintf("tenant %q at its %d-stream quota", tenantName, s.cfg.TenantStreams)}
	}
	s.streamSeq++
	id := fmt.Sprintf("st-%08d", s.streamSeq)
	st := newStream(id, spec, tenantName, ten, s.cfg.StreamBufferEvents, now)
	s.streams[id] = st
	s.counters.streamsOpened.Add(1)
	s.wg.Add(1)
	go s.runStream(st)
	return st.View(), nil
}

// Stream returns the stream table entry for id.
func (s *Service) Stream(id string) (*Stream, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[id]
	return st, ok
}

// openStreamCount counts non-terminal streams (the streams_open gauge).
func (s *Service) openStreamCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.streams {
		st.mu.Lock()
		if !st.state.Terminal() {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// runStream owns one stream's simulation end to end: it drives a
// long-lived sim.RunContext from the event ring, and on a clean end of
// input stores the exact run record a closed job would produce in the
// content-addressed result cache.
func (s *Service) runStream(st *Stream) {
	defer s.wg.Done()
	defer close(st.done)
	defer st.ten.releaseStream()

	f, err := registry.Resolve(st.Spec.Prefetcher)
	if err != nil {
		// Validated at open; only a roster change mid-flight gets here.
		s.finishStream(st, "", err.Error())
		return
	}
	ts := s.newSeries(st.Spec.Config)
	start := s.cfg.Clock()
	slots := &slotGen{sched: s.sched}
	slots.gen = &streamGen{st: st, slots: slots}
	res, err := sim.RunContext(context.Background(), st.Spec.Config, slots, f.New(),
		sim.WithProbe(streamProbe{ts: ts, st: st}),
		sim.WithSampleInterval(s.cfg.SampleInterval),
		sim.WithProgress(st.progress.Store))
	slots.release()

	st.mu.Lock()
	aborted := st.aborted
	st.mu.Unlock()
	if aborted {
		// Canceled (client abort, idle timeout, decode failure, drain):
		// the state and error are already set; discard the partial run.
		s.finishStream(st, "", "")
		return
	}
	if err != nil {
		s.finishStream(st, "", err.Error())
		return
	}

	// Content address: a stream that consumed its full instruction
	// budget replayed exactly what the declared workload's generator
	// would have produced under the same budget (the daemon trusts the
	// tenant's declaration; see DESIGN.md §14), so the record is cached
	// under the closed job's key and the two serving paths converge. A
	// stream that ended early is a different piece of work and is
	// addressed by the SHA-256 of its own bytes instead. Corpus-backed
	// workloads never adopt the closed key: a closed job for them
	// replays the corpus, not the tenant's bytes.
	points := ts.Points()
	full := len(points) > 0 && points[len(points)-1].Instructions >= st.Spec.Config.MaxInstructions
	_, registered := workload.ByName(st.Spec.Workload)
	corpusBacked := false
	if s.cfg.Corpus != nil {
		if h, _ := s.cfg.Corpus.Hash(st.Spec.Workload); h != "" {
			corpusBacked = true
		}
	}
	spec := st.Spec
	if !full || !registered || corpusBacked {
		spec.WorkloadHash = func() string {
			st.mu.Lock()
			defer st.mu.Unlock()
			return hex.EncodeToString(st.sum.Sum(nil))
		}()
	}
	key := spec.Key(s.cfg.CodeVersion)
	// If the closed job (or an earlier stream) already cached this key,
	// this stream's result is served from those bytes — the byte
	// identity the streaming smoke asserts.
	if err := s.storeRecord(key, spec, res, points, start); err != nil {
		s.finishStream(st, "", err.Error())
		return
	}
	s.finishStream(st, key, "")
}

// finishStream settles the stream's terminal state and counters. With
// key set the stream is done; with msg set it failed; with neither the
// state was already terminal (canceled/failed) and is left as is. The
// runner is past its last ring read and a terminal stream admits no
// more events, so the ring is released here: the stream stays listed
// without pinning StreamBufferEvents events.
func (s *Service) finishStream(st *Stream, key, msg string) {
	st.mu.Lock()
	switch {
	case key != "":
		st.state = StreamDone
		st.resultKey = key
		st.ten.streamsDone.Add(1)
		s.counters.streamsDone.Add(1)
	case msg != "":
		st.state = StreamFailed
		st.errMsg = msg
		s.counters.streamsFailed.Add(1)
	case st.state == StreamFailed:
		s.counters.streamsFailed.Add(1)
	default:
		s.counters.streamsCanceled.Add(1)
	}
	st.commitPendingLocked()
	st.ring, st.head, st.count = nil, 0, 0
	st.mu.Unlock()
}

// reapIdleStreams finalizes or cancels streams whose last chunk is
// older than the idle timeout: a stream whose trace already terminated
// cleanly is finalized as if the client had closed it (the work is
// complete; only the close call is missing), anything else is
// canceled. Called by the reaper goroutine and directly by tests.
func (s *Service) reapIdleStreams(now time.Time) {
	if s.cfg.StreamIdleTimeout <= 0 {
		return
	}
	for _, st := range s.streamsByID() {
		st.mu.Lock()
		expired := st.state == StreamOpen && now.Sub(st.lastRecv) > s.cfg.StreamIdleTimeout
		terminated := st.dec.Terminated()
		st.mu.Unlock()
		if !expired {
			continue
		}
		if terminated {
			_, _ = st.closeInput()
		} else {
			st.abort("idle timeout: no chunk for " + s.cfg.StreamIdleTimeout.String())
		}
	}
}

// reaper periodically sweeps idle streams until drain.
func (s *Service) reaper() {
	defer s.wg.Done()
	period := s.cfg.StreamIdleTimeout / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	if period > 5*time.Second {
		period = 5 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.reapIdleStreams(s.cfg.Clock())
		}
	}
}

// streamsByID lists every stream in creation order: a deterministic
// handling order (map iteration is randomized), since IDs are
// zero-padded sequence numbers.
func (s *Service) streamsByID() []*Stream {
	s.mu.Lock()
	out := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, st)
	}
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// settleStreams applies finalize-or-cancel to every live stream at
// drain: cleanly-terminated streams finalize into normal cached
// results, everything else cancels.
func settleStreams(live []*Stream) {
	for _, st := range live {
		st.mu.Lock()
		open := st.state == StreamOpen
		terminated := st.dec.Terminated()
		st.mu.Unlock()
		if !open {
			continue
		}
		if terminated {
			_, _ = st.closeInput()
		} else {
			st.abort("server draining")
		}
	}
}
