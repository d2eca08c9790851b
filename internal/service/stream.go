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

// bufBytes is the capacity of one queue buffer in CBWT bytes. With
// the buffer's link and fill count, and the 8-byte header the Go
// allocator puts in front of every small object holding a pointer, a
// buffer fills one 16 KiB allocation exactly
// (TestByteBufFitsSizeClass).
const bufBytes = 16<<10 - 24

// byteBuf is one buffer of the stream's byte queue: up to bufBytes raw
// chunk bytes, linked into the queue or onto the free list. The link
// comes first so the collector scans one word of it.
type byteBuf struct {
	next *byteBuf
	n    int
	b    [bufBytes]byte
}

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

// Stream is one streaming simulation: the incremental CBWT decoder
// that validates and counts every chunk, the bounded queue of chunk
// bytes between the HTTP ingest side and the simulator, and the
// lifecycle state machine. The stream table lists a stream for the
// daemon's life, so what only an unfinished stream needs sits in live,
// which finishStream drops whole.
//
// Locking: mu guards everything below it, live's fields included; the
// condition variable is signaled when the queue gains bytes or the
// lifecycle advances (close/abort), which is what the simulator side
// blocks on. Lock order is Stream.mu before tenant.mu; never the
// reverse.
type Stream struct {
	ID     string
	Tenant string
	Spec   JobSpec

	ten *tenant

	// progress mirrors the simulator's WithProgress hook (total
	// committed instructions), read lock-free by status/probe requests.
	progress atomic.Uint64

	mu   sync.Mutex
	live *streamLive //cbws:guardedby mu — nil once the stream is finished

	// count is the events the queued bytes decoded to at ingest and the
	// simulator has not yet been handed.
	count int //cbws:guardedby mu
	// bound is the most events the queue may hold (StreamBufferEvents),
	// reported in chunk acks.
	bound int

	state       StreamState //cbws:guardedby mu
	errMsg      string      //cbws:guardedby mu
	resultKey   string      //cbws:guardedby mu
	inputClosed bool        //cbws:guardedby mu — no more chunks: finalize when the queue drains
	aborted     bool        //cbws:guardedby mu — discard everything; no result
	budgetDone  bool        //cbws:guardedby mu — the simulator consumed its full instruction budget

	bytesIn uint64 //cbws:guardedby mu
	chunks  uint64 //cbws:guardedby mu
	events  uint64 //cbws:guardedby mu

	// Latest probe sample, copied out of the simulator's reused Sample.
	sampleCount int             //cbws:guardedby mu
	lastSample  sim.SamplePoint //cbws:guardedby mu

	done chan struct{} // closed when the runner goroutine exits
}

// streamLive is the part of a Stream that only an unfinished stream
// needs. Stream.mu guards all of it.
type streamLive struct {
	cond sync.Cond
	// dec validates and counts the chunks at ingest; sum is the SHA-256
	// of the raw stream bytes, for content addressing.
	dec trace.ChunkDecoder
	sum hash.Hash

	// The byte queue between ingest and simulation: a FIFO of buffers
	// from head to tail holding the accepted chunks' raw CBWT bytes,
	// and the buffers the simulator has handed back, kept on free for
	// reuse. Buffers are allocated as bytes arrive, never up front.
	head, tail, free *byteBuf

	lastRecv time.Time

	// Uncommitted tenant-counter deltas (see counterCommitBytes).
	pendBytes, pendChunks, pendEvents uint64
}

func newStream(id string, spec JobSpec, tenantName string, ten *tenant, bufferEvents int, now time.Time) *Stream {
	live := &streamLive{sum: sha256.New(), lastRecv: now}
	st := &Stream{
		ID:     id,
		Tenant: tenantName,
		Spec:   spec,
		ten:    ten,
		live:   live,
		bound:  bufferEvents,
		state:  StreamOpen,
		done:   make(chan struct{}),
	}
	live.cond.L = &st.mu
	return st
}

// countSink counts the events the ingest decoder finds in a chunk.
// It is only ever invoked from ChunkDecoder.Feed while st.mu is held,
// and ingest has already admitted the events against the bound.
type countSink struct{ st *Stream }

func (cs countSink) ConsumeBatch(batch []trace.Event) bool {
	// ChunkDecoder.Feed only runs from ingest, which already holds
	// st.mu; the analyzer cannot see through the decoder callback.
	//lint:ignore cbws/guardedby ConsumeBatch is only reached from ingest with st.mu held
	cs.st.countLocked(len(batch))
	return true
}

// countLocked adds n events decoded at ingest to the buffered count and
// the traffic counters. Caller holds st.mu.
func (st *Stream) countLocked(n int) {
	st.count += n
	st.events += uint64(n)
	st.live.pendEvents += uint64(n)
}

// enqueueLocked copies chunk into the queue: first into the room left
// in the tail buffer, then into a buffer off the free list, allocating
// one only when the free list is empty. Every buffer but the tail is
// therefore full, so the queue holds at most bytes/bufBytes+1 buffers
// however the tenant sizes its chunks. Caller holds st.mu.
func (st *Stream) enqueueLocked(chunk []byte) {
	l := st.live
	for len(chunk) > 0 {
		b := l.tail
		if b == nil || b.n == bufBytes {
			if b = l.free; b != nil {
				l.free, b.next, b.n = b.next, nil, 0
			} else {
				b = new(byteBuf)
			}
			if l.tail == nil {
				l.head = b
			} else {
				l.tail.next = b
			}
			l.tail = b
		}
		k := copy(b.b[b.n:], chunk)
		b.n += k
		chunk = chunk[k:]
	}
}

// queuedBytesLocked sums the bytes waiting in the queue. Caller holds
// st.mu.
func (st *Stream) queuedBytesLocked() int {
	n := 0
	for b := st.live.head; b != nil; b = b.next {
		n += b.n
	}
	return n
}

// take recycles done, the buffer the previous take returned, onto the
// free list and pops the queue's head buffer for the simulator. It
// returns nil when the queue is empty or the stream is aborted.
func (st *Stream) take(done *byteBuf) *byteBuf {
	st.mu.Lock()
	defer st.mu.Unlock()
	l := st.live
	if done != nil {
		l.free, done.next = done, l.free
	}
	b := l.head
	if st.aborted || b == nil {
		return nil
	}
	l.head, b.next = b.next, nil
	if l.head == nil {
		l.tail = nil
	}
	return b
}

// ingest admits, validates and queues one chunk. It is the streaming
// hot path: in steady state (header parsed, in-quota, space available)
// it performs no allocation — the decoder's fixed buffers, queue
// buffers recycled by the simulator, the running SHA-256, and
// stream-local counter deltas are all in place — which
// TestStreamIngestZeroAlloc pins.
//
// The decoder runs over every chunk, so a malformed one fails the
// stream synchronously, and only counts its events; the simulator
// decodes the queued bytes again as it reads them. A chunk that
// arrives after the trace's terminator decodes to nothing and is
// acked without being queued: it would pass admission at zero events,
// so queueing it would let a tenant pin unbounded bytes.
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
	if need > st.bound {
		return ChunkAck{}, &ingestReject{code: 413,
			msg: fmt.Sprintf("chunk of %d bytes can never fit the %d-event stream buffer; send smaller chunks", len(chunk), st.bound)}
	}
	if need > st.bound-st.count {
		return ChunkAck{}, &ingestReject{code: 413, retryAfter: time.Second,
			msg: fmt.Sprintf("stream buffer full (%d/%d events); the simulator is behind, retry shortly", st.count, st.bound)}
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

	st.live.sum.Write(chunk)
	st.bytesIn += uint64(len(chunk))
	st.chunks++
	st.live.pendBytes += uint64(len(chunk))
	st.live.pendChunks++
	st.live.lastRecv = now
	terminated := st.live.dec.Terminated()
	if err := st.live.dec.Feed(chunk, countSink{st}); err != nil {
		st.failLocked(fmt.Sprintf("malformed trace chunk: %v", err))
		return ChunkAck{}, &ingestReject{code: 400, msg: st.errMsg}
	}
	if !terminated {
		st.enqueueLocked(chunk)
	}
	if st.live.pendBytes >= counterCommitBytes || st.live.pendChunks >= counterCommitChunks {
		st.commitPendingLocked()
	}
	st.live.cond.Broadcast()
	return st.ackLocked(), nil
}

// commitPendingLocked flushes the stream-local counter deltas to the
// tenant's shared atomics. Caller holds st.mu.
func (st *Stream) commitPendingLocked() {
	l := st.live
	if l.pendBytes > 0 {
		st.ten.bytesIn.Add(l.pendBytes)
		l.pendBytes = 0
	}
	if l.pendChunks > 0 {
		st.ten.chunksIn.Add(l.pendChunks)
		l.pendChunks = 0
	}
	if l.pendEvents > 0 {
		st.ten.eventsIn.Add(l.pendEvents)
		l.pendEvents = 0
	}
}

func (st *Stream) ackLocked() ChunkAck {
	return ChunkAck{
		State:          st.state,
		BytesIn:        st.bytesIn,
		BufferedEvents: st.count,
		BufferCap:      st.bound,
	}
}

// failLocked moves an open stream to failed and tells the simulator
// side to discard. Caller holds st.mu.
func (st *Stream) failLocked(msg string) {
	st.state = StreamFailed
	st.errMsg = msg
	st.aborted = true
	st.commitPendingLocked()
	st.live.cond.Broadcast()
}

// closeInput declares end of input: the stream finalizes once the
// queue drains. A stream cut off mid-event is malformed (the byte
// sequence could never have decoded as a whole trace) and fails
// instead.
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
	if !st.live.dec.AtEventBoundary() {
		st.failLocked("stream closed mid-event: truncated trace")
		return StreamView{}, &ingestReject{code: 400, msg: st.errMsg}
	}
	st.inputClosed = true
	st.state = StreamFinalizing
	st.commitPendingLocked()
	st.live.cond.Broadcast()
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
	st.live.cond.Broadcast()
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

// streamGen adapts the stream's byte queue to trace.Generator: the
// generator the long-lived sim.RunContext pulls from, wrapped in the
// scheduler's slotGen like every simulation. It decodes each queued
// buffer with its own ChunkDecoder straight into the simulator's sink.
// While the queue is empty it hands its slot back — an idle stream
// costs nothing.
type streamGen struct {
	st    *Stream
	slots *slotGen
	dec   trace.ChunkDecoder
	sink  trace.BatchSink // the simulator's sink
	held  *byteBuf        // the buffer last fed to dec
	// stopped is set once the sink refuses a batch or the queued bytes
	// fail to decode: generation is over.
	stopped bool
}

// Name returns the declared workload name: the simulation result (and
// therefore the run record) identifies the stream's workload exactly
// like a closed job's would.
func (g *streamGen) Name() string { return g.st.Spec.Workload }

// waitReadable blocks until the queue has bytes or the stream's input
// is over. It reports false when generation should end: aborted, or
// input closed with the queue drained.
func (g *streamGen) waitReadable() bool {
	st := g.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.live.head == nil && !st.inputClosed && !st.aborted {
		st.live.cond.Wait()
	}
	return !st.aborted && st.live.head != nil
}

// next hands the held buffer back to the queue and decodes the queue's
// head buffer into the sink. It reports false when the queue is empty.
func (g *streamGen) next() bool {
	g.held = g.st.take(g.held)
	if g.held == nil {
		return false
	}
	if err := g.dec.Feed(g.held.b[:g.held.n], g); err != nil {
		// Ingest decoded these same bytes without error; a decoder
		// that disagrees with itself fails the stream rather than
		// simulating a different trace.
		g.st.mu.Lock()
		g.st.failLocked(fmt.Sprintf("decoding queued bytes: %v", err))
		g.st.mu.Unlock()
		g.stopped = true
	}
	return true
}

// ConsumeBatch takes one decoded batch off the stream's buffered count
// and hands it to the simulator.
func (g *streamGen) ConsumeBatch(batch []trace.Event) bool {
	st := g.st
	st.mu.Lock()
	st.count -= len(batch)
	st.mu.Unlock()
	if !g.sink.ConsumeBatch(batch) {
		// The simulator's instruction budget is exhausted; whatever
		// else arrives is irrelevant to the result.
		st.mu.Lock()
		st.budgetDone = true
		st.mu.Unlock()
		g.stopped = true
		return false
	}
	return true
}

// GenerateBatches implements trace.Generator.
func (g *streamGen) GenerateBatches(sink trace.BatchSink) {
	g.sink = sink
	for !g.stopped {
		if !g.next() {
			g.slots.release()
			if !g.waitReadable() {
				return
			}
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

// streamGauges sums the stream gauges over non-terminal streams:
// how many are open (streams_open), and the events and wire bytes
// their queues buffer ahead of the simulator.
func (s *Service) streamGauges() (open, events, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.streams {
		st.mu.Lock()
		if !st.state.Terminal() {
			open++
			events += st.count
			bytes += st.queuedBytesLocked()
		}
		st.mu.Unlock()
	}
	return open, events, bytes
}

// runStream owns one stream's simulation end to end: it drives a
// long-lived sim.RunContext from the byte queue, and on a clean end of
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
			return hex.EncodeToString(st.live.sum.Sum(nil))
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
// runner is past its last queue read and its content address, and a
// terminal stream admits no more bytes, so the live state — every
// queue buffer, the ingest decoder and the hash state — is released
// here: the stream stays listed without pinning any of it.
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
	st.live, st.count = nil, 0
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
		expired := st.state == StreamOpen && now.Sub(st.live.lastRecv) > s.cfg.StreamIdleTimeout
		terminated := expired && st.live.dec.Terminated()
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
		terminated := open && st.live.dec.Terminated()
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
