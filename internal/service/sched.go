package service

import (
	"sync"

	"cbws/internal/trace"
)

// quantum is how many event batches a run simulates before it offers
// its slot to the next started run waiting for one.
const quantum = 64

// ticketSched is the daemon's one simulation scheduler: Workers run
// slots shared by closed jobs and streams, handed out in strict FIFO
// order. One rule sits on top of FIFO: a run that has already started
// (every stream, and a closed job after its first grant) queues ahead
// of the closed jobs still waiting for their first slot. A closed job
// therefore stays queued — counted against QueueDepth and canceled by
// drain — until it is granted, and at most Workers closed jobs are ever
// started at once instead of round-robin admitting every queued job.
// (Plain channel semaphores or sync.Cond make no wakeup-order promise;
// the explicit waiter queues do.)
type ticketSched struct {
	mu      sync.Mutex
	free    int         //cbws:guardedby mu
	started []chan bool //cbws:guardedby mu — FIFO of waiting runs that already held a slot
	fresh   []chan bool //cbws:guardedby mu — FIFO of closed jobs waiting for their first slot
	drained bool        //cbws:guardedby mu — first acquires are refused
}

func newTicketSched(slots int) *ticketSched {
	return &ticketSched{free: slots}
}

// acquire blocks until the caller is granted a slot (true) or refused
// (false): a first acquire (started false) is refused once drain has
// begun; a started run is always granted in turn.
func (ts *ticketSched) acquire(started bool) bool {
	ts.mu.Lock()
	if !started && ts.drained {
		ts.mu.Unlock()
		return false
	}
	if ts.free > 0 {
		ts.free--
		ts.mu.Unlock()
		return true
	}
	w := make(chan bool, 1)
	if started {
		ts.started = append(ts.started, w)
	} else {
		ts.fresh = append(ts.fresh, w)
	}
	ts.mu.Unlock()
	return <-w
}

// release returns a slot, handing it directly to the longest-waiting
// started run, else to the longest-waiting first acquire.
func (ts *ticketSched) release() {
	ts.mu.Lock()
	var w chan bool
	switch {
	case len(ts.started) > 0:
		w, ts.started = ts.started[0], ts.started[1:]
	case len(ts.fresh) > 0:
		w, ts.fresh = ts.fresh[0], ts.fresh[1:]
	default:
		ts.free++
	}
	ts.mu.Unlock()
	if w != nil {
		w <- true
	}
}

// yield ends the holder's quantum. With another started run waiting,
// the slot passes to it and the caller queues behind every started run;
// otherwise the caller keeps the slot — a closed job waiting for its
// first slot never overtakes a run that has started.
func (ts *ticketSched) yield() {
	ts.mu.Lock()
	if len(ts.started) == 0 {
		ts.mu.Unlock()
		return
	}
	next := ts.started[0]
	w := make(chan bool, 1)
	ts.started = append(ts.started[1:], w)
	ts.mu.Unlock()
	next <- true
	<-w
}

// drain refuses every closed job still waiting for its first slot, and
// all later first acquires. Started runs keep their slots and turns.
func (ts *ticketSched) drain() {
	ts.mu.Lock()
	ts.drained = true
	fresh := ts.fresh
	ts.fresh = nil
	ts.mu.Unlock()
	for _, w := range fresh {
		w <- false
	}
}

// waiting reports the number of blocked acquirers (tests).
func (ts *ticketSched) waiting() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.started) + len(ts.fresh)
}

// slotGen runs a generator's batches under the scheduler: the run holds
// a slot while it simulates and yields it every quantum batches. A
// closed job enters holding the slot of its first grant; a stream
// acquires on its first batch and releases whenever its ring runs dry.
type slotGen struct {
	gen     trace.Generator
	sched   *ticketSched
	down    trace.BatchSink
	held    bool // the run holds a slot
	batches int  // batches simulated since the slot was last granted or kept
}

// Name returns the wrapped generator's workload name.
func (g *slotGen) Name() string { return g.gen.Name() }

// GenerateBatches implements trace.Generator.
func (g *slotGen) GenerateBatches(sink trace.BatchSink) {
	g.down = sink
	g.gen.GenerateBatches(g)
}

// ConsumeBatch forwards one batch to the simulator, first taking or
// keeping a slot for it.
func (g *slotGen) ConsumeBatch(batch []trace.Event) bool {
	switch {
	case !g.held:
		g.sched.acquire(true) // a started run is never refused
		g.held, g.batches = true, 0
	case g.batches == quantum:
		g.sched.yield()
		g.batches = 0
	}
	g.batches++
	return g.down.ConsumeBatch(batch)
}

// release hands a held slot back.
func (g *slotGen) release() {
	if g.held {
		g.held = false
		g.sched.release()
	}
}
