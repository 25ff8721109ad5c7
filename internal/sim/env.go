package sim

import (
	"fmt"
	"sync/atomic"
)

// Env is a discrete-event simulation environment. All callbacks, resources,
// and mailboxes belong to exactly one Env, and an Env must only be driven
// from a single OS goroutine (the one that calls Run or Step).
type Env struct {
	now    Time
	events eventQueue
	// seq numbers every push; heapPushes counts the ones that entered
	// the heap, the rest went to the now-lane (see eventQueue).
	seq        uint64
	heapPushes uint64
	running    bool
	closed     bool
	// eventsProcessed counts scheduler dispatches; every event popped from
	// the queue is one.
	eventsProcessed uint64
	// flushed and flushedHeap track how much of eventsProcessed and
	// heapPushes has been added to the process-wide counters (see
	// GlobalEvents).
	flushed     uint64
	flushedHeap uint64
	// seed is the value recorded by WithSeed (see Seed).
	seed uint64
}

// globalEvents accumulates dispatches over all Envs in the process,
// including the per-job inner simulations the scheduler runs on separate
// goroutines. Envs add their counts in bulk when Run/RunUntil/Close
// return, so the hot dispatch loop never touches the atomic.
var globalEvents atomic.Uint64

// GlobalEvents returns the total number of events dispatched by all
// environments in this process so far. The experiments golden test reads
// it before and after each experiment to pin the experiment's event count.
func GlobalEvents() uint64 { return globalEvents.Load() }

// globalHeapPushes accumulates HeapPushes over all Envs in the process,
// published together with globalEvents.
var globalHeapPushes atomic.Uint64

// GlobalHeapPushes returns the total number of events all environments in
// this process have ordered through their heaps so far: GlobalEvents'
// companion, the part of the dispatch count that paid for a comparison.
func GlobalHeapPushes() uint64 { return globalHeapPushes.Load() }

// eventKind discriminates the queue entry variants.
type eventKind uint8

const (
	evFn       eventKind = iota // run fn in scheduler context
	evArg                       // run argFn(word) in scheduler context
	evUseGrant                  // unit of res granted: begin the timed hold
	evUseEnd                    // timed hold over: release res, call useFn(word)
)

// event is the payload of one queue entry; its ordering key (at, seq)
// lives in the heap's key. The arg and use variants exist so the hot
// patterns cost zero closure allocations: "continue this record" carries
// a handle beside a continuation bound once (AtArg), and "occupy a
// resource for d, then continue" carries the resource, continuation and
// grant time inline (Resource.UseFunc). Each kind sets only its own
// fields on push and Step clears only those on pop, so queueing never
// copies or zeroes a whole event.
type event struct {
	kind  eventKind
	fn    func()
	argFn func(arg uint64)
	res   *Resource
	useFn func(start Time)
	// word is the one scalar a kind carries: the argument for evArg, the
	// hold duration for evUseGrant, the grant time for evUseEnd.
	word uint64
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv(opts ...EnvOption) *Env {
	var cfg envConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Env{seed: cfg.seed}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// EventsProcessed returns the number of scheduler dispatches so far: one
// per event popped from the queue.
func (e *Env) EventsProcessed() uint64 { return e.eventsProcessed }

// PendingEvents returns the number of queued events.
func (e *Env) PendingEvents() int { return e.events.Len() }

// HeapPushes returns how many events were scheduled after the instant
// they were pushed at, and so were ordered by the heap.
func (e *Env) HeapPushes() uint64 { return e.heapPushes }

// LanePushes returns how many events were scheduled at the instant they
// were pushed at, and so queued in the now-lane without a comparison.
func (e *Env) LanePushes() uint64 { return e.seq - e.heapPushes }

// push queues an event at (at, next seq) and returns its payload slot for
// the caller to fill. An event queued on a closed Env could never run, so
// that is a bug in the caller and panics.
func (e *Env) push(at Time) *event {
	if e.closed {
		panic("sim: schedule on closed Env")
	}
	e.seq++
	if at == e.now {
		return e.events.pushNow()
	}
	e.heapPushes++
	return e.events.push(at, e.seq)
}

// setNow moves the clock to t without dispatching an event: RunUntil's
// final step. The now-lane holds events of the instant being left, so it
// has to be empty.
func (e *Env) setNow(t Time) {
	if t != e.now && e.events.lane.Len() > 0 {
		panic(fmt.Sprintf("sim: clock moves %v -> %v with %d events pending at the current instant", e.now, t, e.events.lane.Len()))
	}
	e.now = t
}

// scheduleUseGrant enqueues the hand-off of a resource unit to a queued
// UseFunc continuation.
func (e *Env) scheduleUseGrant(r *Resource, d Time, fn func(start Time)) {
	ev := e.push(e.now)
	ev.kind, ev.res, ev.useFn, ev.word = evUseGrant, r, fn, uint64(d)
}

// scheduleUseEnd enqueues the completion of a timed resource hold that
// was granted at start.
func (e *Env) scheduleUseEnd(r *Resource, d Time, fn func(start Time), start Time) {
	ev := e.push(e.now + d)
	ev.kind, ev.res, ev.useFn, ev.word = evUseEnd, r, fn, uint64(start)
}

// At schedules fn to run in scheduler context at virtual time t (>= now).
// fn must not block; it may fire signals, send to mailboxes, release
// resources, and schedule further callbacks.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", t, e.now))
	}
	ev := e.push(t)
	ev.kind, ev.fn = evFn, fn
}

// After schedules fn to run d from now. See At.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Defer schedules fn at the current virtual time, after the events already
// queued at this instant. Completions granted by resources, signals, and
// mailboxes run through Defer-like events, so waiters are served in the
// order they were woken.
func (e *Env) Defer(fn func()) { e.At(e.now, fn) }

// AtArg is At for a continuation that takes one argument: fn(arg) runs at
// t. The argument rides in the event, so a method value bound once plus a
// handle (a slot index, say) continues any number of records without a
// closure per continuation.
func (e *Env) AtArg(t Time, fn func(arg uint64), arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", t, e.now))
	}
	ev := e.push(t)
	ev.kind, ev.argFn, ev.word = evArg, fn, arg
}

// Step executes the next pending event, advancing virtual time. It returns
// false if the event queue is empty.
func (e *Env) Step() bool {
	if e.closed {
		return false
	}
	at, idx, ok := e.events.pop(e.now)
	if !ok {
		return false
	}
	e.now = at // moves only on a heap pop with the lane empty, see pop
	e.eventsProcessed++
	// Copy out what the kind needs, clear its pointers so the slot is
	// zero for its next user (and holds nothing live for the GC), and
	// release it before calling out: a continuation may push, and a push
	// may reuse the slot or move the slab.
	ev := &e.events.slab[idx]
	switch ev.kind {
	case evArg:
		fn, arg := ev.argFn, ev.word
		ev.argFn = nil
		e.events.release(idx)
		fn(arg)
	case evUseGrant:
		r, fn, d := ev.res, ev.useFn, Time(ev.word)
		ev.res, ev.useFn = nil, nil
		e.events.release(idx)
		e.scheduleUseEnd(r, d, fn, e.now)
	case evUseEnd:
		r, fn, start := ev.res, ev.useFn, Time(ev.word)
		ev.res, ev.useFn = nil, nil
		e.events.release(idx)
		r.Release(e)
		fn(start)
	default:
		fn := ev.fn
		ev.fn = nil
		e.events.release(idx)
		fn()
	}
	return true
}

// Run executes events until the queue is empty. Continuations still
// registered on a Resource, Signal, or Mailbox (for example a server's
// RecvFunc loop) simply never run.
func (e *Env) Run() {
	if e.running {
		panic("sim: Run is not reentrant")
	}
	e.running = true
	defer func() {
		e.running = false
		e.flushGlobalEvents()
	}()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then sets the clock to
// t. It returns the number of events dispatched. Events scheduled exactly
// at t are executed.
func (e *Env) RunUntil(t Time) uint64 {
	if e.running {
		panic("sim: RunUntil is not reentrant")
	}
	e.running = true
	start := e.eventsProcessed
	defer func() {
		e.running = false
		e.flushGlobalEvents()
	}()
	for e.events.Len() > 0 && e.events.minTime(e.now) <= t {
		e.Step()
	}
	if e.now < t {
		e.setNow(t)
	}
	return e.eventsProcessed - start
}

// Close drops all pending events — callbacks scheduled with At/After/Defer
// and queued resource holds never run — and marks the Env unusable:
// scheduling on it afterwards panics. It is safe to call Close multiple
// times. Close must not be called while Run or RunUntil is executing.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close is not reentrant with Run or RunUntil")
	}
	if e.closed {
		return
	}
	e.events = eventQueue{} // no fn runs after shutdown
	e.closed = true
	e.flushGlobalEvents()
}

// flushGlobalEvents publishes this Env's dispatch and heap-push count
// increments to the process-wide counters.
func (e *Env) flushGlobalEvents() {
	if d := e.eventsProcessed - e.flushed; d > 0 {
		globalEvents.Add(d)
		e.flushed = e.eventsProcessed
	}
	if d := e.heapPushes - e.flushedHeap; d > 0 {
		globalHeapPushes.Add(d)
		e.flushedHeap = e.heapPushes
	}
}
