package sim

import (
	"fmt"
	"sync/atomic"
)

// Env is a discrete-event simulation environment. All processes, resources,
// and mailboxes belong to exactly one Env, and an Env must only be driven
// from a single OS goroutine (the one that calls Run or Step).
type Env struct {
	now     Time
	events  eventQueue
	seq     uint64
	live    map[*Proc]struct{}
	yield   chan yieldKind
	running bool
	closed  bool
	// A non-killed panic inside a process is captured here and re-raised on
	// the goroutine driving the scheduler, so user panics surface normally.
	panicked bool
	panicVal interface{}
	// eventsProcessed counts scheduler dispatches: process resumes, timer
	// firings, and inline callbacks. Stale wake-ups for finished processes
	// and stopped timers are skipped without being counted, so the metric
	// reflects useful dispatch work only.
	eventsProcessed uint64
	// flushed tracks how much of eventsProcessed has been added to the
	// process-wide counter (see GlobalEvents).
	flushed uint64
	// seed is the value recorded by WithSeed (see Seed).
	seed uint64
	// shard is non-nil when this Env is a member of a ShardSet; the root
	// Env (shard 0) additionally carries the set and forwards Run, RunUntil
	// and Close to it.
	shard *Shard
}

// globalEvents accumulates dispatches over all Envs in the process,
// including the per-job inner simulations the scheduler runs on separate
// goroutines. Envs add their counts in bulk when Run/RunUntil/Close
// return, so the hot dispatch loop never touches the atomic.
var globalEvents atomic.Uint64

// GlobalEvents returns the total number of events dispatched by all
// environments in this process so far. Benchmark harnesses read it before
// and after a run to derive an events/second rate.
func GlobalEvents() uint64 { return globalEvents.Load() }

type yieldKind int

const (
	yieldBlocked yieldKind = iota // process blocked; wake-up already arranged
	yieldDone                     // process function returned
)

// eventKind discriminates the queue entry variants.
type eventKind uint8

const (
	evFn       eventKind = iota // run fn inline in scheduler context
	evProc                      // resume proc (skip if finished)
	evTimer                     // fire timer (skip if stopped)
	evUseGrant                  // unit of res granted: begin the timed hold
	evUseEnd                    // timed hold over: release res, call useFn(useStart)
)

// event is the payload of one queue entry; its ordering key (at, seq)
// lives in the heap's eventRef. The use variants exist so the hot
// "occupy a resource for d, then continue" pattern costs zero closure
// allocations: the resource, continuation, and grant time ride inline in
// the event (see Resource.UseFunc). Each kind sets only its own fields on
// push and Step clears only those on pop, so queueing never copies or
// zeroes a whole event.
type event struct {
	kind  eventKind
	proc  *Proc
	fn    func()
	timer *Timer
	res   *Resource
	useFn func(start Time)
	// useStart is the grant time for evUseEnd; useDur the hold duration
	// for evUseGrant.
	useStart Time
	useDur   Time
}

// NewEnv returns an empty environment at virtual time zero. Without
// options it is the classic single-loop engine; with WithShards(n) the
// returned Env is the root of an n-way ShardSet (see Sharded) whose Run,
// RunUntil, and Close drive all shards with deterministic cross-shard
// message merging.
func NewEnv(opts ...EnvOption) *Env {
	var cfg envConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 0 {
		panic(fmt.Sprintf("sim: WithShards(%d): shard count must be >= 1", cfg.shards))
	}
	if cfg.shards >= 1 {
		// WithShards(1) deliberately still builds a (degenerate) set: a
		// workload written against the sharded API then takes the exact
		// same merge-discipline code path at every width, which is what
		// makes width-1 runs the determinism baseline for width-N.
		return newShardSet(cfg).root
	}
	return &Env{
		live:  make(map[*Proc]struct{}),
		yield: make(chan yieldKind),
		seed:  cfg.seed,
	}
}

// newMemberEnv returns a bare environment for one shard of a set.
func newMemberEnv(seed uint64) *Env {
	return &Env{
		live:  make(map[*Proc]struct{}),
		yield: make(chan yieldKind),
		seed:  seed,
	}
}

// Sharded returns the ShardSet this Env belongs to, or nil for a classic
// single-loop environment.
func (e *Env) Sharded() *ShardSet {
	if e.shard == nil {
		return nil
	}
	return e.shard.set
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// EventsProcessed returns the number of scheduler dispatches so far. Stale
// wake-ups (events for processes that already finished) and stopped timers
// are not counted.
func (e *Env) EventsProcessed() uint64 { return e.eventsProcessed }

// PendingEvents returns the number of queued events, including not yet
// skipped stale wake-ups and stopped timers.
func (e *Env) PendingEvents() int { return e.events.Len() }

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished.
func (e *Env) LiveProcs() int { return len(e.live) }

func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", at, e.now))
	}
	e.seq++
	ev := e.events.push(at, e.seq)
	if p != nil {
		ev.kind, ev.proc = evProc, p
	} else {
		ev.kind, ev.fn = evFn, fn
	}
}

// scheduleUseGrant enqueues the hand-off of a resource unit to a queued
// UseFunc continuation, at the slot where a process wake-up would go.
func (e *Env) scheduleUseGrant(r *Resource, d Time, fn func(start Time)) {
	e.seq++
	ev := e.events.push(e.now, e.seq)
	ev.kind, ev.res, ev.useFn, ev.useDur = evUseGrant, r, fn, d
}

// scheduleUseEnd enqueues the completion of a timed resource hold that
// was granted at start.
func (e *Env) scheduleUseEnd(r *Resource, d Time, fn func(start Time), start Time) {
	e.seq++
	ev := e.events.push(e.now+d, e.seq)
	ev.kind, ev.res, ev.useFn, ev.useStart = evUseEnd, r, fn, start
}

// At schedules fn to run in scheduler context at virtual time t (>= now).
// fn must not block; it may wake processes, fire signals, send to
// mailboxes, and schedule further callbacks.
func (e *Env) At(t Time, fn func()) {
	e.schedule(t, nil, fn)
}

// After schedules fn to run d from now. See At.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Defer schedules fn at the current virtual time, after the events already
// queued at this instant. It is the callback analogue of waking a process
// "now": completion callbacks granted by resources, signals, and mailboxes
// run through Defer-like events so that callback and process waiters
// interleave in the same FIFO order.
func (e *Env) Defer(fn func()) { e.schedule(e.now, nil, fn) }

// wake arranges for p to resume at the current virtual time. It must be
// called at most once per blocked period of p; Signal, Resource, and
// Mailbox enforce this by removing waiters from their lists when waking.
func (e *Env) wake(p *Proc) {
	e.schedule(e.now, p, nil)
}

// Unpark wakes a process blocked in Park at the current virtual time. It
// must be called exactly once per Park, by the party that holds the parked
// process (e.g. a wait list).
func (e *Env) Unpark(p *Proc) {
	e.wake(p)
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a running
// process.
//
// A process costs a goroutine plus two channel handoffs per resume. Work
// that only sleeps and continues — a transfer, a cache fill, a timer chain
// — is much cheaper as a callback chain via AfterFunc, Resource.UseFunc,
// Signal.OnFire, and Mailbox.RecvFunc; reserve Spawn for control loops
// that genuinely block mid-stack.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{name: name, env: e, resume: make(chan resumeMsg)}
	e.live[p] = struct{}{}
	go p.run(fn)
	e.schedule(e.now, p, nil)
	return p
}

// resumeProc hands control to p and waits for it to block or finish.
func (e *Env) resumeProc(p *Proc, kill bool) {
	p.resume <- resumeMsg{kill: kill}
	kind := <-e.yield
	if kind == yieldDone {
		p.done = true
		delete(e.live, p)
	}
	if e.panicked {
		e.panicked = false
		panic(e.panicVal)
	}
}

// Step executes the next pending event, advancing virtual time. It returns
// false if the event queue is empty. A stale wake-up (the process already
// finished) or a stopped timer consumes the queue entry and advances the
// clock to its timestamp, but does not count as a dispatch.
func (e *Env) Step() bool {
	if e.closed {
		return false
	}
	if e.events.Len() == 0 {
		return false
	}
	at, idx := e.events.pop()
	e.now = at
	// Copy out what the kind needs, clear its pointers so the slot is
	// zero for its next user (and holds nothing live for the GC), and
	// release it before calling out: a continuation may push, and a push
	// may reuse the slot or move the slab.
	ev := &e.events.slab[idx]
	switch ev.kind {
	case evProc:
		p := ev.proc
		ev.proc = nil
		e.events.release(idx)
		if p.done {
			return true // stale wake-up for a finished process: skip, uncounted
		}
		e.eventsProcessed++
		e.resumeProc(p, false)
	case evTimer:
		t := ev.timer
		ev.timer = nil
		e.events.release(idx)
		if t.state != timerPending {
			return true // stopped timer: skip, uncounted
		}
		t.state = timerFired
		e.eventsProcessed++
		t.fn()
	case evUseGrant:
		r, fn, d := ev.res, ev.useFn, ev.useDur
		ev.res, ev.useFn = nil, nil
		e.events.release(idx)
		e.eventsProcessed++
		e.scheduleUseEnd(r, d, fn, e.now)
	case evUseEnd:
		r, fn, start := ev.res, ev.useFn, ev.useStart
		ev.res, ev.useFn = nil, nil
		e.events.release(idx)
		e.eventsProcessed++
		r.Release(e)
		fn(start)
	default:
		fn := ev.fn
		ev.fn = nil
		e.events.release(idx)
		e.eventsProcessed++
		fn()
	}
	return true
}

// Run executes events until the queue is empty. Processes still blocked on
// conditions (for example server loops waiting on a Mailbox) remain alive;
// call Close to terminate them. On the root Env of a ShardSet, Run drives
// all shards in parallel conservative windows until every shard is idle.
func (e *Env) Run() {
	if e.shard != nil {
		e.shard.set.runRoot(e, 0, false)
		return
	}
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

// nextTime returns the timestamp of the earliest pending event, or ok ==
// false when the queue is empty.
func (e *Env) nextTime() (Time, bool) {
	if e.events.Len() == 0 {
		return 0, false
	}
	return e.events.minTime(), true
}

// RunUntil executes events with timestamps <= t and then sets the clock to
// t. It returns the number of events dispatched (stale wake-ups and
// stopped timers excluded). Events scheduled exactly at t are executed. On
// the root Env of a ShardSet, every shard advances to t and the returned
// count sums all shards' dispatches.
func (e *Env) RunUntil(t Time) uint64 {
	if e.shard != nil {
		return e.shard.set.runRoot(e, t, true)
	}
	if e.running {
		panic("sim: RunUntil is not reentrant")
	}
	e.running = true
	start := e.eventsProcessed
	defer func() {
		e.running = false
		e.flushGlobalEvents()
	}()
	for e.events.Len() > 0 && e.events.minTime() <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	return e.eventsProcessed - start
}

// Close terminates all still-live processes by unwinding them with a
// sentinel panic at their next blocking point, then marks the Env unusable.
// All pending events are dropped: callbacks scheduled with At/After/Defer
// and timers armed with AfterFunc never run. It is safe to call Close
// multiple times. Close must not be called from inside a process or while
// Run or RunUntil is executing.
//
// On the root Env of a ShardSet, Close first drains the couplers — every
// cross-shard batch still in flight is merged into its destination shard's
// queue — and then drops all pending work on every shard, local events and
// undelivered cross-shard messages alike, before unwinding processes. The
// drain step means drop semantics are well-defined: a message either ran
// before Close or is accounted as dropped on its destination shard
// (ShardSet.DroppedDeliveries); it is never lost in an intermediate buffer.
func (e *Env) Close() {
	if e.shard != nil {
		e.shard.set.closeRoot(e)
		return
	}
	e.closeLocal()
}

// closeLocal is Close without shard delegation; the ShardSet teardown
// calls it on each member env after draining the couplers.
func (e *Env) closeLocal() {
	if e.running {
		panic("sim: Close is not reentrant with Run or RunUntil")
	}
	if e.closed {
		return
	}
	// Drop pending wake-ups, callbacks, and timers so no process is resumed
	// twice and no fn runs after shutdown.
	e.events = eventQueue{}
	for p := range e.live {
		e.resumeProc(p, true)
	}
	if len(e.live) != 0 {
		panic(fmt.Sprintf("sim: %d processes survived Close", len(e.live)))
	}
	e.closed = true
	e.flushGlobalEvents()
}

// flushGlobalEvents publishes this Env's dispatch count increments to the
// process-wide counter.
func (e *Env) flushGlobalEvents() {
	if d := e.eventsProcessed - e.flushed; d > 0 {
		globalEvents.Add(d)
		e.flushed = e.eventsProcessed
	}
}
