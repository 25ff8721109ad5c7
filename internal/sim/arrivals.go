package sim

import "fmt"

// Arrivals is a queue of timed message records that an Env runs
// interleaved with its own events: the network of a message-driven
// workload, where every message is a value of T rather than a closure.
// Push queues a record for a future instant; RunUntil dispatches both
// streams in one order:
//
//  1. Arrivals apply in canonical (at, src, seq) order: time, then the
//     sender identity the workload chose, then push order. The key is a
//     function of what the senders did, never of how their sends
//     interleaved with unrelated events.
//  2. At an equal instant every arrival applies before any local event,
//     including the local events earlier arrivals of that instant queue.
//  3. An arrival counts as one dispatched event (EventsProcessed).
//
// Because a record must arrive strictly after the instant it was pushed
// at, pushing straight into a heap at send time is enough to keep that
// order: no arrival can be queued behind the clock.
type Arrivals[T any] struct {
	env     *Env
	deliver func(T)
	heap    []arrival[T]
	seq     uint64
}

type arrival[T any] struct {
	at  Time
	seq uint64
	src uint32
	msg T
}

func (a *arrival[T]) before(o *arrival[T]) bool {
	if a.at != o.at {
		return a.at < o.at
	}
	if a.src != o.src {
		return a.src < o.src
	}
	return a.seq < o.seq
}

// NewArrivals returns an empty queue on e. deliver runs each record in
// scheduler context with e's clock at the record's arrival time; bind it
// once (a method value), so a message costs no allocation.
func NewArrivals[T any](e *Env, deliver func(T)) *Arrivals[T] {
	return &Arrivals[T]{env: e, deliver: deliver}
}

// Push queues msg from sender src to arrive at at, which must be after
// the current instant.
func (q *Arrivals[T]) Push(at Time, src uint32, msg T) {
	if at <= q.env.now {
		panic(fmt.Sprintf("sim: arrival at %v is not after the send instant %v", at, q.env.now))
	}
	if q.env.closed {
		panic("sim: arrival pushed on closed Env")
	}
	q.seq++
	if len(q.heap) == cap(q.heap) {
		q.heap = append(make([]arrival[T], 0, growCap(cap(q.heap))), q.heap...)
	}
	q.heap = append(q.heap, arrival[T]{at: at, seq: q.seq, src: src, msg: msg})
	for i := len(q.heap) - 1; i > 0; {
		parent := (i - 1) / queueArity
		if !q.heap[i].before(&q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// pop removes and returns the earliest record.
func (q *Arrivals[T]) pop() arrival[T] {
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = arrival[T]{} // the record may hold pointers
	q.heap = q.heap[:n]
	for i := 0; ; {
		first := queueArity*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+queueArity && c < n; c++ {
			if q.heap[c].before(&q.heap[min]) {
				min = c
			}
		}
		if !q.heap[min].before(&q.heap[i]) {
			break
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
	return top
}

// RunUntil is Env.RunUntil over both streams: it dispatches arrivals and
// local events with timestamps <= t in the order of the type comment,
// then sets the clock to t. It returns the number of events dispatched,
// arrivals included. Records still queued stay queued; closing the Env
// does not run them.
func (q *Arrivals[T]) RunUntil(t Time) uint64 {
	e := q.env
	if e.running {
		panic("sim: RunUntil is not reentrant")
	}
	e.running = true
	start := e.eventsProcessed
	defer func() {
		e.running = false
		e.flushGlobalEvents()
	}()
	for !e.closed {
		local := e.events.Len() > 0
		var lt Time
		if local {
			lt = e.events.minTime(e.now)
		}
		if len(q.heap) > 0 && q.heap[0].at <= t && (!local || q.heap[0].at <= lt) {
			// The clock moves only when nothing local is queued at the
			// current instant: with the now-lane non-empty lt is now, so
			// the arrival is at now too.
			a := q.pop()
			e.now = a.at
			e.eventsProcessed++
			q.deliver(a.msg)
			continue
		}
		if !local || lt > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.setNow(t)
	}
	return e.eventsProcessed - start
}
