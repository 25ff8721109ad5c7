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
//
// The records sit in a slab and the heap sifts only their keys, as the
// Env's eventQueue does. The free slab slots are the indices in the
// heap's spare tail, keys[len(keys):len(slab)], so the keys and the slab
// always grow together, in one step, and nothing else is allocated.
type Arrivals[T any] struct {
	env     *Env
	deliver func(T)
	keys    keyHeap
	slab    []T
	seq     uint64
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
	n := len(q.keys)
	idx := int32(n)
	if n < len(q.slab) {
		idx = q.keys[:n+1][n].idx // the first free slot of the spare tail
	} else {
		// No free slot. The keys are as full as the slab, and keyHeap.push
		// grows them to the same capacity.
		if n == cap(q.slab) {
			q.slab = append(make([]T, 0, growCap(n)), q.slab...)
		}
		q.slab = q.slab[:n+1]
	}
	q.slab[idx] = msg
	q.keys.push(key{at: at, seq: q.seq, src: src, idx: idx})
}

// pop removes the earliest record and returns its arrival time and
// message, and frees its slot.
func (q *Arrivals[T]) pop() (Time, T) {
	k := q.keys.pop()
	n := len(q.keys)
	q.keys[:n+1][n].idx = k.idx // the slot joins the spare tail
	msg := q.slab[k.idx]
	var zero T
	q.slab[k.idx] = zero // the record may hold pointers
	return k.at, msg
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
		if len(q.keys) > 0 && q.keys[0].at <= t && (!local || q.keys[0].at <= lt) {
			// The clock moves only when nothing local is queued at the
			// current instant: with the now-lane non-empty lt is now, so
			// the arrival is at now too.
			at, msg := q.pop()
			e.now = at
			e.eventsProcessed++
			q.deliver(msg)
			continue
		}
		if !local || lt > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.setNow(t)
	}
	return e.eventsProcessed - start
}
