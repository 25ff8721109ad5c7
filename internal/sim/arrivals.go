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
// at, inserting it in order at send time is enough to keep that order: no
// arrival can be queued behind the clock.
//
// The records sit in one Ring kept sorted by (at, src, seq), a total
// order since every seq is unique, so the head is always the next
// arrival. Push appends a record at the tail and moves it toward the head
// past every record it orders before. That costs O(1 + records passed):
// the queue is cheap only while records are pushed nearly in arrival
// order. The fleet's are, because cluster.NICs.Send makes each arrival
// the sender's NIC departure plus NetLatency, so every record in flight
// lies within a few hundred ns of now + NetLatency.
type Arrivals[T any] struct {
	env     *Env
	deliver func(T)
	ring    Ring[arrival[T]]
	seq     uint64
}

// arrival is one queued record with its ordering fields.
type arrival[T any] struct {
	at  Time
	seq uint64
	src uint32
	msg T
}

func (a *arrival[T]) key() key { return key{at: a.at, seq: a.seq, src: a.src} }

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
	r := &q.ring
	r.Push(arrival[T]{at: at, seq: q.seq, src: src, msg: msg})
	k, mask := key{at: at, seq: q.seq, src: src}, len(r.buf)-1
	for i := (r.head + r.n - 1) & mask; i != r.head; {
		p := (i - 1) & mask
		if below(k, r.buf[p].key()) == 0 {
			break
		}
		r.buf[i], r.buf[p] = r.buf[p], r.buf[i]
		i = p
	}
}

// next returns the earliest record, or nil when none is queued.
func (q *Arrivals[T]) next() *arrival[T] {
	if q.ring.n == 0 {
		return nil
	}
	return &q.ring.buf[q.ring.head]
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
		if a := q.next(); a != nil && a.at <= t && (!local || a.at <= lt) {
			// The clock moves only when nothing local is queued at the
			// current instant: with the now-lane non-empty lt is now, so
			// the arrival is at now too.
			e.now = a.at
			msg := q.ring.Pop().msg
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
