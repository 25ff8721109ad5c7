package sim

// eventQueue is the Env's pending-event queue: a keyHeap of (at, seq)
// keys, every src 0, beside a slab of payloads the keys index. The
// payloads never move, so the heap sifts 24-byte keys instead of events,
// and steady-state push/pop performs zero allocations.
//
// Beside the heap runs the now-lane: an event pushed at the current
// instant takes a slab slot like any other but queues its index in a FIFO
// ring, because its place in the (at, seq) order is known without a
// comparison. Every heap entry is at or after the clock; one that shares
// the clock's instant was pushed before the clock got there, so its seq is
// lower than that of anything pushed since, which is exactly what the
// lane holds. And lane entries carry ascending seqs among themselves.
// Popping heap entries at the current instant, then the lane front, then
// the heap minimum is therefore the (at, seq) order, entry for entry —
// and the lane is empty whenever the clock moves.
type eventQueue struct {
	heap keyHeap
	lane Ring[int32] // slab indices of the events pushed at the current instant
	slab []event
	free []int32 // stack of reusable slab indices
}

// minQueueCap is the initial bulk allocation: growing 1→2→4→… would pay
// several copies during the startup burst every experiment begins with.
const minQueueCap = 64

func (q *eventQueue) Len() int { return len(q.heap) + q.lane.Len() }

// minTime returns the timestamp of the earliest event at clock reading
// now. The caller must ensure the queue is non-empty.
func (q *eventQueue) minTime(now Time) Time {
	if q.lane.Len() > 0 {
		return now
	}
	return q.heap[0].at
}

// alloc reserves a payload slot, growing the slab in bulk when full. The
// slot's pointer fields are nil (Step clears what each kind sets), so the
// caller writes only what its kind uses.
func (q *eventQueue) alloc() int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx
	}
	idx := int32(len(q.slab))
	if len(q.slab) == cap(q.slab) {
		// The free stack is empty here and never holds more than the
		// slab, so it grows with the slab, in one step.
		q.slab = append(make([]event, 0, growCap(cap(q.slab))), q.slab...)
		q.free = make([]int32, 0, cap(q.slab))
	}
	q.slab = q.slab[:idx+1]
	return idx
}

// push queues an event ordered at (at, seq), at after the current instant,
// and returns its payload slot. The pointer is valid until the next push.
func (q *eventQueue) push(at Time, seq uint64) *event {
	idx := q.alloc()
	q.heap.push(key{at: at, seq: seq, idx: idx})
	return &q.slab[idx]
}

// pushNow queues an event at the current instant — behind everything
// already queued there, which is where its seq would sort it — and returns
// its payload slot. The pointer is valid until the next push.
func (q *eventQueue) pushNow() *event {
	idx := q.alloc()
	if q.lane.buf == nil {
		q.lane.buf = make([]int32, minQueueCap) // in bulk, like the heap and the slab
	}
	q.lane.Push(idx)
	return &q.slab[idx]
}

func growCap(c int) int {
	if c < minQueueCap/2 {
		return minQueueCap
	}
	return 2 * c
}

// pop removes the minimum event at clock reading now and returns its
// timestamp and payload slot, which stays reserved until release: the
// lane front, unless a heap entry shares the current instant. A returned
// timestamp other than now comes from the heap with the lane empty. ok is
// false when the queue is empty.
func (q *eventQueue) pop(now Time) (at Time, idx int32, ok bool) {
	if q.lane.Len() > 0 && (len(q.heap) == 0 || q.heap[0].at != now) {
		return now, q.lane.Pop(), true
	}
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	k := q.heap.pop()
	return k.at, k.idx, true
}

// release returns a popped slot, its pointer fields cleared by the
// caller, to the free stack.
func (q *eventQueue) release(idx int32) {
	q.free = append(q.free, idx)
}
