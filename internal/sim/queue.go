package sim

// eventQueue is an inline 4-ary min-heap ordered by (at, seq). It replaces
// container/heap, which costs an interface{} boxing allocation on every
// Push and Pop; here steady-state push/pop performs zero allocations.
//
// The heap itself holds only 24-byte pointer-free eventRef keys; the event
// payloads live in a slab indexed by the refs and never move. Sifting
// therefore copies three words per level — no duffcopy of the full event,
// and crucially no GC write barriers, which dominated the dispatch cost
// when pointer-bearing events were swapped directly.
//
// A 4-ary layout halves the tree depth of a binary heap: pops do slightly
// more comparisons per level but far fewer cache-missing level hops, which
// is the dominant cost once the queue holds thousands of events. Because
// every event carries a unique seq, the (at, seq) order is total, so any
// heap arity pops the exact same sequence — determinism does not depend on
// the layout.
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
	heap []eventRef
	lane Ring[int32] // slab indices of the events pushed at the current instant
	slab []event
	free []int32 // stack of reusable slab indices
}

// eventRef is the sift-able key of one queued event: its ordering fields
// plus the slab index of the payload. Pointer-free by design.
type eventRef struct {
	at  Time
	seq uint64
	idx int32
}

// queueArity is the heap fan-out. Benchmarked against 2 and 8 on the event
// dispatch microbenchmark; 4 is the sweet spot for the 24-byte ref.
const queueArity = 4

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

func (q *eventQueue) less(i, j int) bool {
	if q.heap[i].at != q.heap[j].at {
		return q.heap[i].at < q.heap[j].at
	}
	return q.heap[i].seq < q.heap[j].seq
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
		q.slab = append(make([]event, 0, growCap(cap(q.slab))), q.slab...)
	}
	q.slab = q.slab[:idx+1]
	return idx
}

// push queues an event ordered at (at, seq), at after the current instant,
// and returns its payload slot. The pointer is valid until the next push.
func (q *eventQueue) push(at Time, seq uint64) *event {
	idx := q.alloc()
	if len(q.heap) == cap(q.heap) {
		q.heap = append(make([]eventRef, 0, growCap(cap(q.heap))), q.heap...)
	}
	q.heap = append(q.heap, eventRef{at: at, seq: seq, idx: idx})
	q.siftUp(len(q.heap) - 1)
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
	n := len(q.heap) - 1
	if q.lane.Len() > 0 && (n < 0 || q.heap[0].at != now) {
		return now, q.lane.Pop(), true
	}
	if n < 0 {
		return 0, 0, false
	}
	ref := q.heap[0]
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ref.at, ref.idx, true
}

// release returns a popped slot, its pointer fields cleared by the
// caller, to the free stack.
func (q *eventQueue) release(idx int32) {
	q.free = append(q.free, idx)
}

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / queueArity
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.heap)
	for {
		first := queueArity*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + queueArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
