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
type eventQueue struct {
	heap []eventRef
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

func (q *eventQueue) Len() int { return len(q.heap) }

// minTime returns the timestamp of the earliest event. The caller must
// ensure the queue is non-empty.
func (q *eventQueue) minTime() Time { return q.heap[0].at }

func (q *eventQueue) less(i, j int) bool {
	if q.heap[i].at != q.heap[j].at {
		return q.heap[i].at < q.heap[j].at
	}
	return q.heap[i].seq < q.heap[j].seq
}

// push queues an event ordered at (at, seq) and returns its payload slot,
// growing the backing arrays in bulk when full. The slot's pointer fields
// are nil (Step clears what each kind sets), so the caller writes only
// what its kind uses. The pointer is valid until the next push.
func (q *eventQueue) push(at Time, seq uint64) *event {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		if len(q.slab) == cap(q.slab) {
			q.slab = append(make([]event, 0, growCap(cap(q.slab))), q.slab...)
		}
		q.slab = q.slab[:idx+1]
	}
	if len(q.heap) == cap(q.heap) {
		q.heap = append(make([]eventRef, 0, growCap(cap(q.heap))), q.heap...)
	}
	q.heap = append(q.heap, eventRef{at: at, seq: seq, idx: idx})
	q.siftUp(len(q.heap) - 1)
	return &q.slab[idx]
}

func growCap(c int) int {
	if c < minQueueCap/2 {
		return minQueueCap
	}
	return 2 * c
}

// pop removes the minimum event from the heap and returns its timestamp
// and payload slot, which stays reserved until release. The caller must
// ensure the queue is non-empty.
func (q *eventQueue) pop() (Time, int32) {
	ref := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ref.at, ref.idx
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
