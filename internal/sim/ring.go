package sim

// Ring is an unbounded FIFO over a power-of-two buffer indexed from head:
// a queue that drains and refills for a whole run reuses one buffer
// instead of reslicing its front away and regrowing. It backs every
// queue of the engine (resource waiters, mailbox messages and receivers)
// and the fabric's in-order transfer queues. The zero value is an empty
// ring; the buffer is allocated on first Push.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued entries.
func (q *Ring[T]) Len() int { return q.n }

// Push appends v at the tail, doubling the buffer when full.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head entry. It zeroes the vacated slot: the
// buffer outlives the entry, and a delivered message or a continuation
// must not stay reachable through it. The ring must be non-empty.
func (q *Ring[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
