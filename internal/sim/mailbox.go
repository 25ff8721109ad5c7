package sim

// Mailbox is an unbounded FIFO message queue. Any simulation code may Send;
// receivers register with RecvFunc and run when a message is available.
// Messages are delivered in send order, and waiting receivers are served
// FIFO.
type Mailbox struct {
	name    string
	q       []interface{}
	waiters []func(v interface{})
	sent    uint64
	// pendingFn holds receivers that have been woken by a Send but whose
	// delivery event has not dispatched yet; deliverFn is the single
	// reusable dispatcher closure, so waking a receiver allocates nothing.
	pendingFn []func(v interface{})
	deliverFn func()
}

// NewMailbox returns an empty mailbox.
func NewMailbox(name string) *Mailbox { return &Mailbox{name: name} }

// Name returns the mailbox name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued (undelivered) messages.
func (m *Mailbox) Len() int { return len(m.q) }

// Sent returns the total number of messages ever sent.
func (m *Mailbox) Sent() uint64 { return m.sent }

// pop removes and returns the head of a FIFO slice. It clears the vacated
// slot: the backing array outlives the reslice, and a delivered message (an
// item's data) or a receiver closure must not stay reachable through it.
func pop[T any](q *[]T) T {
	var zero T
	v := (*q)[0]
	(*q)[0] = zero
	*q = (*q)[1:]
	return v
}

// Send enqueues v and wakes the longest-waiting receiver, if any.
func (m *Mailbox) Send(e *Env, v interface{}) {
	m.sent++
	m.q = append(m.q, v)
	if len(m.waiters) > 0 {
		m.pendingFn = append(m.pendingFn, pop(&m.waiters))
		if m.deliverFn == nil {
			m.deliverFn = m.deliverNext
		}
		e.Defer(m.deliverFn)
	}
}

// deliverNext runs the longest-woken receiver: it takes the head message
// at dispatch time, and re-queues the receiver if the message was snatched
// (by an inline RecvFunc) between wake-up and dispatch.
func (m *Mailbox) deliverNext() {
	fn := pop(&m.pendingFn)
	if len(m.q) == 0 {
		m.waiters = append(m.waiters, fn)
		return
	}
	fn(pop(&m.q))
}

// RecvFunc delivers the next message to fn. When a message is already
// queued, fn runs inline before RecvFunc returns. Otherwise fn joins the
// FIFO receiver queue and runs in scheduler context when a message
// arrives. fn must not block.
func (m *Mailbox) RecvFunc(e *Env, fn func(v interface{})) {
	if len(m.q) > 0 {
		fn(pop(&m.q))
		return
	}
	m.waiters = append(m.waiters, fn)
}
