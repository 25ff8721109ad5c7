package sim

// Mailbox is an unbounded FIFO queue of messages of one type. Any
// simulation code may Send; receivers register with RecvFunc and run when
// a message is available. Messages are delivered in send order, and
// waiting receivers are served FIFO. Messages, receivers and woken
// receivers each sit in a Ring, and the dispatcher is one method value
// bound on first use, so a receiver that re-registers the same func value
// (a server loop) makes send → wake → deliver allocation-free.
type Mailbox[T any] struct {
	name    string
	q       Ring[T]
	waiters Ring[func(v T)]
	// woken holds receivers that a Send has woken but whose delivery
	// event has not dispatched yet.
	woken     Ring[func(v T)]
	deliverFn func()
	sent      uint64
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](name string) *Mailbox[T] { return &Mailbox[T]{name: name} }

// Name returns the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name }

// Len returns the number of queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return m.q.Len() }

// Sent returns the total number of messages ever sent.
func (m *Mailbox[T]) Sent() uint64 { return m.sent }

// Send enqueues v and wakes the longest-waiting receiver, if any.
func (m *Mailbox[T]) Send(e *Env, v T) {
	m.sent++
	m.q.Push(v)
	if m.waiters.Len() > 0 {
		m.woken.Push(m.waiters.Pop())
		if m.deliverFn == nil {
			m.deliverFn = m.deliverNext
		}
		e.Defer(m.deliverFn)
	}
}

// deliverNext runs the longest-woken receiver: it takes the head message
// at dispatch time, and re-queues the receiver if the message was snatched
// (by an inline RecvFunc) between wake-up and dispatch.
func (m *Mailbox[T]) deliverNext() {
	fn := m.woken.Pop()
	if m.q.Len() == 0 {
		m.waiters.Push(fn)
		return
	}
	fn(m.q.Pop())
}

// RecvFunc delivers the next message to fn. When a message is already
// queued, fn runs inline before RecvFunc returns. Otherwise fn joins the
// FIFO receiver queue and runs in scheduler context when a message
// arrives. fn must not block.
func (m *Mailbox[T]) RecvFunc(e *Env, fn func(v T)) {
	if m.q.Len() > 0 {
		fn(m.q.Pop())
		return
	}
	m.waiters.Push(fn)
}
