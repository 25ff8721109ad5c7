package sim

import "fmt"

// Timer is a cancellable one-shot callback armed with Env.AfterFunc. It is
// the cheap primitive for "charge d of virtual time, then continue": no
// goroutine, no channel handoff, one queue entry.
type Timer struct {
	env   *Env
	when  Time
	state uint8
	fn    func()
}

const (
	timerPending uint8 = iota
	timerFired
	timerStopped
)

// AfterFunc schedules fn to run in scheduler context d from now and
// returns a Timer that can cancel it. fn must not block; it may wake
// processes, fire signals, send to mailboxes, and arm further timers.
func (e *Env) AfterFunc(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative AfterFunc delay %v", d))
	}
	if e.closed {
		panic("sim: AfterFunc on closed Env")
	}
	t := &Timer{env: e, when: e.now + d, fn: fn}
	e.seq++
	ev := e.events.push(t.when, e.seq)
	ev.kind, ev.timer = evTimer, t
	return t
}

// Stop cancels the timer. It reports true when the call prevented the
// callback from running, and false when the timer had already fired or was
// already stopped. Stopping leaves the queue entry in place; the scheduler
// skips it (uncounted) when its timestamp comes up.
func (t *Timer) Stop() bool {
	if t.state != timerPending {
		return false
	}
	t.state = timerStopped
	return true
}

// Active reports whether the timer is still pending (not fired, not
// stopped).
func (t *Timer) Active() bool { return t.state == timerPending }

// When returns the virtual time the timer fires (or would have fired).
func (t *Timer) When() Time { return t.when }
