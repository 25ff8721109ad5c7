package sim

import "fmt"

// rwaiter is one entry of a resource's FIFO wait queue: a completion
// callback (fn, from AcquireFunc) or a queued timed hold (useFn + useDur,
// from UseFunc). Exactly one of fn and useFn is set.
type rwaiter struct {
	fn     func()
	useFn  func(start Time)
	useDur Time
	start  Time // enqueue time, for queued-time accounting
}

// Resource is a counting semaphore with a FIFO wait queue, used to model
// exclusive or capacity-limited hardware: a GPU compute queue (capacity 1),
// a CPU thread pool (capacity = cores), a NIC or PCIe copy engine, or the
// shared bandwidth of a storage server. Plain acquisitions (AcquireFunc)
// and timed holds (UseFunc) share one queue and are granted units in strict
// arrival order.
type Resource struct {
	name    string
	cap     int
	inUse   int
	waiters Ring[rwaiter]

	// Accounting.
	busy      Time // total (units x time) the resource spent occupied
	lastStamp Time
	acquires  uint64
	waited    Time // total time waiters spent queued
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Cap returns the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters queued to acquire.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Acquires returns the total number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// BusyTime returns the integral of units-in-use over time, i.e. the total
// occupied time summed over units. Divide by capacity and elapsed time for
// utilization.
func (r *Resource) BusyTime(now Time) Time {
	r.account(now)
	return r.busy
}

// WaitedTime returns the cumulative time waiters spent queued on r.
func (r *Resource) WaitedTime() Time { return r.waited }

func (r *Resource) account(now Time) {
	r.busy += Time(int64(r.inUse) * int64(now-r.lastStamp))
	r.lastStamp = now
}

// TryAcquire takes a unit of r if one is free and nobody is queued ahead,
// reporting whether it succeeded. It never queues.
func (r *Resource) TryAcquire(e *Env) bool {
	if r.inUse < r.cap && r.waiters.Len() == 0 {
		r.account(e.now)
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// AcquireFunc obtains a unit of r and then calls fn. When a unit is free
// and nobody is queued, fn runs inline before AcquireFunc returns.
// Otherwise fn is queued FIFO and runs in scheduler context when a unit is
// granted. fn must not block; it must eventually lead to a Release.
func (r *Resource) AcquireFunc(e *Env, fn func()) {
	if r.inUse < r.cap && r.waiters.Len() == 0 {
		r.account(e.now)
		r.inUse++
		r.acquires++
		fn()
		return
	}
	r.waiters.Push(rwaiter{fn: fn, start: e.now})
}

// Release returns one unit of r, scheduling the longest-waiting waiter, if
// any. The unit is transferred directly to that waiter, preserving FIFO
// fairness.
func (r *Resource) Release(e *Env) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.account(e.now)
	if r.waiters.Len() > 0 {
		// Hand the unit to the next waiter without dropping inUse.
		next := r.waiters.Pop()
		r.acquires++
		r.waited += e.now - next.start
		if next.useFn != nil {
			e.scheduleUseGrant(r, next.useDur, next.useFn)
		} else {
			e.Defer(next.fn)
		}
		return
	}
	r.inUse--
}

// UseFunc is the common pattern for "run this task on that device": it
// acquires r, holds it for d of virtual time, releases it, and then calls
// fn with the time the unit was granted (occupancy ran [start, start+d]).
// No closure is involved: the grant, hold, and completion ride inline in
// one or two queue entries (zero allocations — the engine's hottest
// pattern).
func (r *Resource) UseFunc(e *Env, d Time, fn func(start Time)) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative UseFunc duration %v", d))
	}
	if r.inUse < r.cap && r.waiters.Len() == 0 {
		r.account(e.now)
		r.inUse++
		r.acquires++
		e.scheduleUseEnd(r, d, fn, e.now)
		return
	}
	r.waiters.Push(rwaiter{useFn: fn, useDur: d, start: e.now})
}
