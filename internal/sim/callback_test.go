package sim

import (
	"reflect"
	"testing"
)

func TestAcquireFuncInlineWhenFree(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	ran := false
	r.AcquireFunc(e, func() { ran = true })
	if !ran {
		t.Fatal("AcquireFunc on a free resource must run fn inline")
	}
	if r.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", r.InUse())
	}
	r.Release(e)
}

func TestTryAcquire(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	if !r.TryAcquire(e) {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire(e) {
		t.Fatal("TryAcquire on exhausted resource succeeded")
	}
	r.Release(e)
	if !r.TryAcquire(e) {
		t.Fatal("TryAcquire after release failed")
	}
	r.Release(e)
}

func TestUseFuncOccupancy(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	var starts, ends []Time
	for i := 0; i < 3; i++ {
		r.UseFunc(e, Millis(10), func(start Time) {
			starts = append(starts, start)
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	wantStarts := []Time{0, Millis(10), Millis(20)}
	wantEnds := []Time{Millis(10), Millis(20), Millis(30)}
	for i := range wantStarts {
		if starts[i] != wantStarts[i] || ends[i] != wantEnds[i] {
			t.Fatalf("occupancy %d = [%v, %v], want [%v, %v]",
				i, starts[i], ends[i], wantStarts[i], wantEnds[i])
		}
	}
	var busy, waited Time
	for i := range starts {
		busy += ends[i] - starts[i]
		waited += starts[i] // all three queued at 0
	}
	if busy != Millis(30) || waited != Millis(30) { // 10 + 20 queued
		t.Fatalf("busy = %v, waited = %v, want 30ms each", busy, waited)
	}
}

func TestRecvFuncInlineAndBlocked(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[int]("m")
	m.Send(e, 1)
	var got []int
	m.RecvFunc(e, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("inline RecvFunc got %v", got)
	}
	m.RecvFunc(e, func(v int) { got = append(got, v) })
	e.At(Millis(2), func() { m.Send(e, 2) })
	e.Run()
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("blocked RecvFunc got %v", got)
	}
}

func TestRecvFuncRequeuesWhenSnatched(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[int]("m")
	var got, snatched []int
	m.RecvFunc(e, func(v int) { got = append(got, v) })
	e.At(Millis(1), func() {
		m.Send(e, 1)
		// Snatch the message before the woken receiver's delivery event
		// dispatches: a RecvFunc that finds a message queued runs inline.
		m.RecvFunc(e, func(v int) { snatched = append(snatched, v) })
	})
	e.At(Millis(2), func() { m.Send(e, 2) })
	e.Run()
	if len(snatched) != 1 || snatched[0] != 1 {
		t.Fatalf("snatched %v, want [1]", snatched)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2] (receiver must re-queue after snatch)", got)
	}
}

func TestCloseDropsPendingCallbacksAndTimers(t *testing.T) {
	e := NewEnv()
	e.After(Millis(1), func() {})
	e.RunUntil(Millis(1))
	ran := false
	e.After(Millis(5), func() { ran = true })
	NewResource("r", 1).UseFunc(e, Millis(5), func(Time) { ran = true })
	e.Defer(func() { ran = true })
	if e.PendingEvents() != 3 {
		t.Fatalf("PendingEvents = %d, want 3", e.PendingEvents())
	}
	e.Close()
	if ran {
		t.Fatal("Close ran a pending callback")
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("PendingEvents after Close = %d", e.PendingEvents())
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	e := NewEnv()
	var fired []Time
	for _, at := range []Time{Millis(1), Millis(2), Millis(2), Millis(3)} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(Millis(2))
	if n != 3 {
		t.Fatalf("RunUntil dispatched %d events, want 3 (events exactly at t run)", n)
	}
	if len(fired) != 3 || fired[2] != Millis(2) {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Millis(2) {
		t.Fatalf("Now = %v, want 2ms", e.Now())
	}
	if rest := e.RunUntil(Millis(10)); rest != 1 {
		t.Fatalf("second RunUntil dispatched %d, want 1", rest)
	}
	if e.Now() != Millis(10) {
		t.Fatalf("Now = %v, want 10ms (clock advances past last event)", e.Now())
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEnv()
	if n := e.RunUntil(Millis(7)); n != 0 {
		t.Fatalf("dispatched %d events on empty queue", n)
	}
	if e.Now() != Millis(7) {
		t.Fatalf("Now = %v, want 7ms", e.Now())
	}
}

// recovered runs fn and returns what it panicked with, nil if it did not.
func recovered(fn func()) (r interface{}) {
	defer func() { r = recover() }()
	fn()
	return nil
}

func TestReentrancyPanics(t *testing.T) {
	check := func(name string, inner func(e *Env)) {
		e := NewEnv()
		e.Defer(func() { inner(e) })
		if recovered(e.Run) == nil {
			t.Errorf("%s from inside a running simulation did not panic", name)
		}
	}
	check("Run", func(e *Env) { e.Run() })
	check("RunUntil", func(e *Env) { e.RunUntil(Millis(1)) })
	check("Close", func(e *Env) { e.Close() })
}

// mixedWorkload queues a little of everything the engine offers: plain
// callbacks with and without an argument, now and later, timed holds and plain
// acquisitions contending for one unit, and a mailbox receiver that re-arms
// itself.
func mixedWorkload(e *Env) {
	r := NewResource("r", 1)
	m := NewMailbox[int]("m")
	var recv func(v int)
	recv = func(int) { m.RecvFunc(e, recv) }
	m.RecvFunc(e, recv)
	send := func(k uint64) { m.Send(e, int(k)) }
	for k := 0; k < 100; k++ {
		d := Time(k%7 + 1)
		e.AtArg(e.Now()+d, send, uint64(k))
		e.Defer(func() {})
		e.AtArg(e.Now(), func(uint64) {}, 0)
		r.UseFunc(e, d, func(Time) {})
		r.AcquireFunc(e, func() { r.Release(e) })
	}
}

// Every event popped from the queue is dispatched and counted: there is no
// kind of entry the loop consumes silently.
func TestEveryPopIsADispatch(t *testing.T) {
	// pops reads how many entries left the queue since (pending, seq).
	pops := func(e *Env, pending int, seq uint64) uint64 {
		return uint64(pending) + (e.seq - seq) - uint64(e.PendingEvents())
	}
	e := NewEnv()
	mixedWorkload(e)
	var steps uint64
	for e.step() {
		steps++
	}
	if steps == 0 || e.EventsProcessed() != steps {
		t.Fatalf("EventsProcessed = %d after %d steps returned true", e.EventsProcessed(), steps)
	}
	if got := pops(e, 0, 0); got != steps {
		t.Fatalf("%d entries left the queue in %d steps", got, steps)
	}
	// Both halves of the queue took part.
	if e.HeapPushes() == 0 || e.LanePushes() == 0 {
		t.Fatalf("%d heap and %d lane pushes", e.HeapPushes(), e.LanePushes())
	}

	e = NewEnv()
	mixedWorkload(e)
	var total uint64
	for _, until := range []Time{2, 3, 50, 1000} {
		pending, seq := e.PendingEvents(), e.seq
		n := e.RunUntil(until)
		if got := pops(e, pending, seq); n != got {
			t.Fatalf("RunUntil(%v) returned %d, popped %d", until, n, got)
		}
		total += n
	}
	if total != steps || e.EventsProcessed() != steps {
		t.Fatalf("RunUntil dispatched %d (EventsProcessed %d), step loop %d", total, e.EventsProcessed(), steps)
	}
}

// push hands out slab slots unzeroed and relies on step having cleared
// the pointer fields of whatever kind last used the slot. Drive every
// event kind through a small slab and require every slot to come back
// pointer-free, so a kind that forgets a field fails here instead of
// leaking a live pointer into the slot's next user. The fields are
// enumerated by reflection: a new one is checked without editing this test.
func TestReleasedEventSlotsHoldNoPointers(t *testing.T) {
	kinds := map[eventKind]bool{}
	fromLane := map[eventKind]bool{}
	e := NewEnv()
	mixedWorkload(e)
	for e.events.Len() > 0 {
		// The slot step is about to pop: the lane front unless a heap
		// entry shares the current instant.
		q := &e.events
		var idx int32
		if q.lane.Len() > 0 && (len(q.heap) == 0 || q.heap[0].at != e.now) {
			idx = q.lane.buf[q.lane.head]
			fromLane[q.slab[idx].kind] = true
		} else {
			idx = q.heap[0].idx
		}
		kinds[q.slab[idx].kind] = true
		e.step()
	}
	if !kinds[evFn] || !kinds[evArg] || !kinds[evUseGrant] || !kinds[evUseEnd] || len(kinds) != 4 {
		t.Fatalf("workload dispatched kinds %v, want all four", kinds)
	}
	// The kinds that can be scheduled for the current instant went
	// through the lane (a timed hold never ends at the instant it began).
	if !fromLane[evFn] || !fromLane[evArg] || !fromLane[evUseGrant] {
		t.Fatalf("kinds dispatched from the lane: %v", fromLane)
	}
	if len(e.events.free) != len(e.events.slab) {
		t.Fatalf("%d of %d slots released", len(e.events.free), len(e.events.slab))
	}
	for i := range e.events.slab {
		ev := reflect.ValueOf(&e.events.slab[i]).Elem()
		for f := 0; f < ev.NumField(); f++ {
			name := ev.Type().Field(f).Name
			switch v := ev.Field(f); v.Kind() {
			case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Slice,
				reflect.Map, reflect.Chan, reflect.UnsafePointer:
				if !v.IsNil() {
					t.Fatalf("released slot %d (kind %d) still holds event.%s", i, ev.Field(0).Uint(), name)
				}
			case reflect.Struct, reflect.Array, reflect.String:
				t.Fatalf("event.%s is a %s: this test cannot tell whether it holds a pointer", name, v.Kind())
			}
		}
	}
}

// An event queued on a closed Env could never run, so every entry point
// that would queue one refuses.
func TestScheduleOnClosedEnvPanics(t *testing.T) {
	e := NewEnv()
	held := NewResource("held", 1)
	held.AcquireFunc(e, func() {})
	held.AcquireFunc(e, func() {}) // queued behind the first
	e.Close()
	for name, fn := range map[string]func(){
		"At":      func() { e.At(Millis(1), func() {}) },
		"After":   func() { e.After(Millis(1), func() {}) },
		"Defer":   func() { e.Defer(func() {}) },
		"UseFunc": func() { NewResource("r", 1).UseFunc(e, 1, func(Time) {}) },
		"Release": func() { held.Release(e) }, // grants the queued AcquireFunc
	} {
		if r := recovered(fn); r != "sim: schedule on closed Env" {
			t.Errorf("%s on a closed Env: recovered %v", name, r)
		}
	}
	if e.PendingEvents() != 0 || e.step() {
		t.Fatalf("closed Env holds %d events", e.PendingEvents())
	}
}

// A popped message, receiver or woken receiver must not stay reachable
// through the ring buffers, which outlive them.
func TestMailboxPopClearsVacatedSlot(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[*int]("m")
	m.RecvFunc(e, func(*int) {})
	m.RecvFunc(e, func(*int) {})
	m.Send(e, new(int))
	m.Send(e, new(int))
	e.Run()
	if m.Len() != 0 || m.waiters.Len() != 0 || m.woken.Len() != 0 {
		t.Fatalf("mailbox not drained: %d messages, %d waiters, %d woken", m.Len(), m.waiters.Len(), m.woken.Len())
	}
	for i := 0; i < 2; i++ {
		if m.q.buf[i] != nil || m.waiters.buf[i] != nil || m.woken.buf[i] != nil {
			t.Fatalf("slot %d still pinned: message %v, waiter set %v, woken set %v",
				i, m.q.buf[i], m.waiters.buf[i] != nil, m.woken.buf[i] != nil)
		}
	}
}
