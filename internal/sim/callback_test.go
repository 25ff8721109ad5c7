package sim

import (
	"fmt"
	"testing"
)

func TestAfterFuncFires(t *testing.T) {
	e := NewEnv()
	var fired Time
	tm := e.AfterFunc(Millis(3), func() { fired = e.Now() })
	if !tm.Active() || tm.When() != Millis(3) {
		t.Fatalf("timer not pending at 3ms: active=%v when=%v", tm.Active(), tm.When())
	}
	e.Run()
	if fired != Millis(3) {
		t.Fatalf("fired at %v, want 3ms", fired)
	}
	if tm.Active() || tm.Stop() {
		t.Fatal("fired timer still active / stoppable")
	}
}

func TestAfterFuncStop(t *testing.T) {
	e := NewEnv()
	ran := false
	tm := e.AfterFunc(Millis(3), func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.After(Millis(5), func() {}) // keep the clock moving past the timer
	e.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	if e.Now() != Millis(5) {
		t.Fatalf("Now = %v, want 5ms", e.Now())
	}
}

func TestStoppedTimerNotCounted(t *testing.T) {
	e := NewEnv()
	tm := e.AfterFunc(Millis(1), func() {})
	e.AfterFunc(Millis(2), func() {})
	tm.Stop()
	e.Run()
	if got := e.EventsProcessed(); got != 1 {
		t.Fatalf("EventsProcessed = %d, want 1 (stopped timer must not count)", got)
	}
}

func TestNegativeAfterFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEnv().AfterFunc(-1, func() {})
}

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

func TestAcquireFuncFIFOWithProcs(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	var order []string
	e.Spawn("p1", func(p *Proc) {
		p.Acquire(r)
		order = append(order, "p1")
		p.Wait(Millis(1))
		r.Release(p.Env())
	})
	e.Spawn("p2", func(p *Proc) {
		p.Acquire(r)
		order = append(order, "p2")
		p.Wait(Millis(1))
		r.Release(p.Env())
	})
	e.At(0, func() {
		r.AcquireFunc(e, func() {
			order = append(order, "cb")
			r.Release(e)
		})
	})
	e.Spawn("p3", func(p *Proc) {
		p.Acquire(r)
		order = append(order, "p3")
		r.Release(p.Env())
	})
	e.Run()
	want := []string{"p1", "p2", "cb", "p3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v (FIFO across procs and callbacks)", order, want)
	}
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
	if r.BusyTime(e.Now()) != Millis(30) {
		t.Fatalf("busy = %v, want 30ms", r.BusyTime(e.Now()))
	}
	if r.WaitedTime() != Millis(30) { // 10 + 20 queued
		t.Fatalf("waited = %v, want 30ms", r.WaitedTime())
	}
}

func TestOnFire(t *testing.T) {
	e := NewEnv()
	s := NewSignal()
	var order []string
	s.OnFire(e, func() { order = append(order, "cb1") })
	e.Spawn("w", func(p *Proc) {
		p.WaitSignal(s)
		order = append(order, "proc")
	})
	e.At(Millis(1), func() {
		s.OnFire(e, func() { order = append(order, "cb2") })
		s.Fire(e)
	})
	e.Run()
	want := []string{"cb1", "proc", "cb2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("wake order %v, want %v (registration order)", order, want)
	}
	// Already fired: runs inline.
	ran := false
	s.OnFire(e, func() { ran = true })
	if !ran {
		t.Fatal("OnFire on fired signal must run inline")
	}
}

func TestRecvFuncInlineAndBlocked(t *testing.T) {
	e := NewEnv()
	m := NewMailbox("m")
	m.Send(e, 1)
	var got []int
	m.RecvFunc(e, func(v interface{}) { got = append(got, v.(int)) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("inline RecvFunc got %v", got)
	}
	m.RecvFunc(e, func(v interface{}) { got = append(got, v.(int)) })
	e.At(Millis(2), func() { m.Send(e, 2) })
	e.Run()
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("blocked RecvFunc got %v", got)
	}
}

func TestRecvFuncFIFOWithProcs(t *testing.T) {
	e := NewEnv()
	m := NewMailbox("m")
	var got []string
	e.Spawn("r1", func(p *Proc) {
		got = append(got, fmt.Sprintf("r1=%v", p.Recv(m)))
	})
	e.At(0, func() {
		m.RecvFunc(e, func(v interface{}) { got = append(got, fmt.Sprintf("cb=%v", v)) })
	})
	e.Spawn("r2", func(p *Proc) {
		got = append(got, fmt.Sprintf("r2=%v", p.Recv(m)))
	})
	e.At(Millis(1), func() {
		m.Send(e, 1)
		m.Send(e, 2)
		m.Send(e, 3)
	})
	e.Run()
	want := []string{"r1=1", "cb=2", "r2=3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery %v, want %v (FIFO across procs and callbacks)", got, want)
	}
}

func TestRecvFuncRequeuesWhenSnatched(t *testing.T) {
	e := NewEnv()
	m := NewMailbox("m")
	var got []int
	m.RecvFunc(e, func(v interface{}) { got = append(got, v.(int)) })
	e.At(Millis(1), func() {
		m.Send(e, 1)
		// Snatch the message before the woken callback's delivery event
		// dispatches (the TryRecv race).
		m.q = m.q[1:]
	})
	e.At(Millis(2), func() { m.Send(e, 2) })
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2] (callback must re-queue after snatch)", got)
	}
}

// TestCallbackProcEquivalence runs the same contended workload twice — once
// with blocking processes, once as callback chains — and checks that both
// observe identical grant times, occupancy, and completion order. This is
// the engine's core guarantee: the two waiting styles are interchangeable
// without perturbing the simulation.
func TestCallbackProcEquivalence(t *testing.T) {
	run := func(callbacks bool) []string {
		e := NewEnv()
		var log []string
		r := NewResource("r", 2)
		s := NewSignal()
		for i := 0; i < 6; i++ {
			i := i
			dur := Time(1+i%3) * Millisecond
			record := func(start Time) {
				log = append(log, fmt.Sprintf("%d:[%v,%v]", i, start, e.Now()))
				if len(log) == 6 {
					s.Fire(e)
				}
			}
			if callbacks {
				r.UseFunc(e, dur, record)
			} else {
				e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
					p.Acquire(r)
					start := p.Now()
					p.Wait(dur)
					r.Release(p.Env())
					record(start)
				})
			}
		}
		done := func() { log = append(log, fmt.Sprintf("done@%v", e.Now())) }
		if callbacks {
			s.OnFire(e, done)
		} else {
			e.Spawn("waiter", func(p *Proc) {
				p.WaitSignal(s)
				done()
			})
		}
		e.Run()
		e.Close()
		return log
	}
	procs, cbs := run(false), run(true)
	if fmt.Sprint(procs) != fmt.Sprint(cbs) {
		t.Fatalf("proc and callback traces diverge:\nprocs: %v\ncbs:   %v", procs, cbs)
	}
}

func TestStaleWakeupSkippedUncounted(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("p", func(p *Proc) {})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d", e.LiveProcs())
	}
	// White-box: enqueue a wake-up for the finished process, plus a real
	// callback behind it.
	e.schedule(e.now, p, nil)
	ran := false
	e.Defer(func() { ran = true })
	before := e.EventsProcessed()
	if !e.Step() {
		t.Fatal("Step with a stale event returned false")
	}
	if e.EventsProcessed() != before {
		t.Fatal("stale wake-up inflated EventsProcessed")
	}
	if !e.Step() || !ran {
		t.Fatal("callback after stale event did not run")
	}
	if e.EventsProcessed() != before+1 {
		t.Fatalf("EventsProcessed = %d, want %d", e.EventsProcessed(), before+1)
	}
}

func TestCloseDropsPendingCallbacksAndTimers(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Wait(Millis(1)) })
	e.RunUntil(Millis(1))
	ran := false
	e.After(Millis(5), func() { ran = true })
	e.AfterFunc(Millis(5), func() { ran = true })
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

func TestReentrancyPanics(t *testing.T) {
	// Reentrant calls panic inside the process; the scheduler forwards the
	// panic to the goroutine driving Run, where we catch it.
	check := func(name string, inner func(e *Env)) {
		e := NewEnv()
		var got interface{}
		e.Spawn("p", func(p *Proc) { inner(e) })
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
		if got == nil {
			t.Errorf("%s from inside a running simulation did not panic", name)
		}
	}
	check("Run", func(e *Env) { e.Run() })
	check("RunUntil", func(e *Env) { e.RunUntil(Millis(1)) })
	check("Close", func(e *Env) { e.Close() })
}

// push hands out slab slots unzeroed and relies on Step having cleared
// the pointer fields of whatever kind last used the slot. Drive every
// event kind (including the skipped ones: a stopped timer, a wake-up for a
// finished process) through a small slab and require every slot to come
// back pointer-free, so a kind that forgets a field fails here instead of
// leaking a live pointer into the slot's next user.
func TestReleasedEventSlotsHoldNoPointers(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	for k := 0; k < 100; k++ {
		d := Time(k%7 + 1)
		e.After(d, func() {})
		e.AfterFunc(d, func() {})
		e.AfterFunc(d, func() {}).Stop()
		r.UseFunc(e, d, func(Time) {})
		r.AcquireFunc(e, func() { r.Release(e) })
		e.Spawn("p", func(p *Proc) {
			p.Wait(d)
			p.Use(r, d)
		})
	}
	e.Run()
	if len(e.events.free) != len(e.events.slab) {
		t.Fatalf("%d of %d slots released", len(e.events.free), len(e.events.slab))
	}
	for i, ev := range e.events.slab {
		if ev.proc != nil || ev.fn != nil || ev.timer != nil || ev.res != nil || ev.useFn != nil {
			t.Fatalf("released slot %d (kind %d) still holds a pointer: %+v", i, ev.kind, ev)
		}
	}
}
