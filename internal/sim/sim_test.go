package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{Microsecond + Microsecond/2, "1.500us"},
		{Millis(2.25), "2.250ms"},
		{Seconds(1.5), "1.500s"},
		{90 * Second, "1.500m"},
		{90 * Minute, "1.500h"},
		{-Millis(1), "-1.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// TestMillisTruncates pins Millis to truncation toward zero: 1.9 ns is
// 1 ns on both sides of zero, not the nearest 2.
func TestMillisTruncates(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		want Time
	}{{1.9e-6, 1}, {-1.9e-6, -1}, {0.9e-6, 0}, {2.5e-6, 2}} {
		if got := Millis(c.ms); got != c.want {
			t.Errorf("Millis(%g) = %d ns, want %d", c.ms, int64(got), int64(c.want))
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Millis(1.5) != 1500*Microsecond {
		t.Errorf("Millis(1.5) = %v", Millis(1.5))
	}
	if Seconds(2).Seconds() != 2 {
		t.Errorf("round-trip seconds failed: %v", Seconds(2).Seconds())
	}
	if Micros(3).Millis() != 0.003 {
		t.Errorf("Micros(3).Millis() = %v", Micros(3).Millis())
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at Time
	e.After(Millis(5), func() { at = e.Now() })
	e.Run()
	if at != Millis(5) {
		t.Fatalf("callback observed time %v, want 5ms", at)
	}
	if e.Now() != Millis(5) {
		t.Fatalf("env time %v, want 5ms", e.Now())
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Defer(func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; same-time events must run in schedule order", order)
		}
	}
}

// useAll starts n timed holds of d on r at the current time and returns
// the grant and completion times of each, in completion order.
func useAll(e *Env, r *Resource, n int, d Time) (start, finish []Time) {
	for i := 0; i < n; i++ {
		r.UseFunc(e, d, func(s Time) {
			start = append(start, s)
			finish = append(finish, e.Now())
		})
	}
	e.Run()
	return start, finish
}

func TestResourceExclusive(t *testing.T) {
	e := NewEnv()
	r := NewResource("gpu", 1)
	start, finish := useAll(e, r, 3, Millis(10))
	want := []Time{Millis(10), Millis(20), Millis(30)}
	if fmt.Sprint(finish) != fmt.Sprint(want) {
		t.Fatalf("finish times %v, want %v (strict serialization)", finish, want)
	}
	var busy Time
	for i := range start {
		busy += finish[i] - start[i]
	}
	if len(start) != 3 || busy != Millis(30) {
		t.Fatalf("%d grants held the resource %v, want 3 and 30ms", len(start), busy)
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEnv()
	_, finish := useAll(e, NewResource("cpus", 2), 4, Millis(10))
	want := []Time{Millis(10), Millis(10), Millis(20), Millis(20)}
	if fmt.Sprint(finish) != fmt.Sprint(want) {
		t.Fatalf("finish times %v, want %v", finish, want)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEnv()
	r := NewResource("x", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		r.AcquireFunc(e, func() {
			order = append(order, i)
			e.After(Millis(1), func() { r.Release(e) })
		})
	}
	e.Run()
	if len(order) != 6 {
		t.Fatalf("only %d of 6 acquisitions granted", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order %v, want FIFO", order)
		}
	}
}

func TestResourceWaitedTime(t *testing.T) {
	e := NewEnv()
	r := NewResource("x", 1)
	start, _ := useAll(e, r, 2, Millis(10))
	var waited Time
	for _, s := range start {
		waited += s // both queued at 0
	}
	if waited != Millis(10) {
		t.Fatalf("waited = %v, want 10ms", waited)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on releasing idle resource")
		}
	}()
	e := NewEnv()
	r := NewResource("x", 1)
	r.Release(e)
}

func TestResourceBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewResource("bad", 0)
}

// recvN registers a receiver on m that takes n messages, one after the
// other, the way a server loop re-arms itself from its own continuation.
func recvN[T any](e *Env, m *Mailbox[T], n int, got func(v T)) {
	if n == 0 {
		return
	}
	m.RecvFunc(e, func(v T) {
		got(v)
		recvN(e, m, n-1, got)
	})
}

func TestMailboxDeliveryOrder(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[int]("box")
	var got []int
	recvN(e, m, 3, func(v int) { got = append(got, v) })
	for i := 0; i < 3; i++ {
		i := i
		e.After(Time(i+1)*Millisecond, func() { m.Send(e, i) })
	}
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxBufferedBeforeRecv(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[string]("box")
	m.Send(e, "a")
	m.Send(e, "b")
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	var got []string
	recvN(e, m, 2, func(v string) { got = append(got, v) })
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v (buffered messages must be delivered inline, in order)", got)
	}
}

func TestMailboxMultipleReceiversFIFO(t *testing.T) {
	e := NewEnv()
	m := NewMailbox[int]("box")
	var got []string
	for _, name := range []string{"r1", "r2"} {
		name := name
		m.RecvFunc(e, func(v int) {
			got = append(got, fmt.Sprintf("%s=%v", name, v))
		})
	}
	e.After(Millis(1), func() {
		m.Send(e, 1)
		m.Send(e, 2)
	})
	e.Run()
	if len(got) != 2 || got[0] != "r1=1" || got[1] != "r2=2" {
		t.Fatalf("got %v (receivers must be served FIFO)", got)
	}
}

func TestAtCallback(t *testing.T) {
	e := NewEnv()
	var fired Time
	e.At(Millis(4), func() { fired = e.Now() })
	e.Run()
	if fired != Millis(4) {
		t.Fatalf("callback at %v, want 4ms", fired)
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEnv()
	var fired Time
	e.After(Millis(2), func() {
		e.After(Millis(3), func() { fired = e.Now() })
	})
	e.Run()
	if fired != Millis(5) {
		t.Fatalf("callback at %v, want 5ms (After is relative to the scheduling instant)", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.After(Millis(5), func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(Millis(1), func() {})
}

// A negative duration is refused at both remaining entry points: UseFunc
// checks it, After reaches the scheduling-in-the-past check.
func TestNegativeWaitPanics(t *testing.T) {
	e := NewEnv()
	if recovered(func() { NewResource("r", 1).UseFunc(e, -1, func(Time) {}) }) == nil {
		t.Error("UseFunc with a negative duration did not panic")
	}
	if recovered(func() { e.After(-1, func() {}) }) == nil {
		t.Error("After with a negative duration did not panic")
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("a refused call left %d events queued", e.PendingEvents())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; ticks < 10 {
			e.After(Millis(10), tick)
		}
	}
	e.After(Millis(10), tick)
	e.RunUntil(Millis(35))
	if ticks != 3 {
		t.Fatalf("ticks = %d at t=35ms, want 3", ticks)
	}
	if e.Now() != Millis(35) {
		t.Fatalf("Now = %v, want 35ms", e.Now())
	}
	e.Close()
}

// TestDeterminism runs a randomized workload twice and checks the event
// traces match exactly.
func TestDeterminism(t *testing.T) {
	trace := func() []string {
		e := NewEnv()
		var log []string
		r := NewResource("r", 2)
		m := NewMailbox[int]("m")
		for i := 0; i < 20; i++ {
			i := i
			e.After(Time(i%7)*Millisecond, func() {
				r.UseFunc(e, Time(1+i%3)*Millisecond, func(Time) {
					m.Send(e, i)
					log = append(log, fmt.Sprintf("%d@%v", i, e.Now()))
				})
			})
		}
		recvN(e, m, 20, func(v int) {
			log = append(log, fmt.Sprintf("recv%v@%v", v, e.Now()))
		})
		e.Run()
		return log
	}
	a, b := trace(), trace()
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("trace lengths %d and %d, want 40 (20 completions + 20 deliveries)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, every callback runs at exactly its
// delay, and the env clock ends at the max.
func TestQuickWaitCompletion(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEnv()
		var max Time
		ok := true
		for _, d := range durs {
			d := Time(d) * Microsecond
			if d > max {
				max = d
			}
			e.After(d, func() {
				if e.Now() != d {
					ok = false
				}
			})
		}
		e.Run()
		return ok && e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-c resource with n unit-time users finishes at
// ceil(n/c) time units and never exceeds capacity.
func TestQuickResourceThroughput(t *testing.T) {
	f := func(n uint8, c uint8) bool {
		users := int(n%50) + 1
		capacity := int(c%8) + 1
		e := NewEnv()
		r := NewResource("r", capacity)
		overCap, grants := false, 0
		for i := 0; i < users; i++ {
			r.AcquireFunc(e, func() {
				grants++
				if r.InUse() > capacity {
					overCap = true
				}
				e.After(Millisecond, func() { r.Release(e) })
			})
		}
		e.Run()
		wantEnd := Time((users+capacity-1)/capacity) * Millisecond
		return !overCap && e.Now() == wantEnd && grants == users
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
