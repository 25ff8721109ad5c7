package sim

import (
	"testing"
	"unsafe"
)

// The engine's performance contract, enforced here and measured by the
// benchmarks below:
//
//   - dispatching a plain callback event costs zero heap allocations once
//     the queue has grown to its steady-state capacity;
//   - the callback-completion primitives allocate only their continuation
//     closures, never per-event queue boxes.

func TestZeroAllocEventDispatch(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	// Warm the queue so the backing array is at capacity.
	for i := 0; i < 1024; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("event schedule+dispatch allocates %.1f objects/event, want 0", allocs)
	}
}

// The argument-carrying form is what lets a slot handle ride in the event
// instead of a closure: it must cost no allocation either, and it may not
// grow the 48-byte payload every queue entry of every workload pays for.
func TestZeroAllocArgEvent(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 48 {
		t.Fatalf("sim.event is %d bytes, want 48", size)
	}
	e := NewEnv()
	var sum uint64
	fn := func(arg uint64) { sum += arg }
	for i := 0; i < 1024; i++ {
		e.AtArg(Time(i), fn, 1)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.Now(), fn, 2)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("argument event schedule+dispatch allocates %.1f objects/event, want 0", allocs)
	}
	if sum != 1024+2*1001 {
		t.Fatalf("arguments summed to %d, want %d", sum, 1024+2*1001)
	}
}

// A typed mailbox with a re-arming receiver — a node's inbox and its
// dispatcher — moves a message-sized value send → wake → deliver without
// boxing it or building a closure.
func TestZeroAllocMailbox(t *testing.T) {
	type message struct {
		from, to int
		payload  interface{}
	}
	e := NewEnv()
	m := NewMailbox[message]("m")
	got := 0
	var recv func(v message)
	recv = func(v message) {
		got += v.from
		m.RecvFunc(e, recv)
	}
	m.RecvFunc(e, recv)
	round := func() {
		for i := 0; i < 20; i++ { // one wake-up, then an inline drain
			m.Send(e, message{from: 1, payload: &got})
		}
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a mailbox burst allocates %.2f objects, want 0", allocs)
	}
	if got != 20*1002 || m.Len() != 0 {
		t.Fatalf("delivered %d of %d messages, %d queued", got, 20*1002, m.Len())
	}
}

func TestZeroAllocResourceGrant(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	fn := func() { r.Release(e) }
	// Warm the waiter slice and event queue.
	for i := 0; i < 64; i++ {
		r.AcquireFunc(e, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		r.AcquireFunc(e, fn) // grants inline, releases inline
	})
	if allocs != 0 {
		t.Fatalf("uncontended acquire/release allocates %.1f objects, want 0", allocs)
	}
}

// A contended resource queues its waiters in a ring: a queue that drains
// and refills for a whole run — the GPU compute queue behind 48 job tokens —
// must settle on one buffer instead of reslicing its front away and
// regrowing, for timed holds and plain acquisitions alike.
func TestZeroAllocContendedResource(t *testing.T) {
	e := NewEnv()
	r := NewResource("r", 1)
	held := func(Time) {}
	release := func() { r.Release(e) }
	round := func() {
		// The first UseFunc takes the unit; the other seven calls queue.
		for i := 0; i < 4; i++ {
			r.UseFunc(e, 1, held)
			r.AcquireFunc(e, release)
		}
		for e.Step() {
		}
	}
	round() // grow the ring and the event queue to steady-state capacity
	if allocs := testing.AllocsPerRun(100000, round); allocs != 0 {
		t.Fatalf("a drain-and-refill round of a contended resource allocates %.2f objects, want 0", allocs)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 || r.Acquires() != 8*100002 {
		t.Fatalf("resource did not drain: in use %d, queued %d, acquires %d", r.InUse(), r.QueueLen(), r.Acquires())
	}
}

// BenchmarkEventDispatch measures the raw queue push+pop+call cycle.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// requireZeroAllocs fails the benchmark when a round of its loop body,
// run on the warmed engine, allocates.
func requireZeroAllocs(b *testing.B, round func()) {
	b.Helper()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		b.Fatalf("one round allocates %.2f objects, want 0", n)
	}
}

// BenchmarkEventQueueChurn measures push/pop in the fleet's regime: a deep
// queue (about 2 000 events in flight) that nearly every event enters for
// a later instant, one push in 256 for the current one. Here the heap does
// the work and the now-lane costs its one branch per pop.
func BenchmarkEventQueueChurn(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	for i := 0; i < 2048; i++ {
		e.After(Time(i), fn)
	}
	n := 0
	round := func() {
		if n++; n%256 == 0 {
			e.Defer(fn)
		} else {
			e.After(2048, fn)
		}
		e.Step()
	}
	requireZeroAllocs(b, round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if e.PendingEvents() != 2048 {
		b.Fatalf("%d events in flight, want 2048", e.PendingEvents())
	}
}

// BenchmarkArrivalsChurn measures the arrival path in the fleet's regime:
// about 200 messages in flight through Arrivals beside about 2 000 timers
// in the Env's queue. Each round runs one instant: two messages, whose
// senders tie on the instant, arrive and are sent on for 100 instants
// later, and one timer fires and re-arms 2 048 instants later.
func BenchmarkArrivalsChurn(b *testing.B) {
	e := NewEnv()
	var timer func()
	timer = func() { e.After(2048, timer) }
	for i := 1; i <= 2048; i++ {
		e.At(Time(i), timer)
	}
	var q *Arrivals[uint32]
	q = NewArrivals(e, func(src uint32) { q.Push(e.Now()+100, src, src) })
	for i := 0; i < 200; i++ {
		q.Push(Time(1+i/2), uint32(i%2*7), uint32(i%2*7))
	}
	round := func() { q.RunUntil(e.Now() + 1) }
	requireZeroAllocs(b, round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if e.PendingEvents() != 2048 || len(q.keys) != 200 {
		b.Fatalf("%d timers and %d arrivals in flight, want 2048 and 200", e.PendingEvents(), len(q.keys))
	}
}

// BenchmarkSameInstantChain measures dispatch in the pair workloads'
// regime: a shallow queue (64 timers pending) and continuations that mostly
// follow one another at the same instant — four hops for the current
// instant, then one a tick later. Here the now-lane does the work: four
// events in five never touch the heap.
func BenchmarkSameInstantChain(b *testing.B) {
	e := NewEnv()
	idle := func() {}
	for i := 1; i <= 64; i++ {
		e.At(Time(i)<<40, idle)
	}
	var hop func(n uint64)
	hop = func(n uint64) {
		if n%5 == 0 {
			e.AtArg(e.Now()+1, hop, n+1)
		} else {
			e.AtArg(e.Now(), hop, n+1)
		}
	}
	e.AtArg(0, hop, 1)
	round := func() { e.Step() }
	requireZeroAllocs(b, round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if e.PendingEvents() != 65 || e.LanePushes() < 3*e.HeapPushes() {
		b.Fatalf("%d events pending, %d lane and %d heap pushes", e.PendingEvents(), e.LanePushes(), e.HeapPushes())
	}
}

// BenchmarkResourceContentionCallback measures a capacity-1 resource with
// a deep callback wait queue: one grant hand-off per Step pair.
func BenchmarkResourceContentionCallback(b *testing.B) {
	e := NewEnv()
	r := NewResource("r", 1)
	var use func(start Time)
	use = func(start Time) {
		r.UseFunc(e, 1, use)
	}
	for i := 0; i < 64; i++ {
		r.UseFunc(e, 1, use)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkMailboxThroughput measures send → callback-deliver cycles of a
// typed mailbox carrying a message-sized value; -benchmem reads 0.
func BenchmarkMailboxThroughput(b *testing.B) {
	type message struct {
		from, to int
		size     int64
		payload  interface{}
	}
	e := NewEnv()
	m := NewMailbox[message]("m")
	var recv func(v message)
	recv = func(message) {
		m.RecvFunc(e, recv)
	}
	m.RecvFunc(e, recv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(e, message{from: i})
		e.Step()
	}
}
