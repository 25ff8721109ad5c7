package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeOrderCanonical checks rule 1: records arriving at one instant
// apply in (sender, push order) order, whatever order they were pushed in.
func TestMergeOrderCanonical(t *testing.T) {
	e := NewEnv()
	var got []uint32
	q := NewArrivals(e, func(src uint32) { got = append(got, src) })
	e.Defer(func() {
		for _, src := range []uint32{9, 3, 7} {
			q.Push(Micros(10), src, src)
			q.Push(Micros(10), src, src)
		}
		q.Push(Micros(9), 11, 11)
	})
	q.RunUntil(Millis(1))
	if want := []uint32{11, 3, 3, 7, 7, 9, 9}; !slices.Equal(got, want) {
		t.Fatalf("apply order = %v, want %v", got, want)
	}
}

// TestDeliveryBeforeLocalAtSameTime checks rule 2: at an equal instant
// every arrival applies before any local event — also before the local
// events an earlier arrival of that instant queued.
func TestDeliveryBeforeLocalAtSameTime(t *testing.T) {
	e := NewEnv()
	var got []string
	var q *Arrivals[string]
	q = NewArrivals(e, func(name string) {
		got = append(got, name)
		e.Defer(func() { got = append(got, "after "+name) })
	})
	e.At(Micros(10), func() { got = append(got, "local") })
	e.Defer(func() {
		q.Push(Micros(10), 2, "second")
		q.Push(Micros(10), 1, "first")
	})
	q.RunUntil(Millis(1))
	want := "[first second local after first after second]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestDeliveryRunsAtItsTimestamp checks rule 3 and the clock: a record runs
// with the clock at its arrival time and counts as one dispatched event.
func TestDeliveryRunsAtItsTimestamp(t *testing.T) {
	e := NewEnv()
	var at Time
	var count uint64
	q := NewArrivals(e, func(struct{}) {
		at = e.Now()
		count = e.EventsProcessed()
	})
	e.At(Micros(3), func() { q.Push(Micros(23), 42, struct{}{}) })
	if n := q.RunUntil(Millis(1)); n != 2 {
		t.Fatalf("RunUntil dispatched %d, want 2 (the local event and the arrival)", n)
	}
	if at != Micros(23) || count != 2 {
		t.Fatalf("arrival ran at %v as dispatch %d, want 23us and 2", at, count)
	}
}

// TestShardedRunUntil is named for the sharded root's RunUntil, which
// Arrivals.RunUntil replaces: both streams advance to t, events exactly at
// t included, and the clock stops at t.
func TestShardedRunUntil(t *testing.T) {
	e := NewEnv()
	var fired []Time
	q := NewArrivals(e, func(at Time) { fired = append(fired, at) })
	e.Defer(func() {
		q.Push(Millis(1), 0, Millis(1))
		q.Push(Millis(5), 0, Millis(5))
	})
	e.At(Millis(2), func() { fired = append(fired, Millis(2)) })
	if n := q.RunUntil(Millis(2)); n != 3 {
		t.Fatalf("RunUntil dispatched %d, want 3 (events exactly at t run)", n)
	}
	if e.Now() != Millis(2) {
		t.Fatalf("clock %v, want 2ms", e.Now())
	}
	if n := q.RunUntil(Millis(10)); n != 1 || e.Now() != Millis(10) {
		t.Fatalf("second RunUntil dispatched %d and stopped at %v, want 1 and 10ms", n, e.Now())
	}
	if want := []Time{Millis(1), Millis(2), Millis(5)}; !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// A message arrives strictly after it is sent: a push for the send
// instant panics.
func TestPushAtSendInstantPanics(t *testing.T) {
	e := NewEnv()
	q := NewArrivals(e, func(int) {})
	e.RunUntil(Micros(5))
	defer func() {
		if recover() == nil {
			t.Fatal("an arrival at the send instant did not panic")
		}
	}()
	q.Push(Micros(5), 0, 1)
}

// A message pushed outside any run and still queued at Close is dropped:
// it never runs, and running the closed Env dispatches nothing.
func TestCloseDropsArrivalPushedOutsideRun(t *testing.T) {
	e := NewEnv()
	ran := false
	q := NewArrivals(e, func(int) { ran = true })
	q.Push(Micros(5), 0, 1)
	e.Close()
	if n := q.RunUntil(Millis(1)); n != 0 || ran {
		t.Fatalf("a closed Env dispatched %d events (arrival ran: %v)", n, ran)
	}
}

// A message sent during a run, due after the horizon that run stopped at,
// is dropped by Close like the local events queued beside it.
func TestCloseDropsArrivalPastHorizon(t *testing.T) {
	e := NewEnv()
	ran := false
	q := NewArrivals(e, func(int) { ran = true })
	e.Defer(func() { q.Push(Micros(10), 1, 1) })
	if n := q.RunUntil(Micros(1)); n != 1 {
		t.Fatalf("RunUntil dispatched %d, want 1 (the sender)", n)
	}
	e.After(Millis(1), func() { ran = true })
	e.Close()
	e.Close() // idempotent
	if n := q.RunUntil(Millis(5)); n != 0 || ran {
		t.Fatalf("a closed Env dispatched %d events (something ran: %v)", n, ran)
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("%d local events pending after Close", e.PendingEvents())
	}
}

func TestPushOnClosedEnvPanics(t *testing.T) {
	e := NewEnv()
	q := NewArrivals(e, func(int) {})
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Push on a closed Env did not panic")
		}
	}()
	q.Push(Millis(2), 0, 1)
}

func TestRunInsideArrivalPanics(t *testing.T) {
	e := NewEnv()
	var got interface{}
	q := NewArrivals(e, func(int) {
		defer func() { got = recover() }()
		e.Run()
	})
	q.Push(Micros(5), 0, 1)
	q.RunUntil(Millis(1))
	if got == nil {
		t.Fatal("Run inside an arrival did not panic")
	}
}

// A message between two entities of one Env takes the arrival queue, never
// the Env's event queue, and is delivered from it.
func TestArrivalBypassesEventQueue(t *testing.T) {
	e := NewEnv()
	ran := false
	q := NewArrivals(e, func(int) { ran = true })
	e.Defer(func() { q.Push(Micros(5), 5, 0) })
	e.RunUntil(0)
	seq, heap := e.LanePushes()+e.HeapPushes(), e.HeapPushes()
	if n := q.RunUntil(Millis(1)); n != 1 || !ran {
		t.Fatalf("RunUntil dispatched %d (arrival ran: %v), want 1", n, ran)
	}
	if e.LanePushes()+e.HeapPushes() != seq || e.HeapPushes() != heap || e.PendingEvents() != 0 {
		t.Fatal("the message went through the Env's event queue")
	}
}

// A panic in a local event or in a delivery reaches the caller of
// Arrivals.RunUntil with its value.
func TestArrivalsRunUntilPropagatesPanics(t *testing.T) {
	recovered := func(setup func(e *Env, q *Arrivals[string])) (got interface{}) {
		e := NewEnv()
		q := NewArrivals(e, func(s string) { panic(s) })
		setup(e, q)
		defer func() { got = recover() }()
		q.RunUntil(Millis(1))
		return nil
	}
	if got := recovered(func(e *Env, q *Arrivals[string]) {
		e.At(Micros(1), func() { panic("shard boom") })
	}); got != "shard boom" {
		t.Fatalf("local event: recovered %v, want shard boom", got)
	}
	if got := recovered(func(e *Env, q *Arrivals[string]) {
		q.Push(Micros(1), 3, "shard boom")
	}); got != "shard boom" {
		t.Fatalf("delivery: recovered %v, want shard boom", got)
	}
}

// A message that rides as a value through the arrival queue costs nothing
// once the queue has grown: push, order and deliver are allocation-free,
// also for a push that lands before the tail.
func TestZeroAllocArrival(t *testing.T) {
	type msg struct {
		to   int32
		word uint64
	}
	e := NewEnv()
	var sum uint64
	q := NewArrivals(e, func(m msg) { sum += m.word })
	for i := 0; i < 1024; i++ {
		q.Push(Time(i+1), uint32(i%7), msg{word: 1})
	}
	q.RunUntil(Millis(1))
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(e.Now()+2, 3, msg{word: 2})
		q.Push(e.Now()+1, 3, msg{word: 3}) // lands before the tail
		q.RunUntil(e.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("arrival push+deliver allocates %.1f objects/round, want 0", allocs)
	}
	if sum != 1024+5*1001 {
		t.Fatalf("messages summed to %d, want %d", sum, 1024+5*1001)
	}
}

// msgProgram is a seeded random workload over one Env: entities whose
// callbacks log themselves and then schedule more work, local (At, AtArg,
// Defer) or as messages to each other. The message latency is drawn from
// a few values, so arrivals keep colliding with each other and with local
// events.
type msgProgram struct {
	e      *Env
	rng    *rand.Rand
	budget int
	nextID uint64
	log    []laneRecord
	argFn  func(id uint64)
	send   func(at Time, src uint32, m progMsg)
}

type progMsg struct {
	to int
	id uint64
}

func (p *msgProgram) visit(id uint64) {
	p.log = append(p.log, laneRecord{p.e.now, id})
	for k := p.rng.Intn(4); k > 0 && p.budget > 0; k-- {
		p.act(int(id % 5))
	}
}

func (p *msgProgram) act(src int) {
	p.budget--
	p.nextID++
	e, id := p.e, p.nextID
	d := []Time{0, 0, 1, 2, 5}[p.rng.Intn(5)]
	switch p.rng.Intn(4) {
	case 0:
		e.At(e.now+d, func() { p.visit(id) })
	case 1:
		e.AtArg(e.now+d, p.argFn, id)
	case 2:
		e.Defer(func() { p.visit(id) })
	case 3:
		p.send(e.now+1+d, uint32(src), progMsg{to: p.rng.Intn(5), id: id | 1<<63})
	}
}

// arrivalsReference states the order of the Arrivals type comment
// directly: local events in (at, seq) order by linear scan
// (laneReference), arrivals in (at, src, seq) order by linear scan, an
// arrival first whenever it is not later than the earliest local event.
type arrivalsReference[T any] struct {
	ref     laneReference
	deliver func(T)
	pending []refArrival[T]
	seq     uint64
}

// refArrival is an arrival under the reference's bookkeeping.
type refArrival[T any] struct {
	at  Time
	src uint32
	seq uint64
	m   T
}

func (r *arrivalsReference[T]) Push(at Time, src uint32, m T) {
	r.seq++
	r.pending = append(r.pending, refArrival[T]{at, src, r.seq, m})
}

func (r *arrivalsReference[T]) RunUntil(t Time) uint64 {
	e := r.ref.e
	start := e.eventsProcessed
	for {
		r.ref.collect()
		a := -1
		for i, x := range r.pending {
			if y := r.pending[max(a, 0)]; a < 0 || x.at < y.at || x.at == y.at && (x.src < y.src || x.src == y.src && x.seq < y.seq) {
				a = i
			}
		}
		local := len(r.ref.pending) > 0
		if a >= 0 && r.pending[a].at <= t && (!local || r.pending[a].at <= r.ref.pending[r.ref.min()].at) {
			x := r.pending[a]
			r.pending = slices.Delete(r.pending, a, a+1)
			e.now = x.at
			e.eventsProcessed++
			r.deliver(x.m)
			continue
		}
		if !local || r.ref.pending[r.ref.min()].at > t {
			break
		}
		r.ref.step()
	}
	if e.now < t {
		e.now = t
	}
	return e.eventsProcessed - start
}

// TestArrivalsInterleaveInContractOrder holds Arrivals.RunUntil to
// arrivalsReference over 100 seeded programs of local events and
// messages.
func TestArrivalsInterleaveInContractOrder(t *testing.T) {
	run := func(seed int64, reference bool) (log []laneRecord, now Time, events uint64) {
		e := NewEnv()
		p := &msgProgram{e: e, rng: rand.New(rand.NewSource(seed)), budget: 600}
		p.argFn = p.visit
		deliver := func(m progMsg) { p.visit(m.id ^ uint64(m.to)<<40) }
		var runUntil func(Time) uint64
		if reference {
			r := &arrivalsReference[progMsg]{ref: laneReference{e: e}, deliver: deliver}
			p.send, runUntil = r.Push, r.RunUntil
		} else {
			q := NewArrivals(e, deliver)
			p.send, runUntil = q.Push, q.RunUntil
		}
		for i := 0; i < 5; i++ {
			p.act(i)
		}
		for _, until := range []Time{0, 2, 3, 9, 20, 1 << 20} {
			events += runUntil(until)
			p.act(int(until % 5)) // at the instant the clock stopped at
		}
		return p.log, e.now, events
	}
	callbacks, arrivals := 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		want, wantNow, wantEvents := run(seed, true)
		got, gotNow, gotEvents := run(seed, false)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d differs from the contract order\n got %v\nwant %v",
					seed, i, got[max(0, i-3):min(len(got), i+2)], want[max(0, i-3):i+1])
			}
			if want[i].id&(1<<63) != 0 {
				arrivals++
			}
		}
		if len(got) != len(want) || gotNow != wantNow || gotEvents != wantEvents {
			t.Fatalf("seed %d: %d callbacks, clock %v, %d events; reference %d, %v, %d",
				seed, len(got), gotNow, gotEvents, len(want), wantNow, wantEvents)
		}
		callbacks += len(want)
	}
	if callbacks < 20000 || arrivals < 4000 {
		t.Fatalf("the programs did not cover the ground: %d callbacks, %d arrivals", callbacks, arrivals)
	}
}

// arrivalDelays are the delays an arrivalsProgram draws from: a few ns,
// so that records tie and land anywhere in the queue, the fleet's
// latency and instants next to it, and one far ahead.
var arrivalDelays = [8]Time{1, 2, 5, 100, 5 * Microsecond, 5*Microsecond + 1, 5*Microsecond + 100, Millisecond}

// arrivalsProgram runs prog on one Env and an arrival queue (Arrivals,
// or arrivalsReference when reference is set) and returns the dispatch
// log, the final clock and the number of events dispatched. Each byte is
// one operation, taken at top level or, one per callback, by the
// callback that runs next. Bits 2-4 pick a delay d from arrivalDelays,
// and the low two bits the operation: a push from sender b>>5 (eight
// senders, so records tie on at both with equal and with different src)
// to arrive at now+d (0 and 1), a local event at now+d-1 (2), or, at top
// level only, RunUntil(now+d) (3). What is queued at the end runs out.
func arrivalsProgram(prog []byte, reference bool) (log []laneRecord, now Time, events uint64) {
	e := NewEnv()
	var (
		push     func(at Time, src uint32, id uint64)
		runUntil func(Time) uint64
		act      func(top bool) bool
		next     int
		lastID   uint64
	)
	visit := func(id uint64) {
		log = append(log, laneRecord{e.now, id})
		act(false)
	}
	act = func(top bool) bool {
		if next == len(prog) {
			return false
		}
		b := prog[next]
		next++
		lastID++
		id, d := lastID, arrivalDelays[b>>2&7]
		switch b & 3 {
		case 0, 1:
			push(e.now+d, uint32(b>>5), id)
		case 2:
			e.At(e.now+d-1, func() { visit(id) })
		case 3:
			if top {
				events += runUntil(e.now + d)
			}
		}
		return true
	}
	if reference {
		r := &arrivalsReference[uint64]{ref: laneReference{e: e}, deliver: visit}
		push, runUntil = r.Push, r.RunUntil
	} else {
		q := NewArrivals(e, visit)
		push, runUntil = q.Push, q.RunUntil
	}
	for act(true) {
	}
	events += runUntil(1 << 62)
	return log, e.now, events
}

// FuzzArrivalsOrder holds Arrivals to arrivalsReference on byte-driven
// programs of pushes, local events and RunUntil steps.
func FuzzArrivalsOrder(f *testing.F) {
	f.Add([]byte{0x10, 0x30, 0x02, 0x0f, 0x04, 0x16, 0x1f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		want, wantNow, wantEvents := arrivalsProgram(prog, true)
		got, gotNow, gotEvents := arrivalsProgram(prog, false)
		if !slices.Equal(got, want) || gotNow != wantNow || gotEvents != wantEvents {
			t.Fatalf("dispatched %v (clock %v, %d events),\nreference %v (clock %v, %d events)",
				got, gotNow, gotEvents, want, wantNow, wantEvents)
		}
	})
}

// tokenRing runs a token-ring workload over nEntities on one Env and
// returns a digest of every entity's observation history. Entities forward
// tokens with value-dependent delays, schedule a local event at the very
// instant each token arrives, and hash (time, value, hops) on every
// receipt — both ordering rules at once.
func tokenRing(nEntities, hops int) uint64 {
	e := NewEnv()
	hash := make([]uint64, nEntities)
	q := NewArrivals(e, func(f func()) { f() })
	var forward func(dst int, v uint64, hop int)
	forward = func(dst int, v uint64, hop int) {
		src := (dst + nEntities - 1) % nEntities
		q.Push(e.Now()+Micros(float64(5+v%7)), uint32(src), func() {
			hash[dst] = hash[dst]*1099511628211 + v + uint64(e.Now()) + uint64(hop)
			e.At(e.Now(), func() { hash[dst] = hash[dst]*31 + 1 })
			if hop < hops {
				forward((dst+1)%nEntities, v+1, hop+1)
			}
		})
	}
	for i := 0; i < nEntities; i++ {
		i := i
		e.Defer(func() { forward((i+1)%nEntities, uint64(i), 0) })
	}
	q.RunUntil(1 << 62)
	var digest uint64
	for i, h := range hash {
		digest = digest*1099511628211 + h + uint64(i)
	}
	e.Close()
	return digest
}

// TestShardCountInvariance holds the token ring on Arrivals to the digest
// the sharded engine produced for it at widths 1, 2, 4 and 8 alike.
func TestShardCountInvariance(t *testing.T) {
	if got := tokenRing(24, 40); got != 0x7b5ce4d55a2fd858 {
		t.Fatalf("token ring digest %#016x, the ShardSet's 0x7b5ce4d55a2fd858", got)
	}
}
