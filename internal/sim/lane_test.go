package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// laneProgram is one entity of a seeded random program: every callback it
// is handed logs itself and then, while the budget lasts, schedules more
// work through a randomly chosen primitive — plain and argument callbacks
// now and later, timed holds and plain acquisitions on contended
// resources, mailbox sends and receives, signal waits and fires, and
// (with send set) messages to its peers. Its choices come from its own
// generator in the order its callbacks run, so two engines that dispatch
// in the same order produce the same log and any difference in order
// snowballs.
type laneProgram struct {
	e      *Env
	rng    *rand.Rand
	budget int
	nextID uint64
	log    []laneRecord
	res    [2]*Resource
	mb     [2]*Mailbox[uint64]
	// sig holds the waiters of the current broadcast: a fire defers
	// each, in registration order, and starts a new one.
	sig   []func()
	argFn func(id uint64)
	// send, src and peers are set when entities exchange messages.
	send  func(at Time, src uint32, m laneMsg)
	src   uint32
	peers int
}

// laneMsg is a message from one laneProgram entity to another.
type laneMsg struct {
	to int
	id uint64
}

// laneLatency is the latency of a laneProgram message on top of the drawn
// delay: the default fabric latency, as in the fleet.
const laneLatency = 5 * Microsecond

type laneRecord struct {
	at Time
	id uint64
}

func newLaneProgram(e *Env, seed int64, budget int) *laneProgram {
	p := &laneProgram{e: e, rng: rand.New(rand.NewSource(seed)), budget: budget}
	p.argFn = p.visit
	for i := range p.res {
		p.res[i] = NewResource("r", 1+i)
		p.mb[i] = NewMailbox[uint64]("m")
	}
	return p
}

// visit is what every callback of the program comes down to.
func (p *laneProgram) visit(id uint64) {
	p.log = append(p.log, laneRecord{p.e.now, id})
	for k := p.rng.Intn(4); k > 0 && p.budget > 0; k-- {
		p.act()
	}
}

// act schedules one piece of work. Delays are drawn so that most events
// land on the current instant or on an instant that already holds some.
func (p *laneProgram) act() {
	p.budget--
	p.nextID++
	e, id := p.e, p.nextID
	d := []Time{0, 0, 0, 1, 1, 2, 5}[p.rng.Intn(7)]
	kinds := 9
	if p.send != nil {
		kinds = 10
	}
	switch p.rng.Intn(kinds) {
	case 0:
		e.At(e.now+d, func() { p.visit(id) })
	case 1:
		e.AtArg(e.now+d, p.argFn, id)
	case 2:
		e.Defer(func() { p.visit(id) })
	case 3:
		p.res[id%2].UseFunc(e, d, func(start Time) { p.visit(id ^ uint64(start)<<32) })
	case 4:
		r := p.res[id%2]
		r.AcquireFunc(e, func() {
			p.visit(id)
			if d == 0 {
				r.Release(e)
			} else {
				e.After(d, func() { r.Release(e) })
			}
		})
	case 5:
		p.mb[id%2].Send(e, id)
	case 6:
		p.mb[id%2].RecvFunc(e, func(v uint64) { p.visit(id ^ v<<32) })
	case 7:
		p.sig = append(p.sig, func() { p.visit(id) })
	case 8:
		for _, fn := range p.sig {
			e.Defer(fn)
		}
		p.sig = nil
	case 9:
		p.send(e.now+laneLatency+d, p.src, laneMsg{to: p.rng.Intn(p.peers), id: id | 1<<63})
	}
}

// laneDriver is how a program's top level advances an engine.
type laneDriver struct {
	step     func() bool
	runUntil func(t Time) uint64
	pending  func() int
}

// laneOutcome is everything a run lets an observer see.
type laneOutcome struct {
	log       []laneRecord
	boundary  []uint64 // RunUntil's return values and the pending counts around them
	now       Time
	processed uint64
	pushes    uint64
}

// driveLaneProgram runs the program of a seed on e through drv: bursts of
// top-level scheduling (at time zero, and at every instant a RunUntil
// stopped the clock at), RunUntil to boundaries before, on and after
// pending events, stretches of single steps, and at the end either a run
// to completion or a Close with work still queued.
func driveLaneProgram(e *Env, seed int64, drv laneDriver) (out laneOutcome, laneAtClose int) {
	p := newLaneProgram(e, seed, 400)
	for i := 0; i < 8; i++ {
		p.act()
	}
	for round := 0; round < 8; round++ {
		switch p.rng.Intn(3) {
		case 0:
			for k := p.rng.Intn(20); k > 0 && drv.step(); k-- {
			}
		case 1:
			out.boundary = append(out.boundary, drv.runUntil(e.now+Time(p.rng.Intn(4))))
		case 2:
			// Stop the clock, then schedule at the instant it stopped at.
			out.boundary = append(out.boundary, drv.runUntil(e.now+Time(p.rng.Intn(3))))
			p.act()
		}
		p.act()
		out.boundary = append(out.boundary, uint64(drv.pending()))
	}
	if seed%2 == 0 {
		out.boundary = append(out.boundary, uint64(drv.pending()))
		laneAtClose = e.events.lane.Len()
		e.Close()
		if drv.step() || e.PendingEvents() != 0 {
			panic("a closed Env still dispatches")
		}
	} else {
		for drv.step() {
		}
	}
	out.log, out.now, out.processed, out.pushes = p.log, e.now, e.eventsProcessed, e.seq
	return out, laneAtClose
}

// laneReference drives an Env in an order that owes nothing to the lane
// or to the heap: it keeps every queued event in a plain list under the
// (at, seq) it was pushed with, finds the minimum by a linear scan, and
// hands step a queue holding that one entry.
type laneReference struct {
	e       *Env
	pending []key
	seen    uint64 // pushes collected so far
}

// collect moves the events pushed since the last call out of the Env's
// queue. Between two calls the clock does not move, so whatever the lane
// holds was pushed for e.now; the heap entries name their seqs, and the
// pushes they leave over are the lane's, in its FIFO order.
func (r *laneReference) collect() {
	e, q := r.e, &r.e.events
	if e.closed {
		r.pending = nil
		return
	}
	inHeap := map[uint64]bool{}
	for _, ref := range q.heap {
		inHeap[ref.seq] = true
	}
	r.pending = append(r.pending, q.heap...)
	q.heap = q.heap[:0]
	for seq := r.seen + 1; seq <= e.seq; seq++ {
		if !inHeap[seq] {
			r.pending = append(r.pending, key{at: e.now, seq: seq, idx: q.lane.Pop()})
		}
	}
	if q.lane.Len() != 0 {
		panic("more lane entries than pushes")
	}
	r.seen = e.seq
}

// min returns the index of the (at, seq)-least pending event.
func (r *laneReference) min() int {
	m := 0
	for i, ref := range r.pending {
		if b := r.pending[m]; ref.at < b.at || ref.at == b.at && ref.seq < b.seq {
			m = i
		}
	}
	return m
}

func (r *laneReference) step() bool {
	r.collect()
	if len(r.pending) == 0 {
		return false
	}
	m := r.min()
	r.e.events.heap = append(r.e.events.heap, r.pending[m])
	r.pending = slices.Delete(r.pending, m, m+1)
	return r.e.step()
}

func (r *laneReference) runUntil(t Time) uint64 {
	start := r.e.eventsProcessed
	for r.collect(); len(r.pending) > 0 && r.pending[r.min()].at <= t; r.collect() {
		r.step()
	}
	if r.e.now < t {
		r.e.now = t
	}
	return r.e.eventsProcessed - start
}

func (r *laneReference) driver() laneDriver {
	return laneDriver{step: r.step, runUntil: r.runUntil, pending: func() int {
		r.collect()
		return len(r.pending)
	}}
}

// The queue's claim is that the lane changes nothing but the cost: for
// every program, step dispatches in exactly the order a queue sorted by
// (at, seq) alone would.
func TestLaneDispatchesInAtSeqOrder(t *testing.T) {
	var lanePushes, heapPushes uint64
	closedWithLane, callbacks := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		ref := &laneReference{e: NewEnv()}
		want, _ := driveLaneProgram(ref.e, seed, ref.driver())

		e := NewEnv()
		got, laneAtClose := driveLaneProgram(e, seed, laneDriver{step: e.step, runUntil: e.RunUntil, pending: e.PendingEvents})
		if laneAtClose > 0 {
			closedWithLane++
		}
		lanePushes += e.LanePushes()
		heapPushes += e.HeapPushes()

		callbacks += len(want.log)
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: dispatch %d differs from the (at, seq) order\n got %v\nwant %v",
					seed, i, got.log[max(0, i-3):min(len(got.log), i+2)], want.log[max(0, i-3):i+1])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: same callbacks, different bookkeeping:\n got boundaries %v, now %v, %d events, %d pushes\nwant boundaries %v, now %v, %d events, %d pushes",
				seed, got.boundary, got.now, got.processed, got.pushes, want.boundary, want.now, want.processed, want.pushes)
		}
	}
	if callbacks < 20000 || lanePushes < 10000 || heapPushes < 10000 || closedWithLane < 10 {
		t.Fatalf("the programs did not cover the ground: %d callbacks, %d lane pushes, %d heap pushes, %d Envs closed with a non-empty lane",
			callbacks, lanePushes, heapPushes, closedWithLane)
	}
	t.Logf("%d callbacks, %d lane pushes, %d heap pushes, %d Envs closed with a non-empty lane", callbacks, lanePushes, heapPushes, closedWithLane)
}

// The same kind of program, four entities of it exchanging messages
// through Arrivals on one Env, logs exactly what it logged on a ShardSet
// of width 1, 2 or 4 before the sharded engine was removed: the digest
// below was the same at every width. Whether a peer's messages and local
// events share a lane or not, each entity sees the same callbacks at the
// same instants.
func TestLaneProgramIsShardWidthInvariant(t *testing.T) {
	const entities = 4
	run := func(seed int64) (h uint64, callbacks int) {
		e := NewEnv()
		progs := make([]*laneProgram, entities)
		q := NewArrivals(e, func(m laneMsg) { progs[m.to].visit(m.id) })
		for i := range progs {
			p := newLaneProgram(e, seed*entities+int64(i), 150)
			p.send, p.src, p.peers = q.Push, uint32(i), entities
			progs[i] = p
		}
		kick := func() {
			for _, p := range progs {
				p.act()
				p.act()
			}
		}
		kick()
		for _, until := range []Time{0, 2, laneLatency, laneLatency + 3, 3 * laneLatency} {
			q.RunUntil(until)
			kick() // at the instant the clock stopped at
		}
		if seed%2 == 0 {
			e.Close() // with every entity's last burst still queued
		} else {
			q.RunUntil(1 << 62)
		}
		for _, p := range progs {
			callbacks += len(p.log)
			h = h*1099511628211 + uint64(len(p.log))
			for _, r := range p.log {
				h = (h*1099511628211^uint64(r.at))*1099511628211 ^ r.id
			}
		}
		return h*1099511628211 + e.eventsProcessed, callbacks
	}
	var digest uint64
	callbacks := 0
	for seed := int64(1); seed <= 40; seed++ {
		h, n := run(seed)
		digest = digest*31 + h
		callbacks += n
	}
	if digest != 0xc463236e8b356912 {
		t.Fatalf("40 programs digest to %#016x, the ShardSet's to 0xc463236e8b356912", digest)
	}
	if callbacks < 15000 {
		t.Fatalf("the programs logged only %d callbacks", callbacks)
	}
}
