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
// resources, mailbox sends and receives, signal waits and fires, and (on a
// ShardSet) messages to its peers. Its choices come from its own generator
// in the order its callbacks run, so two engines that dispatch in the same
// order produce the same log and any difference in order snowballs.
type laneProgram struct {
	e      *Env
	rng    *rand.Rand
	budget int
	nextID uint64
	log    []laneRecord
	res    [2]*Resource
	mb     [2]*Mailbox[uint64]
	sig    *Signal
	argFn  func(id uint64)
	// snd and peers are set on a ShardSet only.
	snd       *Sender
	lookahead Time
	peers     []*laneProgram
	shardOf   func(entity int) int
}

type laneRecord struct {
	at Time
	id uint64
}

func newLaneProgram(e *Env, seed int64, budget int) *laneProgram {
	p := &laneProgram{e: e, rng: rand.New(rand.NewSource(seed)), budget: budget, sig: NewSignal()}
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
	if p.snd != nil {
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
		p.sig.OnFire(e, func() { p.visit(id) })
	case 8:
		p.sig.Fire(e)
		p.sig = NewSignal()
	case 9:
		to := p.rng.Intn(len(p.peers))
		peer := p.peers[to]
		p.snd.Send(p.shardOf(to), p.lookahead+d, func(*Env) { peer.visit(id | 1<<63) })
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
// pending events, stretches of single Steps, and at the end either a run
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
// hands Step a queue holding that one entry.
type laneReference struct {
	e       *Env
	pending []eventRef
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
			r.pending = append(r.pending, eventRef{at: e.now, seq: seq, idx: q.lane.Pop()})
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
	return r.e.Step()
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
// every program, Step dispatches in exactly the order a queue sorted by
// (at, seq) alone would.
func TestLaneDispatchesInAtSeqOrder(t *testing.T) {
	var lanePushes, heapPushes uint64
	closedWithLane, callbacks := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		ref := &laneReference{e: NewEnv()}
		want, _ := driveLaneProgram(ref.e, seed, ref.driver())

		e := NewEnv()
		got, laneAtClose := driveLaneProgram(e, seed, laneDriver{step: e.Step, runUntil: e.RunUntil, pending: e.PendingEvents})
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

// The same kind of program, four entities of it exchanging messages,
// behaves identically on a ShardSet of any width: each entity logs the
// same callbacks at the same instants whether its peers share its shard,
// and so its lane, or not.
func TestLaneProgramIsShardWidthInvariant(t *testing.T) {
	const entities = 4
	run := func(seed int64, width int) (logs [entities][]laneRecord, events uint64) {
		root := NewEnv(WithShards(width))
		ss := root.Sharded()
		shardOf := func(entity int) int { return entity % width }
		progs := make([]*laneProgram, entities)
		for i := range progs {
			sh := ss.Shard(shardOf(i))
			p := newLaneProgram(sh.Env(), seed*entities+int64(i), 150)
			p.snd, p.lookahead, p.peers, p.shardOf = sh.NewSender(uint32(i)), ss.Lookahead(), progs, shardOf
			progs[i] = p
		}
		kick := func() {
			for _, p := range progs {
				p.act()
				p.act()
			}
		}
		kick()
		for _, until := range []Time{0, 2, ss.Lookahead(), ss.Lookahead() + 3, 3 * ss.Lookahead()} {
			root.RunUntil(until)
			kick() // at the instant every shard's clock stopped at
		}
		if seed%2 == 0 {
			root.Close() // with every entity's last burst still in its lane
		} else {
			root.Run()
		}
		for i, p := range progs {
			logs[i] = p.log
		}
		for i := 0; i < width; i++ {
			events += ss.Shard(i).Env().eventsProcessed
		}
		return logs, events
	}
	callbacks := 0
	for seed := int64(1); seed <= 40; seed++ {
		want, wantEvents := run(seed, 1)
		for _, width := range []int{2, 4} {
			got, gotEvents := run(seed, width)
			for i := range want {
				callbacks += len(want[i])
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("seed %d: entity %d at width %d\n got %v\nwant %v", seed, i, width, got[i], want[i])
				}
			}
			if gotEvents != wantEvents {
				t.Fatalf("seed %d: %d events at width %d, %d at width 1", seed, gotEvents, width, wantEvents)
			}
		}
	}
	if callbacks < 20000 {
		t.Fatalf("the programs logged only %d callbacks", callbacks)
	}
}
