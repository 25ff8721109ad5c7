package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardSet is the sharded form of the discrete-event engine: K shards,
// each owning a private Env, executing on parallel OS threads under a
// conservative (lookahead-based) synchronization protocol with
// deterministic cross-shard message merging.
//
// # Execution model
//
// Simulation state is partitioned: every entity (node, device, queue)
// lives on exactly one shard and is only ever touched by code running on
// that shard's Env. Shards interact exclusively through Sender.Send, which
// delays each message by at least the set's lookahead L.
//
// Execution proceeds in windows. Let N_j be shard j's earliest pending
// event (local or inbound). Any message a shard emits this window is sent
// from an event at time >= N_j and arrives at >= N_j + L, so every shard
// may safely process all events strictly before
//
//	B = min_j(N_j) + L
//
// without ever receiving a message "from the past". Shards run their
// windows concurrently, then meet at a barrier where couplers flush each
// shard's outgoing batch into the destination shards' merge queues, a new
// bound is computed, and the next window begins. The simulation is done
// when every shard is idle and no batch is in flight.
//
// # Determinism
//
// Two rules make the result independent of shard count and thread
// scheduling:
//
//  1. Canonical merge order. Inbound messages are ordered by
//     (time, sender, sender-sequence) — a key derived only from the
//     sending entity's behavior — so the order two messages are applied
//     in never depends on which shards their senders lived on or on when
//     batches happened to cross a barrier.
//  2. Deliveries before local events. At equal timestamps, a shard applies
//     all inbound messages before any locally scheduled event. Without
//     this rule the interleaving would depend on whether a local event was
//     scheduled before or after a barrier, which varies with the window
//     layout and therefore with the shard count.
//
// Under these rules each shard's execution is a pure function of the
// initial state and the canonical message streams, so by induction over
// windows a workload produces bit-identical results at every width —
// including width 1, which is why WithShards(1) still routes messages
// through the same merge discipline.
type ShardSet struct {
	shards    []*Shard
	lookahead Time
	root      *Env
	running   bool
	closed    bool
	// dropped counts deliveries discarded by Close (after the coupler
	// drain), summed over all shards.
	dropped uint64
	// windows counts completed synchronization windows (barrier rounds).
	windows uint64
	// windowHook, when non-nil, observes each shard's non-empty windows
	// (WithWindowHook).
	windowHook WindowHook
	// panics[i] holds what shard i's window panicked with, until the
	// driving goroutine re-raises it (see runWindows).
	panics []interface{}
}

// Shard is one partition of a ShardSet: a private Env plus the inbound
// merge queue and the outbound couplers. All simulation code of a shard
// runs on its Env; cross-shard effects go through Sender.Send only.
type Shard struct {
	set *ShardSet
	id  int
	env *Env
	// merge holds inbound deliveries not yet applied.
	merge mergeQueue
	// out[k] is the coupler to shard k, accumulating this window's
	// outgoing deliveries; flushed into shard k's merge queue at the
	// barrier.
	out []Coupler
	// dispatched counts applied deliveries (they also count as env
	// dispatches; see applyDelivery).
	delivered uint64
}

// Coupler is a directed cross-shard channel: it batches the deliveries one
// shard emits toward another during a window. Couplers are flushed —
// merged into the destination's queue in canonical order — only at
// barriers, so a shard's merge queue is never written while its window
// executes.
type Coupler struct {
	batch []delivery
}

// newShardSet builds the set plus member envs; cfg.shards >= 1.
func newShardSet(cfg envConfig) *ShardSet {
	la := cfg.lookahead
	if la <= 0 {
		la = DefaultLookahead
	}
	ss := &ShardSet{lookahead: la, windowHook: cfg.windowHook, panics: make([]interface{}, cfg.shards)}
	ss.shards = make([]*Shard, cfg.shards)
	for i := range ss.shards {
		sh := &Shard{set: ss, id: i, env: &Env{seed: cfg.seed}}
		sh.env.shard = sh
		sh.out = make([]Coupler, cfg.shards)
		ss.shards[i] = sh
	}
	ss.root = ss.shards[0].env
	return ss
}

// NumShards returns the width of the set.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// Lookahead returns the conservative bound every cross-shard send must
// respect.
func (ss *ShardSet) Lookahead() Time { return ss.lookahead }

// Shard returns shard i.
func (ss *ShardSet) Shard(i int) *Shard { return ss.shards[i] }

// Root returns the root Env (shard 0's), whose Run/RunUntil/Close drive
// the whole set.
func (ss *ShardSet) Root() *Env { return ss.root }

// Windows returns the number of completed synchronization windows, an
// indicator of how well the workload's event density amortizes barriers.
func (ss *ShardSet) Windows() uint64 { return ss.windows }

// DroppedDeliveries returns the number of cross-shard messages dropped by
// Close after the coupler drain.
func (ss *ShardSet) DroppedDeliveries() uint64 { return ss.dropped }

// ID returns the shard's index in the set.
func (sh *Shard) ID() int { return sh.id }

// Env returns the shard's private environment. Schedule local work on it
// freely; its Run, RunUntil, and Close must not be called directly on
// non-root members (drive the set through the root Env instead).
func (sh *Shard) Env() *Env { return sh.env }

// Set returns the owning ShardSet.
func (sh *Shard) Set() *ShardSet { return sh.set }

// Delivered returns the number of cross-shard messages applied on this
// shard so far.
func (sh *Shard) Delivered() uint64 { return sh.delivered }

// Sender stamps cross-shard messages with a stable identity and a running
// sequence number — the canonical merge key. Create one Sender per sending
// entity (e.g. per simulated node) with an id that does not depend on the
// shard layout; the invariance argument leans on the key being a pure
// function of the entity, not of its placement.
type Sender struct {
	shard *Shard
	id    uint32
	seq   uint64
}

// NewSender returns a sender handle owned by this shard. id must be unique
// across the whole set and stable across shard widths (a node ID is the
// canonical choice).
func (sh *Shard) NewSender(id uint32) *Sender {
	return &Sender{shard: sh, id: id}
}

// Send schedules fn to run on shard dst's Env at now + delay. delay must
// be >= the set's lookahead — that is the conservative contract that lets
// shards run ahead of each other safely. fn must touch only dst-shard
// state and must not block. Messages from one Sender preserve their send
// order; messages from different senders arriving at the same instant
// apply in sender-ID order.
//
// Send may target the sender's own shard: same-shard messages take the
// identical merge-queue path (never the local event queue), which is what
// keeps a workload's behavior invariant when a peer that used to be remote
// becomes co-resident at a smaller width.
func (snd *Sender) Send(dst int, delay Time, fn func(*Env)) {
	sh := snd.shard
	if delay < sh.set.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send delay %v below lookahead %v", delay, sh.set.lookahead))
	}
	if sh.set.closed {
		panic("sim: Send on closed ShardSet")
	}
	snd.seq++
	c := &sh.out[dst]
	c.batch = append(c.batch, delivery{
		at:  sh.env.now + delay,
		src: snd.id,
		seq: snd.seq,
		fn:  fn,
	})
}

// PendingDeliveries returns the number of inbound messages queued but not
// yet applied on this shard.
func (sh *Shard) PendingDeliveries() int { return sh.merge.Len() }

// nextTime returns the shard's earliest pending work item — local event or
// inbound delivery — or ok == false when idle.
func (sh *Shard) nextTime() (Time, bool) {
	lt, lok := sh.env.nextTime()
	mt, mok := sh.merge.peek()
	switch {
	case lok && mok:
		if mt < lt {
			return mt, true
		}
		return lt, true
	case lok:
		return lt, true
	case mok:
		return mt, true
	}
	return 0, false
}

// runWindow executes one window, reporting it to the set's window hook
// when one is installed and the window dispatched any events. The hook
// runs on the shard's executing goroutine, so a window's observation cost
// is one nil check when tracing is off.
func (sh *Shard) runWindow(bound Time) {
	hook := sh.set.windowHook
	if hook == nil {
		sh.runWindowEvents(bound)
		return
	}
	start := sh.env.now
	before := sh.env.eventsProcessed
	sh.runWindowEvents(bound)
	if ev := sh.env.eventsProcessed - before; ev > 0 {
		hook(sh.id, start, sh.env.now, ev)
	}
}

// runWindowEvents executes the shard's events strictly before bound,
// interleaving local events and inbound deliveries; at equal timestamps
// deliveries apply first (rule 2 of the determinism argument).
func (sh *Shard) runWindowEvents(bound Time) {
	e := sh.env
	for {
		mt, mok := sh.merge.peek()
		for mok && mt < bound {
			lt, lok := e.nextTime()
			if lok && lt < mt {
				break
			}
			sh.applyDelivery()
			mt, mok = sh.merge.peek()
		}
		lt, lok := e.nextTime()
		if !lok || lt >= bound {
			if !mok || mt >= bound {
				return
			}
			continue
		}
		if mok && mt <= lt {
			continue
		}
		e.Step()
	}
}

// applyDelivery pops the earliest inbound message and runs it at its
// timestamp. A delivery counts as one dispatched event, exactly like the
// local callback it would have been on a single-loop engine.
func (sh *Shard) applyDelivery() {
	d := sh.merge.pop()
	e := sh.env
	e.setNow(d.at)
	e.eventsProcessed++
	sh.delivered++
	d.fn(e)
}

// exchange is the barrier body: flush every coupler into its destination
// merge queue. Iteration order is fixed but irrelevant — the merge queue
// orders by canonical key, not insertion.
func (ss *ShardSet) exchange() (moved bool) {
	for _, src := range ss.shards {
		for dst := range src.out {
			c := &src.out[dst]
			if len(c.batch) == 0 {
				continue
			}
			moved = true
			mq := &ss.shards[dst].merge
			for _, d := range c.batch {
				mq.push(d)
			}
			c.batch = c.batch[:0]
		}
	}
	return moved
}

// runRoot drives the whole set: windows of parallel shard execution
// separated by coupler barriers. With hasUntil, events with timestamps <=
// until execute and every shard's clock then advances to until (RunUntil
// semantics); otherwise the set runs until globally idle. It returns the
// number of events dispatched across all shards.
func (ss *ShardSet) runRoot(e *Env, until Time, hasUntil bool) uint64 {
	if e != ss.root {
		panic("sim: Run/RunUntil on a member shard Env; drive the set through its root Env")
	}
	if ss.running {
		panic("sim: Run is not reentrant")
	}
	if ss.closed {
		return 0
	}
	ss.running = true
	var before uint64
	for _, sh := range ss.shards {
		before += sh.env.eventsProcessed
	}
	defer func() {
		ss.running = false
		for _, sh := range ss.shards {
			sh.env.flushGlobalEvents()
		}
	}()

	for {
		ss.exchange()
		minNext := Time(0)
		idle := true
		for _, sh := range ss.shards {
			if t, ok := sh.nextTime(); ok {
				if idle || t < minNext {
					minNext = t
				}
				idle = false
			}
		}
		if idle {
			break
		}
		if hasUntil && minNext > until {
			break
		}
		bound := minNext + ss.lookahead
		if hasUntil && bound > until+1 {
			// RunUntil is inclusive: events exactly at until execute, so
			// the window bound (exclusive) is capped at until+1ns.
			bound = until + 1
		}
		ss.runWindows(bound)
		ss.windows++
	}

	var after uint64
	for _, sh := range ss.shards {
		if hasUntil && sh.env.now < until {
			sh.env.setNow(until)
		}
		after += sh.env.eventsProcessed
	}
	return after - before
}

// runWindows executes one window on every shard, using up to
// min(GOMAXPROCS, K) OS threads: the driving goroutine and workers claim
// shard indices from a shared counter, so stragglers don't serialize
// behind a fixed assignment. On a single-processor runtime (or a
// single-shard set) the windows run inline — parallel dispatch would be
// pure scheduling overhead there, and because shards are independent
// within a window the execution strategy cannot affect the result.
//
// Shard state is touched only by the goroutine that claimed it during the
// window; the WaitGroup provides the happens-before edges for the barrier
// that follows. A panic inside any shard (a workload bug surfacing) is
// re-raised on the driving goroutine once all shards have stopped; when
// several shards panic in one window the lowest-numbered shard's panic
// wins, so the reported failure is stable across runs.
func (ss *ShardSet) runWindows(bound Time) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ss.shards) {
		workers = len(ss.shards)
	}
	if workers <= 1 {
		for _, sh := range ss.shards {
			sh.runWindow(bound)
		}
		return
	}
	var next atomic.Int32
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ss.shards) {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						ss.panics[i] = r
					}
				}()
				ss.shards[i].runWindow(bound)
			}()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	for _, p := range ss.panics {
		if p != nil {
			clear(ss.panics)
			panic(p)
		}
	}
}

// closeRoot implements Close for sharded environments: drain the couplers
// so every in-flight batch reaches its destination queue, account and drop
// the undelivered messages, then close each member env (dropping its local
// events). Idempotent.
func (ss *ShardSet) closeRoot(e *Env) {
	if e != ss.root {
		panic("sim: Close on a member shard Env; close the set through its root Env")
	}
	if ss.running {
		panic("sim: Close is not reentrant with Run or RunUntil")
	}
	if ss.closed {
		return
	}
	// Drain couplers first: undelivered messages are dropped from their
	// destination's merge queue, not lost in a buffer, so the drop
	// accounting below is exact and per-destination.
	ss.exchange()
	for _, sh := range ss.shards {
		ss.dropped += uint64(sh.merge.Len())
		sh.merge = mergeQueue{}
		sh.env.closeLocal()
	}
	ss.closed = true
}
