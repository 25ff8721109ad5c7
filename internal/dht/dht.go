// Package dht implements Rocket's third cache level (paper §4.1.3): a
// best-effort distributed lookup that lets a node fetch an already-loaded
// item from a peer's host cache instead of re-executing the load pipeline.
//
// Every item i has a mediator node (i mod p) that keeps a small
// bookkeeping list candidates[i] of the h nodes that most recently
// requested i — the nodes most likely to still hold it. A request visits
// the mediator and then walks at most h candidates; the first candidate
// with the item in its host cache sends the data directly to the
// requester, otherwise the requester receives a failure and falls back to
// loading the item itself. Each request costs at most h+2 messages and the
// scheme has no central component.
package dht

import (
	"fmt"

	"rocket/internal/sim"
)

// Kind tells the three protocol messages apart.
type Kind uint8

const (
	// KindRequest is sent by the requester to the item's mediator.
	KindRequest Kind = iota + 1
	// KindForward carries the request along the candidate chain.
	KindForward
	// KindReply terminates a request: either a candidate found the item
	// or the search failed.
	KindReply
)

// Msg is the wire record of the protocol; it travels, by pointer, as the
// payload of a cluster message. One record carries a lookup through its
// whole life: the requester's Lookup holds it, the mediator turns the
// Request it received into the Forward it sends on, each candidate
// advances it or turns it into the Reply, and it is at rest again when the
// lookup resolves: nothing is allocated or freed per message.
type Msg struct {
	Kind      Kind
	ID        uint64
	Item      int
	Requester int
	// Chain lists the candidates a Forward has yet to visit, in the
	// record's own backing array.
	Chain []int
	// Hop is 1-based: the first candidate contacted sees Hop == 1; a
	// Reply reports the hop the item was found (or the walk ended) at.
	Hop int
	// Hit and Data are a Reply's outcome.
	Hit  bool
	Data interface{}
}

// SendFunc transmits a message of the given size to a peer node without
// blocking the caller beyond local bookkeeping (the core runtime wires
// this to an asynchronous network send, which runs as a callback chain).
type SendFunc func(e *sim.Env, to int, size int64, m *Msg)

// LookupFunc checks the local host cache for an item and returns its
// payload. In synthetic (cost-model) runs the payload is nil and only the
// boolean matters.
type LookupFunc func(item int) (interface{}, bool)

// AliveFunc reports whether a peer node is currently reachable. It backs
// the engine's failure routing: fetches to a dead mediator resolve as
// immediate misses, and mediators skip dead candidates when forwarding.
// A nil AliveFunc means every node is always alive.
type AliveFunc func(node int) bool

// Config parameterizes an Engine.
type Config struct {
	NodeID   int
	NumNodes int
	// NumItems, when known, sizes the mediator's table once for the items
	// below it; otherwise, and for items beyond it, the table grows as
	// requests arrive.
	NumItems int
	// Hops is the paper's h: the maximum number of candidates visited.
	Hops int
	// CtrlSize is the wire size of control messages (request/forward/fail).
	CtrlSize int64
	// DataSize is the wire size of one item payload (the cache slot size).
	DataSize int64
	Send     SendFunc
	Lookup   LookupFunc
	// Alive, when non-nil, lets the protocol route around dead nodes
	// (fault injection); nil preserves the failure-free behavior exactly.
	Alive AliveFunc
}

// Metrics counts request outcomes observed at the requester side.
type Metrics struct {
	Requests uint64
	// HitAtHop[k] counts hits served by the (k+1)-th candidate.
	HitAtHop []uint64
	Misses   uint64
	// StaleReplies counts replies for requests no longer pending —
	// duplicates, or answers to lookups a crash already resolved. They
	// are dropped, not errors: a node that crashed and restarted has
	// legitimately forgotten its pending table.
	StaleReplies uint64
}

// Lookup is the requester-side state of one fetch, wire record included.
// It lives in the caller's own (pooled) object: the caller binds Resume
// once, passes the Lookup to Fetch, and reads the outcome when Resume
// runs. A Lookup serves one fetch at a time.
type Lookup struct {
	// Resume continues the caller once the lookup has resolved: deferred
	// one event after the reply (or the drop notification) arrives, or
	// called inline by Fetch when the mediator is known to be dead.
	Resume func()
	// Data, Hop and Hit are the outcome: the payload, the 1-based hop the
	// item was found at, and whether it was found at all. On a miss the
	// caller must execute the load pipeline locally.
	Data interface{}
	Hop  int
	Hit  bool

	// id is the request ID while the lookup is pending, zero otherwise.
	id  uint64
	msg Msg
}

// Pending reports whether a fetch on lk is still unresolved.
func (lk *Lookup) Pending() bool { return lk.id != 0 }

// Engine is the per-node protocol state machine. One engine instance
// handles both roles: client (Fetch) and server (Handle, called by the
// node's message loop for every inbound protocol message).
type Engine struct {
	cfg Config
	// candidates holds the mediator bookkeeping for the items this node is
	// responsible for (item mod p == NodeID), indexed by item / p: its
	// items are every p-th one, so the table is dense. An item never
	// requested has a nil list.
	candidates [][]int
	// pending is the table of unresolved lookups. A request ID is the
	// lookup's index here below a sequence number no other lookup of this
	// engine shares: a reply finds its lookup in one step, and a reply to
	// one already resolved, failed, or lost to Reset matches nothing.
	pending []*Lookup
	free    []uint32
	seq     uint64
	metrics Metrics
}

// New validates cfg and returns an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.NumNodes < 1 {
		return nil, fmt.Errorf("dht: NumNodes %d < 1", cfg.NumNodes)
	}
	if cfg.NodeID < 0 || cfg.NodeID >= cfg.NumNodes {
		return nil, fmt.Errorf("dht: NodeID %d out of range [0, %d)", cfg.NodeID, cfg.NumNodes)
	}
	if cfg.Hops < 1 {
		return nil, fmt.Errorf("dht: Hops %d < 1", cfg.Hops)
	}
	if cfg.Send == nil || cfg.Lookup == nil {
		return nil, fmt.Errorf("dht: Send and Lookup are required")
	}
	e := &Engine{cfg: cfg}
	e.Reset()
	return e, nil
}

// Reset forgets what a crash loses — candidate lists, pending table,
// counters — so the node rejoins cold. The request sequence survives: a
// reply addressed to the old incarnation never matches a new lookup.
func (e *Engine) Reset() {
	for _, lk := range e.pending {
		if lk != nil {
			lk.id = 0
		}
	}
	e.pending, e.free = nil, nil
	e.candidates = make([][]int, (e.cfg.NumItems+e.cfg.NumNodes-1)/e.cfg.NumNodes)
	e.metrics = Metrics{HitAtHop: make([]uint64, e.cfg.Hops)}
}

// Metrics returns a copy of the outcome counters.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.HitAtHop = append([]uint64(nil), e.metrics.HitAtHop...)
	return m
}

// CandidateList returns the mediator's current candidate list for an item
// (nil when unknown). Exposed for tests and introspection.
func (e *Engine) CandidateList(item int) []int {
	if k := item / e.cfg.NumNodes; item%e.cfg.NumNodes == e.cfg.NodeID && k < len(e.candidates) {
		return append([]int(nil), e.candidates[k]...)
	}
	return nil
}

// alive reports reachability of a peer (always true without an AliveFunc).
func (e *Engine) alive(node int) bool {
	return e.cfg.Alive == nil || e.cfg.Alive(node)
}

// Fetch performs a distributed lookup for item on behalf of lk: it
// registers lk as pending and sends the request to the mediator;
// lk.Resume runs once the outcome is in lk. A dead mediator resolves as an
// immediate local miss, without spending a message.
func (e *Engine) Fetch(env *sim.Env, item int, lk *Lookup) {
	if lk.id != 0 {
		panic(fmt.Sprintf("dht: lookup of item %d started on a Lookup still pending as request %d", item, lk.id))
	}
	e.metrics.Requests++
	mediator := item % e.cfg.NumNodes
	if !e.alive(mediator) {
		e.resolve(lk, nil)
		lk.Resume()
		return
	}
	var slot uint32
	if k := len(e.free); k > 0 {
		slot = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		slot = uint32(len(e.pending))
		e.pending = append(e.pending, nil)
	}
	e.seq++
	lk.id = e.seq<<32 | uint64(slot)
	e.pending[slot] = lk
	lk.msg = Msg{Kind: KindRequest, ID: lk.id, Item: item, Requester: e.cfg.NodeID, Chain: lk.msg.Chain[:0]}
	e.cfg.Send(env, mediator, e.cfg.CtrlSize, &lk.msg)
}

// settle resolves the pending lookup of request id with rep (nil: a miss
// that never got a reply) and resumes its caller one event later; false
// when there is none: the request already resolved, or a crash forgot it.
func (e *Engine) settle(env *sim.Env, id uint64, rep *Msg) bool {
	slot := uint32(id)
	if int(slot) >= len(e.pending) || e.pending[slot] == nil || e.pending[slot].id != id {
		return false
	}
	lk := e.pending[slot]
	e.pending[slot] = nil
	e.free = append(e.free, slot)
	lk.id = 0
	e.resolve(lk, rep)
	env.Defer(lk.Resume)
	return true
}

// resolve records the outcome of a lookup — a Reply, or nil for a miss
// that never got one — in lk and in the counters.
func (e *Engine) resolve(lk *Lookup, rep *Msg) {
	if rep == nil || !rep.Hit {
		lk.Data, lk.Hop, lk.Hit = nil, 0, false
		e.metrics.Misses++
		return
	}
	lk.Data, lk.Hop, lk.Hit = rep.Data, rep.Hop, true
	rep.Data = nil
	if rep.Hop >= 1 && rep.Hop <= e.cfg.Hops {
		e.metrics.HitAtHop[rep.Hop-1]++
	}
}

// FailPending resolves a pending fetch as a miss. The runtime calls it
// when the fabric drops a message carrying the lookup, so the requester
// falls back to loading instead of hanging. Unknown IDs are ignored.
func (e *Engine) FailPending(env *sim.Env, id uint64) { e.settle(env, id, nil) }

// Handle processes one inbound protocol message: it sends the record on
// as the next message of the lookup or, for a Reply, resolves the lookup.
// It never blocks on the network: all sends go through SendFunc.
func (e *Engine) Handle(env *sim.Env, m *Msg) {
	switch m.Kind {
	case KindRequest:
		e.handleRequest(env, m)
	case KindForward:
		e.handleForward(env, m)
	case KindReply:
		e.handleReply(env, m)
	default:
		panic(fmt.Sprintf("dht: node %d received a message of kind %d", e.cfg.NodeID, m.Kind))
	}
}

// handleRequest implements the mediator role. Dead candidates are dropped
// from the walk (the fault layer's routing): the request visits only
// reachable nodes, and an all-dead candidate list is an immediate miss.
func (e *Engine) handleRequest(env *sim.Env, m *Msg) {
	if m.Item%e.cfg.NumNodes != e.cfg.NodeID {
		panic(fmt.Sprintf("dht: node %d received request for item %d mediated by node %d",
			e.cfg.NodeID, m.Item, m.Item%e.cfg.NumNodes))
	}
	// The walk visits the candidates as they stand before this request.
	k := m.Item / e.cfg.NumNodes
	if k >= len(e.candidates) {
		e.candidates = append(e.candidates, make([][]int, k+1-len(e.candidates))...)
	}
	list := e.candidates[k]
	m.Chain = m.Chain[:0]
	for _, n := range list {
		if e.alive(n) {
			m.Chain = append(m.Chain, n)
		}
	}
	// Record the requester as the most recent (and thus most likely future)
	// holder, deduplicating and bounding the list at h entries.
	if list == nil {
		list = make([]int, 0, e.cfg.Hops)
	}
	e.candidates[k] = prepend(list, m.Requester, e.cfg.Hops)
	e.forward(env, m, 1)
}

// forward sends m on to the next reachable candidate of its chain as hop
// number hop, or back to the requester as a miss when none is left.
// Candidates that died after the chain was built are skipped; Hop counts
// nodes actually visited, so HitAtHop keeps measuring real message cost.
func (e *Engine) forward(env *sim.Env, m *Msg, hop int) {
	k := 0
	for k < len(m.Chain) && !e.alive(m.Chain[k]) {
		k++
	}
	if k == len(m.Chain) {
		m.Kind, m.Chain = KindReply, m.Chain[:0]
		e.cfg.Send(env, m.Requester, e.cfg.CtrlSize, m)
		return
	}
	next := m.Chain[k]
	m.Chain = m.Chain[:copy(m.Chain, m.Chain[k+1:])]
	m.Kind, m.Hop = KindForward, hop
	e.cfg.Send(env, next, e.cfg.CtrlSize, m)
}

// handleForward implements the candidate role.
func (e *Engine) handleForward(env *sim.Env, m *Msg) {
	if data, ok := e.cfg.Lookup(m.Item); ok {
		m.Kind, m.Chain, m.Hit, m.Data = KindReply, m.Chain[:0], true, data
		e.cfg.Send(env, m.Requester, e.cfg.DataSize, m)
		return
	}
	e.forward(env, m, m.Hop+1)
}

// handleReply completes a pending Fetch. Replies for IDs no longer pending
// are stale — the requester crashed and restarted (losing its pending
// table), or the fetch was already failed by a message drop — and are
// counted and discarded rather than treated as fatal.
func (e *Engine) handleReply(env *sim.Env, m *Msg) {
	if !e.settle(env, m.ID, m) {
		e.metrics.StaleReplies++
	}
}

// prepend moves v to the front of list in place, inserting it when absent
// and dropping the last entry of a list already max long. list must have
// capacity max.
func prepend(list []int, v, max int) []int {
	at := len(list)
	for i, x := range list {
		if x == v {
			at = i
			break
		}
	}
	if at == len(list) {
		if at < max {
			list = list[:at+1]
		} else {
			at--
		}
	}
	copy(list[1:at+1], list[:at])
	list[0] = v
	return list
}
