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

// Message types exchanged by the protocol. They travel as payloads of
// cluster messages.
type (
	// Request is sent by the requester to the item's mediator.
	Request struct {
		ID        uint64
		Item      int
		Requester int
	}
	// Forward carries the request along the candidate chain. Hop is
	// 1-based: the first candidate contacted sees Hop == 1.
	Forward struct {
		ID        uint64
		Item      int
		Requester int
		Chain     []int
		Hop       int
	}
	// Reply terminates a request: either a candidate found the item (Hit,
	// with Data and the Hop it was found at) or the search failed.
	Reply struct {
		ID   uint64
		Item int
		Hit  bool
		Hop  int
		Data interface{}
	}
)

// SendFunc transmits a payload of the given size to a peer node without
// blocking the caller beyond local bookkeeping (the core runtime wires
// this to an asynchronous network send, which runs as a callback chain).
type SendFunc func(e *sim.Env, to int, size int64, payload interface{})

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

// Engine is the per-node protocol state machine. One engine instance
// handles both roles: client (Fetch) and server (Handle, called by the
// node's message loop for every inbound protocol message).
type Engine struct {
	cfg Config
	// candidates holds the mediator bookkeeping for items this node is
	// responsible for (item mod p == NodeID).
	candidates map[int][]int
	pending    map[uint64]*sim.Signal
	nextID     uint64
	metrics    Metrics
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
	return &Engine{
		cfg:        cfg,
		candidates: make(map[int][]int),
		pending:    make(map[uint64]*sim.Signal),
		metrics:    Metrics{HitAtHop: make([]uint64, cfg.Hops)},
	}, nil
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
	return append([]int(nil), e.candidates[item]...)
}

// FetchFunc performs a distributed lookup for item: fn receives the
// payload, the hop the item was found at (1-based), and the success flag
// once the reply arrives. On failure the caller must execute the load
// pipeline locally. fn must not block.
func (e *Engine) FetchFunc(env *sim.Env, item int, fn func(data interface{}, hop int, ok bool)) {
	sig := e.beginFetch(env, item)
	sig.OnFire(env, func() {
		fn(e.endFetch(sig.Value.(Reply)))
	})
}

// alive reports reachability of a peer (always true without an AliveFunc).
func (e *Engine) alive(node int) bool {
	return e.cfg.Alive == nil || e.cfg.Alive(node)
}

// beginFetch registers a pending request, sends it to the mediator, and
// returns the signal the reply will fire. A dead mediator resolves as an
// immediate local miss: the requester routes around it and falls back to
// the load pipeline without spending a message.
func (e *Engine) beginFetch(env *sim.Env, item int) *sim.Signal {
	e.metrics.Requests++
	e.nextID++
	id := e.nextID
	sig := sim.NewSignal()
	mediator := item % e.cfg.NumNodes
	if !e.alive(mediator) {
		sig.Value = Reply{ID: id, Item: item}
		sig.Fire(env)
		return sig
	}
	e.pending[id] = sig
	e.cfg.Send(env, mediator, e.cfg.CtrlSize, Request{ID: id, Item: item, Requester: e.cfg.NodeID})
	return sig
}

// FailPending resolves a pending fetch as a miss. The runtime calls it
// when the fabric drops a Request or Forward carrying the lookup (the
// mediator or a candidate died with the message in flight), so the
// requester falls back to loading instead of hanging. Unknown IDs are
// ignored (the fetch may have resolved through another path).
func (e *Engine) FailPending(env *sim.Env, id uint64) {
	sig, ok := e.pending[id]
	if !ok {
		return
	}
	delete(e.pending, id)
	sig.Value = Reply{ID: id}
	sig.Fire(env)
}

// endFetch accounts a reply and unpacks it.
func (e *Engine) endFetch(rep Reply) (interface{}, int, bool) {
	if !rep.Hit {
		e.metrics.Misses++
		return nil, 0, false
	}
	if rep.Hop >= 1 && rep.Hop <= e.cfg.Hops {
		e.metrics.HitAtHop[rep.Hop-1]++
	}
	return rep.Data, rep.Hop, true
}

// Handle processes one inbound protocol message and returns true if the
// payload was a DHT message. It never blocks on the network: all sends go
// through the asynchronous SendFunc.
func (e *Engine) Handle(env *sim.Env, payload interface{}) bool {
	switch m := payload.(type) {
	case Request:
		e.handleRequest(env, m)
	case Forward:
		e.handleForward(env, m)
	case Reply:
		e.handleReply(env, m)
	default:
		return false
	}
	return true
}

// handleRequest implements the mediator role. Dead candidates are dropped
// from the walk (the fault layer's routing): the request visits only
// reachable nodes, and an all-dead candidate list is an immediate miss.
func (e *Engine) handleRequest(env *sim.Env, m Request) {
	if m.Item%e.cfg.NumNodes != e.cfg.NodeID {
		panic(fmt.Sprintf("dht: node %d received request for item %d mediated by node %d",
			e.cfg.NodeID, m.Item, m.Item%e.cfg.NumNodes))
	}
	chain := e.candidates[m.Item]
	// Record the requester as the most recent (and thus most likely future)
	// holder, deduplicating and bounding the list at h entries.
	e.candidates[m.Item] = prepend(chain, m.Requester, e.cfg.Hops)
	if e.cfg.Alive != nil {
		chain = e.aliveOnly(chain)
	}
	if len(chain) == 0 {
		e.cfg.Send(env, m.Requester, e.cfg.CtrlSize, Reply{ID: m.ID, Item: m.Item})
		return
	}
	fwd := Forward{
		ID:        m.ID,
		Item:      m.Item,
		Requester: m.Requester,
		Chain:     chain[1:],
		Hop:       1,
	}
	e.cfg.Send(env, chain[0], e.cfg.CtrlSize, fwd)
}

// aliveOnly filters a candidate chain down to reachable nodes.
func (e *Engine) aliveOnly(chain []int) []int {
	out := make([]int, 0, len(chain))
	for _, n := range chain {
		if e.alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// handleForward implements the candidate role. Candidates that died after
// the chain was built are skipped; Hop counts nodes actually visited, so
// HitAtHop keeps measuring real message cost.
func (e *Engine) handleForward(env *sim.Env, m Forward) {
	if data, ok := e.cfg.Lookup(m.Item); ok {
		e.cfg.Send(env, m.Requester, e.cfg.DataSize,
			Reply{ID: m.ID, Item: m.Item, Hit: true, Hop: m.Hop, Data: data})
		return
	}
	chain := m.Chain
	for len(chain) > 0 && !e.alive(chain[0]) {
		chain = chain[1:]
	}
	if len(chain) > 0 {
		e.cfg.Send(env, chain[0], e.cfg.CtrlSize, Forward{
			ID:        m.ID,
			Item:      m.Item,
			Requester: m.Requester,
			Chain:     chain[1:],
			Hop:       m.Hop + 1,
		})
		return
	}
	e.cfg.Send(env, m.Requester, e.cfg.CtrlSize, Reply{ID: m.ID, Item: m.Item, Hop: m.Hop})
}

// handleReply completes a pending Fetch. Replies for IDs no longer pending
// are stale — the requester crashed and restarted (losing its pending
// table), or the fetch was already failed by a message drop — and are
// counted and discarded rather than treated as fatal.
func (e *Engine) handleReply(env *sim.Env, m Reply) {
	sig, ok := e.pending[m.ID]
	if !ok {
		e.metrics.StaleReplies++
		return
	}
	delete(e.pending, m.ID)
	sig.Value = m
	sig.Fire(env)
}

// prepend inserts v at the front of list, removing an existing occurrence
// of v and truncating to at most max entries.
func prepend(list []int, v, max int) []int {
	out := make([]int, 0, max)
	out = append(out, v)
	for _, x := range list {
		if len(out) >= max {
			break
		}
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
