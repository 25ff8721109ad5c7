package dht

import (
	"fmt"
	"testing"
	"testing/quick"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

// harness wires n engines together over a toy message fabric with a fixed
// per-message delay, and tracks per-node item holdings and message counts.
type harness struct {
	env      *sim.Env
	engines  []*Engine
	inboxes  []*sim.Mailbox[*Msg]
	holdings []map[int]interface{}
	messages int
	// alive models node liveness; entries flipped to false make the fabric
	// swallow messages to that node (it "never responds"). withLiveness
	// additionally exposes the state to the engines via Config.Alive.
	alive []bool
}

func newHarness(t *testing.T, n, hops int) *harness {
	return buildHarness(t, n, hops, false)
}

// withLiveness builds a harness whose engines route around nodes marked
// dead in h.alive.
func withLiveness(t *testing.T, n, hops int) *harness {
	return buildHarness(t, n, hops, true)
}

func buildHarness(t *testing.T, n, hops int, liveness bool) *harness {
	t.Helper()
	h := &harness{env: sim.NewEnv()}
	h.inboxes = make([]*sim.Mailbox[*Msg], n)
	h.holdings = make([]map[int]interface{}, n)
	h.engines = make([]*Engine, n)
	h.alive = make([]bool, n)
	for i := 0; i < n; i++ {
		h.inboxes[i] = sim.NewMailbox[*Msg]("inbox")
		h.holdings[i] = make(map[int]interface{})
		h.alive[i] = true
	}
	var aliveFn AliveFunc
	if liveness {
		aliveFn = func(node int) bool { return h.alive[node] }
	}
	for i := 0; i < n; i++ {
		i := i
		eng, err := New(Config{
			NodeID:   i,
			NumNodes: n,
			Hops:     hops,
			CtrlSize: 100,
			DataSize: 1 << 20,
			Alive:    aliveFn,
			Send: func(e *sim.Env, to int, size int64, m *Msg) {
				h.messages++
				if !h.alive[to] {
					return // dead receiver: the fabric swallows the message
				}
				h.env.After(sim.Micros(5), func() {
					h.inboxes[to].Send(h.env, m)
				})
			},
			Lookup: func(item int) (interface{}, bool) {
				v, ok := h.holdings[i][item]
				return v, ok
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.engines[i] = eng
		var serve func(m *Msg)
		serve = func(m *Msg) {
			eng.Handle(h.env, m)
			h.inboxes[i].RecvFunc(h.env, serve)
		}
		h.inboxes[i].RecvFunc(h.env, serve)
	}
	return h
}

// fetch runs a lookup from the given node and returns the outcome after
// the protocol completes.
func (h *harness) fetch(node, item int) (data interface{}, hop int, ok bool) {
	resumed := 0
	lk := &Lookup{Resume: func() { resumed++ }}
	h.engines[node].Fetch(h.env, item, lk)
	h.env.Run()
	if resumed != 1 || lk.Pending() {
		panic(fmt.Sprintf("fetch of item %d from node %d resumed %d times, pending %v", item, node, resumed, lk.Pending()))
	}
	return lk.Data, lk.Hop, lk.Hit
}

func TestConfigValidation(t *testing.T) {
	send := func(*sim.Env, int, int64, *Msg) {}
	lookup := func(int) (interface{}, bool) { return nil, false }
	bad := []Config{
		{NodeID: 0, NumNodes: 0, Hops: 1, Send: send, Lookup: lookup},
		{NodeID: 5, NumNodes: 2, Hops: 1, Send: send, Lookup: lookup},
		{NodeID: 0, NumNodes: 2, Hops: 0, Send: send, Lookup: lookup},
		{NodeID: 0, NumNodes: 2, Hops: 1, Lookup: lookup},
		{NodeID: 0, NumNodes: 2, Hops: 1, Send: send},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestMissWithNoCandidates(t *testing.T) {
	h := newHarness(t, 4, 3)
	defer h.env.Close()
	_, _, ok := h.fetch(0, 7) // mediator is node 3; nobody requested before
	if ok {
		t.Fatal("fetch succeeded with no candidates")
	}
	m := h.engines[0].Metrics()
	if m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// Exactly 2 messages: request + failure reply.
	if h.messages != 2 {
		t.Fatalf("messages = %d, want 2", h.messages)
	}
}

func TestHitAtFirstHop(t *testing.T) {
	h := newHarness(t, 4, 3)
	defer h.env.Close()
	const item = 5 // mediator = 1
	// Node 2 requests first (miss) — this registers node 2 as a candidate.
	if _, _, ok := h.fetch(2, item); ok {
		t.Fatal("first fetch should miss")
	}
	// Node 2 now holds the item (it loaded it after the miss).
	h.holdings[2][item] = "payload"
	h.messages = 0
	data, hop, ok := h.fetch(0, item)
	if !ok || hop != 1 || data != "payload" {
		t.Fatalf("fetch = %v, %d, %v; want hit at hop 1", data, hop, ok)
	}
	// request + forward + data reply = 3 messages = h' + 2 with h' = 1 hop used.
	if h.messages != 3 {
		t.Fatalf("messages = %d, want 3", h.messages)
	}
	m := h.engines[0].Metrics()
	if m.HitAtHop[0] != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHitAtSecondHop(t *testing.T) {
	h := newHarness(t, 5, 3)
	defer h.env.Close()
	const item = 10 // mediator = 0
	// Two prior requesters: 3 then 4; candidate order becomes [4, 3].
	h.fetch(3, item)
	h.fetch(4, item)
	// Only node 3 (second candidate) holds the item.
	h.holdings[3][item] = "x"
	data, hop, ok := h.fetch(1, item)
	if !ok || hop != 2 || data != "x" {
		t.Fatalf("fetch = %v, %d, %v; want hit at hop 2", data, hop, ok)
	}
	if m := h.engines[1].Metrics(); m.HitAtHop[1] != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestMissAfterExhaustingChain(t *testing.T) {
	h := newHarness(t, 6, 2)
	defer h.env.Close()
	const item = 12 // mediator = 0
	// Three prior requesters; with h=2 only the 2 most recent are kept.
	h.fetch(1, item)
	h.fetch(2, item)
	h.fetch(3, item)
	// Node 1 holds it, but it fell off the candidate list ([3, 2]).
	h.holdings[1][item] = "lost"
	h.messages = 0
	_, _, ok := h.fetch(4, item)
	if ok {
		t.Fatal("fetch found item outside candidate list")
	}
	// request + forward + forward + failure = h + 2 = 4 messages.
	if h.messages != 4 {
		t.Fatalf("messages = %d, want h+2 = 4", h.messages)
	}
}

func TestCandidateListBoundedAndDeduplicated(t *testing.T) {
	h := newHarness(t, 8, 3)
	defer h.env.Close()
	const item = 16 // mediator = 0
	for _, requester := range []int{1, 2, 3, 4, 2, 5} {
		h.fetch(requester, item)
	}
	got := h.engines[0].CandidateList(item)
	want := []int{5, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestSelfMediatorAndSelfCandidate(t *testing.T) {
	h := newHarness(t, 3, 2)
	defer h.env.Close()
	const item = 3 // mediator = node 0
	// Node 0 requests an item it mediates itself.
	if _, _, ok := h.fetch(0, item); ok {
		t.Fatal("should miss")
	}
	// Now node 0 is its own candidate; a new request from node 0 visits
	// itself. It holds the item now, so it "fetches" from itself — the
	// paper notes this is harmless.
	h.holdings[0][item] = "self"
	data, hop, ok := h.fetch(0, item)
	if !ok || hop != 1 || data != "self" {
		t.Fatalf("self-fetch = %v, %d, %v", data, hop, ok)
	}
}

func TestWrongMediatorPanics(t *testing.T) {
	eng, err := New(Config{
		NodeID: 1, NumNodes: 4, Hops: 1, CtrlSize: 1, DataSize: 1,
		Send:   func(*sim.Env, int, int64, *Msg) {},
		Lookup: func(int) (interface{}, bool) { return nil, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEnv()
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misrouted request")
		}
	}()
	eng.Handle(e, &Msg{Kind: KindRequest, ID: 1, Item: 8, Requester: 0}) // 8 mod 4 = 0, not 1
}

// The fabric hands an engine only protocol records (the runtime tells
// them from steal traffic by type); one of no known kind is a bug.
func TestUnknownPayloadIgnored(t *testing.T) {
	h := newHarness(t, 2, 1)
	defer h.env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("a record of unknown kind was handled")
		}
	}()
	h.engines[0].Handle(h.env, new(Msg))
}

// Property: for random holdings and request sequences, every fetch
// terminates with at most h+2 messages, candidate lists stay bounded by h,
// and a reported hit implies some node actually held the item.
func TestQuickProtocolBounds(t *testing.T) {
	f := func(seed uint64, nRaw, hRaw, opsRaw uint8) bool {
		n := int(nRaw%6) + 2
		hops := int(hRaw%3) + 1
		ops := int(opsRaw%30) + 5
		rng := stats.NewRNG(seed)
		var tt testing.T
		h := newHarness(&tt, n, hops)
		defer h.env.Close()
		ok := true
		for k := 0; k < ops; k++ {
			item := rng.Intn(n * 3)
			node := rng.Intn(n)
			if rng.Intn(2) == 0 {
				h.holdings[node][item] = item
			}
			before := h.messages
			_, _, hit := h.fetch(node, item)
			if h.messages-before > hops+2 {
				ok = false
			}
			if hit {
				found := false
				for _, hold := range h.holdings {
					if _, has := hold[item]; has {
						found = true
					}
				}
				if !found {
					ok = false
				}
			}
			med := item % n
			if len(h.engines[med].CandidateList(item)) > hops {
				ok = false
			}
		}
		return ok && !tt.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fetch resumes its caller once, not before the lookup's three 5us
// messages have travelled, with the outcome in the caller's Lookup, and it
// leaves nothing in the pending table.
func TestFetchFuncMatchesFetch(t *testing.T) {
	h := newHarness(t, 4, 2)
	defer h.env.Close()
	h.holdings[1][5] = "payload" // item 5 mediated by node 1
	h.fetch(1, 5)                // registers node 1 as a candidate
	start, calls := h.env.Now(), 0
	lk := new(Lookup)
	lk.Resume = func() {
		calls++
		if !lk.Hit || lk.Hop != 1 || lk.Data != "payload" {
			t.Errorf("Fetch = (%v, %d, %v), want (payload, 1, true)", lk.Data, lk.Hop, lk.Hit)
		}
		if took := h.env.Now() - start; took != sim.Micros(15) {
			t.Errorf("resolved after %v, want 15us", took)
		}
	}
	h.engines[0].Fetch(h.env, 5, lk)
	if calls != 0 || !lk.Pending() {
		t.Fatal("continuation ran before the request was answered")
	}
	h.env.Run()
	if calls != 1 || lk.Pending() {
		t.Fatalf("continuation ran %d times, lookup pending %v", calls, lk.Pending())
	}
	for slot, p := range h.engines[0].pending {
		if p != nil {
			t.Fatalf("slot %d still holds a lookup", slot)
		}
	}
}

// One record serves a lookup end to end, so a steady stream of lookups —
// hits at the end of a three-hop walk here — allocates nothing: no record, no
// chain, no candidate list, no pending entry.
func TestZeroAllocLookup(t *testing.T) {
	h := newHarness(t, 5, 3)
	defer h.env.Close()
	const item = 10 // mediator = 0
	h.fetch(3, item)
	h.fetch(4, item)
	h.holdings[3][item] = "x"
	// The harness fabric builds a closure per message; deliver directly.
	var inflight []*Msg
	var to []int
	for _, eng := range h.engines {
		eng.cfg.Send = func(_ *sim.Env, dst int, _ int64, m *Msg) {
			inflight, to = append(inflight, m), append(to, dst)
		}
	}
	lk := &Lookup{Resume: func() {}}
	round := func() {
		for k := 0; k < 2; k++ { // node 1 asks; candidates settle at [1, 4, 3]
			h.engines[1].Fetch(h.env, item, lk)
			for len(inflight) > 0 {
				m, dst := inflight[0], to[0]
				inflight, to = inflight[:0], to[:0]
				h.engines[dst].Handle(h.env, m)
			}
			h.env.Run()
			if !lk.Hit || lk.Data != "x" {
				t.Fatalf("lookup = (%v, %d, %v), want a hit", lk.Data, lk.Hop, lk.Hit)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a round of lookups allocates %.2f objects, want 0", allocs)
	}
}

// Satellite: a duplicate (stale) Reply for an already-resolved pending ID
// must be counted and dropped, not panic.
func TestStaleReplyIsCountedNotFatal(t *testing.T) {
	h := newHarness(t, 4, 2)
	defer h.env.Close()
	const item = 7 // mediator = 3
	if _, _, ok := h.fetch(0, item); ok {
		t.Fatal("first fetch should miss")
	}
	// Replay the failure reply for the already-resolved request, twice.
	for i := 0; i < 2; i++ {
		h.engines[0].Handle(h.env, &Msg{Kind: KindReply, ID: 1 << 32, Item: item})
	}
	h.env.Run()
	m := h.engines[0].Metrics()
	if m.StaleReplies != 2 {
		t.Fatalf("StaleReplies = %d, want 2", m.StaleReplies)
	}
	if m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("stale replies perturbed outcome counters: %+v", m)
	}
}

// Satellite: a reply for an ID that was never issued (e.g. addressed to a
// node that crashed and restarted, losing its pending table) is stale too.
func TestReplyAfterRestartLostPendingTable(t *testing.T) {
	h := newHarness(t, 2, 1)
	defer h.env.Close()
	h.engines[0].Handle(h.env, &Msg{Kind: KindReply, ID: 99, Item: 0, Hit: true, Data: "late"})
	h.env.Run()
	if m := h.engines[0].Metrics(); m.StaleReplies != 1 {
		t.Fatalf("StaleReplies = %d, want 1", m.StaleReplies)
	}
}

// Satellite: the mediator's candidate list references a node that never
// responds (dead). Without liveness routing the fetch would hang on the
// swallowed Forward; FailPending resolves it as a miss, the way the core
// runtime reacts to a fabric drop notification.
func TestFailPendingResolvesDroppedLookup(t *testing.T) {
	h := newHarness(t, 4, 2)
	defer h.env.Close()
	const item = 5     // mediator = 1
	h.fetch(2, item)   // register node 2 as a candidate
	h.alive[2] = false // node 2 dies and will never respond
	h.holdings[2][item] = "unreachable"
	resolved := false
	lk := &Lookup{Resume: func() { resolved = true }}
	h.engines[0].Fetch(h.env, item, lk)
	id := lk.id
	h.env.Run() // forward to node 2 swallowed; fetch still pending
	if resolved || !lk.Pending() {
		t.Fatal("fetch resolved without a reply")
	}
	h.engines[0].FailPending(h.env, id)
	h.env.Run()
	if !resolved || lk.Hit || lk.Data != nil || lk.Pending() {
		t.Fatalf("FailPending outcome = (%v, %v, resolved=%v); want miss", lk.Data, lk.Hit, resolved)
	}
	// A second notification for the same request finds nothing to fail.
	resolved = false
	h.engines[0].FailPending(h.env, id)
	h.env.Run()
	if resolved {
		t.Fatal("a resolved lookup was failed again")
	}
	if m := h.engines[0].Metrics(); m.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// Unknown IDs are ignored.
	h.engines[0].FailPending(h.env, 12345)
}

// With liveness routing, the mediator skips the dead candidate entirely:
// the walk visits only live nodes and a hit is still found behind the dead
// entry in the list.
func TestMediatorRoutesAroundDeadCandidate(t *testing.T) {
	h := withLiveness(t, 5, 3)
	defer h.env.Close()
	const item = 10  // mediator = 0
	h.fetch(3, item) // candidates: [3]
	h.fetch(4, item) // candidates: [4, 3]
	h.holdings[3][item] = "behind-dead"
	h.alive[4] = false // most recent candidate dies
	h.messages = 0
	data, hop, ok := h.fetch(1, item)
	if !ok || data != "behind-dead" {
		t.Fatalf("fetch = %v, %d, %v; want hit via live candidate", data, hop, ok)
	}
	if hop != 1 {
		t.Fatalf("hop = %d; dead candidate must not consume a hop", hop)
	}
	// request + forward(to 3) + data reply: no message to the dead node.
	if h.messages != 3 {
		t.Fatalf("messages = %d, want 3", h.messages)
	}
}

// A dead mediator resolves as an immediate, message-free miss.
func TestDeadMediatorImmediateMiss(t *testing.T) {
	h := withLiveness(t, 4, 2)
	defer h.env.Close()
	const item = 6 // mediator = 2
	h.alive[2] = false
	h.messages = 0
	_, _, ok := h.fetch(0, item)
	if ok {
		t.Fatal("fetch through dead mediator succeeded")
	}
	if h.messages != 0 {
		t.Fatalf("messages = %d, want 0 (routed around)", h.messages)
	}
	m := h.engines[0].Metrics()
	if m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// A candidate that dies mid-chain is skipped at forward time.
func TestForwardSkipsCandidateThatDiedMidChain(t *testing.T) {
	h := withLiveness(t, 6, 3)
	defer h.env.Close()
	const item = 12 // mediator = 0
	h.fetch(1, item)
	h.fetch(2, item)
	h.fetch(3, item) // candidates: [3, 2, 1]
	h.holdings[1][item] = "tail"
	// Node 2 (mid-chain) dies before the next fetch: the mediator prunes
	// it and the forward chain becomes [3, 1].
	h.alive[2] = false
	data, hop, ok := h.fetch(5, item)
	if !ok || data != "tail" || hop != 2 {
		t.Fatalf("fetch = %v, %d, %v; want hit at hop 2 via [3, 1]", data, hop, ok)
	}
}

// A crash (Reset) forgets the pending table but not the request sequence:
// the restarted node's first lookup takes the slot the lost one held, and
// the reply still on its way to the lost one must not resolve it.
func TestReplyToLookupLostInResetIsStale(t *testing.T) {
	h := newHarness(t, 4, 2)
	defer h.env.Close()
	h.alive[3] = false // the mediator of item 7 never answers
	resumed := 0
	lost := &Lookup{Resume: func() { resumed++ }}
	h.engines[0].Fetch(h.env, 7, lost)
	lostID := lost.id
	h.engines[0].Reset()
	if lost.Pending() || h.engines[0].Metrics().Requests != 0 {
		t.Fatalf("after Reset: lookup pending %v, metrics %+v", lost.Pending(), h.engines[0].Metrics())
	}
	next := &Lookup{Resume: func() { resumed++ }}
	h.engines[0].Fetch(h.env, 7, next)
	if uint32(next.id) != uint32(lostID) || next.id == lostID {
		t.Fatalf("request IDs %#x then %#x: want the same slot under a new sequence number", lostID, next.id)
	}
	h.engines[0].Handle(h.env, &Msg{Kind: KindReply, ID: lostID, Item: 7, Hit: true, Data: "late"})
	h.engines[0].FailPending(h.env, lostID)
	h.env.Run()
	if m := h.engines[0].Metrics(); resumed != 0 || !next.Pending() || m.StaleReplies != 1 {
		t.Fatalf("resumed %d lookups, new lookup pending %v, metrics %+v", resumed, next.Pending(), m)
	}
}
