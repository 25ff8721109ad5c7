package cluster

import (
	"fmt"

	"rocket/internal/sim"
)

// Message is what arrives in a node's Inbox: an application payload plus
// provenance. The fabric never looks inside Payload; protocol layers put a
// pointer to a record they reuse there, so moving a message boxes nothing.
type Message struct {
	From    int
	To      int
	Size    int64
	Payload interface{}
}

// LinkState describes the health of one directed link, as reported by the
// link hook. Factors are multipliers (>= 1) applied to the fabric's
// baseline propagation latency and serialization time; Up == false means
// the link is partitioned and messages on it are dropped.
type LinkState struct {
	Up              bool
	LatencyFactor   float64
	BandwidthFactor float64
}

// healthyLink is the state assumed when no link hook is installed.
var healthyLink = LinkState{Up: true, LatencyFactor: 1, BandwidthFactor: 1}

// Network is a switched fabric: each node owns a full-duplex NIC; a
// transfer occupies the sender's NIC for size/bandwidth and is delivered
// to the receiver's inbox after an additional propagation latency.
//
// A message in flight lives in a transfer slot (lifecycle: DESIGN.md §3):
// the send takes it, its handle rides in the transfer's events, whose
// continuations are method values bound once, and delivery or the drop
// returns it. The table grows on demand and is reused for the life of the
// Network, so a steady-state send allocates nothing.
//
// Accounting semantics: Messages and BytesSent count fabric transfers
// only, and agree on what a message is. A local send (from == to) is a
// loopback delivery — it occupies no NIC and touches neither counter. A
// message dropped at send time (dead endpoint or partitioned link) counts
// only in Dropped; a message dropped at delivery time (the receiver died
// while it was in flight) was transmitted, so it counts in Messages,
// BytesSent, and Dropped.
type Network struct {
	Latency   sim.Time
	Bandwidth float64 // bytes/sec per NIC

	bytesSent int64
	messages  uint64
	dropped   uint64

	slots []transfer
	free  []uint32
	// The continuations of a transfer, bound when the first slot is taken.
	startFn, deliverFn, notifyFn func(slot uint64)

	// Fault-injection hooks; all nil in failure-free runs, in which case
	// every path below reduces to the unconditional healthy behavior.
	aliveFn func(node int) bool
	linkFn  func(from, to int) LinkState
	dropFn  func(e *sim.Env, msg Message)
}

// transfer is the state of one message between send and delivery or drop.
type transfer struct {
	env      *sim.Env
	from, to *Node
	msg      Message
	// latency is the propagation delay on the link as admitted.
	latency sim.Time
	// done is the sender-side completion of a SendFunc, nil for SendAsync.
	done func()
}

// newNetwork returns a network with the given characteristics.
func newNetwork(latency sim.Time, bandwidth float64) *Network {
	if bandwidth <= 0 {
		panic("cluster: network bandwidth must be positive")
	}
	return &Network{Latency: latency, Bandwidth: bandwidth}
}

// SetAliveFunc installs the node-liveness hook. A message whose sender or
// receiver is reported dead is dropped (see SetDropFunc). Passing nil
// restores the always-alive default.
func (nw *Network) SetAliveFunc(fn func(node int) bool) { nw.aliveFn = fn }

// SetLinkFunc installs the link-state hook, consulted once per message at
// send time. Passing nil restores the always-healthy default.
func (nw *Network) SetLinkFunc(fn func(from, to int) LinkState) { nw.linkFn = fn }

// SetDropFunc installs the drop notifier, called in scheduler context for
// every message the fabric discards so protocol layers can resolve the
// in-flight operation as a failure instead of hanging. Drops at send time
// are notified via a deferred event (letting the sender finish arming its
// completion first); drops at delivery time are notified inline.
func (nw *Network) SetDropFunc(fn func(e *sim.Env, msg Message)) { nw.dropFn = fn }

// BytesSent returns the cumulative payload bytes moved over the fabric
// (loopback sends excluded).
func (nw *Network) BytesSent() int64 { return nw.bytesSent }

// Messages returns the number of fabric messages transmitted or in flight
// (loopback sends excluded).
func (nw *Network) Messages() uint64 { return nw.messages }

// Dropped returns the number of messages discarded by the fabric because
// an endpoint was dead or the link was partitioned.
func (nw *Network) Dropped() uint64 { return nw.dropped }

// TransferTime returns the serialization time for size bytes on one NIC.
func (nw *Network) TransferTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / nw.Bandwidth)
}

// nodeUp reports hook-provided liveness (no hook: always alive).
func (nw *Network) nodeUp(id int) bool { return nw.aliveFn == nil || nw.aliveFn(id) }

// linkOf returns the effective state of the directed link from -> to.
func (nw *Network) linkOf(from, to int) LinkState {
	if nw.linkFn == nil {
		return healthyLink
	}
	return nw.linkFn(from, to)
}

// scaled multiplies a duration by a link factor, preserving the exact
// baseline value on the healthy factor 1.
func scaled(t sim.Time, factor float64) sim.Time {
	if factor == 1 {
		return t
	}
	return sim.Time(float64(t) * factor)
}

// take reserves a transfer slot for msg and returns its handle.
func (nw *Network) take(e *sim.Env, from, to *Node, size int64, payload interface{}, done func()) uint32 {
	var h uint32
	if k := len(nw.free); k > 0 {
		h = nw.free[k-1]
		nw.free = nw.free[:k-1]
	} else {
		if nw.slots == nil {
			nw.startFn, nw.deliverFn, nw.notifyFn = nw.start, nw.deliver, nw.notifyDrop
		}
		h = uint32(len(nw.slots))
		nw.slots = append(nw.slots, transfer{})
	}
	nw.slots[h] = transfer{
		env: e, from: from, to: to, done: done,
		msg: Message{From: from.ID, To: to.ID, Size: size, Payload: payload},
	}
	return h
}

// release returns slot h to the table, emptied, and hands back what the
// transfer's last step needs.
func (nw *Network) release(h uint32) (*sim.Env, *Node, Message) {
	t := &nw.slots[h]
	if t.env == nil { // a free slot is zero
		panic(fmt.Sprintf("cluster: transfer slot %d released twice", h))
	}
	e, to, msg := t.env, t.to, t.msg
	*t = transfer{}
	nw.free = append(nw.free, h)
	return e, to, msg
}

// transmit puts the message of slot h on the wire: it checks endpoint
// liveness and link health, occupies the sender's NIC for the
// serialization time, and leaves the rest to sent. It reports false when
// the transfer is already over: a loopback message is in the inbox, a
// refused one is accounted and its drop notification scheduled.
func (nw *Network) transmit(h uint32) bool {
	t := &nw.slots[h]
	if t.from == t.to {
		e, to, msg := nw.release(h)
		to.Inbox.Send(e, msg)
		return false
	}
	e, from, size := t.env, t.from, t.msg.Size
	ls := nw.linkOf(t.msg.From, t.msg.To)
	if !ls.Up || !nw.nodeUp(t.msg.From) || !nw.nodeUp(t.msg.To) {
		nw.dropped++
		if nw.dropFn != nil {
			e.AtArg(e.Now(), nw.notifyFn, uint64(h))
		} else {
			nw.release(h)
		}
		return false
	}
	nw.messages++
	nw.bytesSent += size
	t.latency = scaled(nw.Latency, ls.LatencyFactor)
	if from.sentFn == nil {
		from.sentFn = from.sent
	}
	// A NIC serves its holds in request order, so the queue of handles
	// beside it tells sent which transfer a completed hold belongs to.
	from.nicq.Push(h)
	from.NIC.UseFunc(e, scaled(nw.TransferTime(size), ls.BandwidthFactor), from.sentFn)
	return true
}

// sent continues the oldest transfer on n's NIC once its hold is over:
// delivery follows after the propagation latency, the completion runs now.
func (n *Node) sent(sim.Time) {
	nw := n.net
	h := n.nicq.Pop()
	t := &nw.slots[h]
	done := t.done
	t.done = nil
	t.env.AtArg(t.env.Now()+t.latency, nw.deliverFn, uint64(h))
	if done != nil {
		done()
	}
}

// notifyDrop reports the message of a slot refused at send time.
func (nw *Network) notifyDrop(slot uint64) {
	e, _, msg := nw.release(uint32(slot))
	nw.dropFn(e, msg)
}

// deliver places a transmitted message in the receiver's inbox, or drops
// it, notifying inline, when the receiver died while it was in flight.
func (nw *Network) deliver(slot uint64) {
	e, to, msg := nw.release(uint32(slot))
	if !nw.nodeUp(to.ID) {
		nw.dropped++
		if nw.dropFn != nil {
			nw.dropFn(e, msg)
		}
		return
	}
	to.Inbox.Send(e, msg)
}

// SendFunc transmits payload from one node to another: it occupies the
// sender's NIC for the serialization time, schedules delivery into
// to.Inbox Latency later, and then calls fn — the sender-side completion,
// which may be nil. Local sends (from == to) deliver immediately, without
// occupying the NIC or touching the fabric counters, and call fn inline;
// so does a message the fabric refuses — the local send completed, the
// loss surfaces through the drop notifier. fn must not block.
func (nw *Network) SendFunc(e *sim.Env, from, to *Node, size int64, payload interface{}, fn func()) {
	if !nw.transmit(nw.take(e, from, to, size, payload, fn)) && fn != nil {
		fn()
	}
}

// SendAsync is SendFunc without a completion: queue for the sender's NIC,
// occupy it for the serialization time, then deliver after the propagation
// latency. Use it when the sender must continue immediately (e.g.
// forwarding while serving other requests).
func (nw *Network) SendAsync(e *sim.Env, from, to *Node, size int64, payload interface{}) {
	// The whole transfer is deferred one event: a burst of SendAsync calls
	// from a single scheduler slice contends for the NIC (and delivers
	// local messages) after everything already queued at this instant, an
	// ordering the experiment hashes pin.
	h := nw.take(e, from, to, size, payload, nil)
	e.AtArg(e.Now(), nw.startFn, uint64(h))
}

// start begins the deferred transfer of a SendAsync.
func (nw *Network) start(slot uint64) { nw.transmit(uint32(slot)) }
