package cluster

import (
	"rocket/internal/sim"
)

// Message is what arrives in a node's Inbox: an application payload plus
// provenance.
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

	// Fault-injection hooks; all nil in failure-free runs, in which case
	// every path below reduces to the unconditional healthy behavior.
	aliveFn func(node int) bool
	linkFn  func(from, to int) LinkState
	dropFn  func(e *sim.Env, msg Message)
}

// NewNetwork returns a network with the given characteristics.
func NewNetwork(latency sim.Time, bandwidth float64) *Network {
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

// admit checks endpoint liveness and link health at send time. On failure
// it accounts the drop, schedules the drop notification, and returns
// ok == false.
func (nw *Network) admit(e *sim.Env, msg Message) (LinkState, bool) {
	ls := nw.linkOf(msg.From, msg.To)
	if ls.Up && nw.nodeUp(msg.From) && nw.nodeUp(msg.To) {
		return ls, true
	}
	nw.dropped++
	if nw.dropFn != nil {
		e.Defer(func() { nw.dropFn(e, msg) })
	}
	return ls, false
}

// deliver places a transmitted message in the receiver's inbox, unless the
// receiver died while the message was in flight, in which case the message
// is dropped and the drop notifier runs inline.
func (nw *Network) deliver(e *sim.Env, to *Node, msg Message) {
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
// to.Inbox Latency later, and then calls fn — the sender-side completion.
// Local sends (from == to) deliver immediately, without occupying the NIC
// or touching the fabric counters, and call fn inline. A message refused
// by the fabric (dead endpoint, partitioned link) still calls fn inline —
// the local send completed; the loss surfaces through the drop notifier.
// fn must not block.
func (nw *Network) SendFunc(e *sim.Env, from, to *Node, size int64, payload interface{}, fn func()) {
	msg := Message{From: from.ID, To: to.ID, Size: size, Payload: payload}
	if from == to {
		to.Inbox.Send(e, msg)
		fn()
		return
	}
	ls, ok := nw.admit(e, msg)
	if !ok {
		fn()
		return
	}
	nw.messages++
	nw.bytesSent += size
	from.NIC.UseFunc(e, scaled(nw.TransferTime(size), ls.BandwidthFactor), func(sim.Time) {
		e.After(scaled(nw.Latency, ls.LatencyFactor), func() {
			nw.deliver(e, to, msg)
		})
		fn()
	})
}

// SendAsync is SendFunc without a completion: queue for the sender's NIC,
// occupy it for the serialization time, then deliver after the propagation
// latency. Use it when the sender must continue immediately (e.g.
// forwarding while serving other requests).
func (nw *Network) SendAsync(env *sim.Env, from, to *Node, size int64, payload interface{}) {
	// The whole transfer is deferred one event: a burst of SendAsync calls
	// from a single scheduler slice contends for the NIC (and delivers
	// local messages) after everything already queued at this instant, an
	// ordering the experiment hashes pin.
	env.Defer(func() {
		msg := Message{From: from.ID, To: to.ID, Size: size, Payload: payload}
		if from == to {
			to.Inbox.Send(env, msg)
			return
		}
		ls, ok := nw.admit(env, msg)
		if !ok {
			return
		}
		nw.messages++
		nw.bytesSent += size
		from.NIC.UseFunc(env, scaled(nw.TransferTime(size), ls.BandwidthFactor), func(sim.Time) {
			env.After(scaled(nw.Latency, ls.LatencyFactor), func() {
				nw.deliver(env, to, msg)
			})
		})
	})
}
