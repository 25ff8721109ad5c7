package cluster

import "rocket/internal/sim"

// NICs is the send model of a fabric whose messages travel as records in a
// sim.Arrivals queue instead of through a Network: the same latency and
// bandwidth model, without inboxes, transfer slots or events.
//
// A message from node a first serializes on a's NIC — a per-node departure
// clock, so back-to-back sends queue behind each other — and arrives
// NetLatency after it departs. A send from a dead node is refused and counts
// only as a drop; a message to a node that is dead on arrival was
// transmitted, so it counts as a message and as a drop.
type NICs struct {
	free      []sim.Time // per node: when its NIC is next idle
	aliveFn   func(node int) bool
	messages  uint64
	bytesSent int64
	dropped   uint64
}

// NewNICs returns the send model of nodes nodes.
func NewNICs(nodes int) *NICs {
	return &NICs{free: make([]sim.Time, nodes)}
}

// SetAliveFunc installs the node-liveness hook. Passing nil restores the
// always-alive default.
func (n *NICs) SetAliveFunc(fn func(node int) bool) { n.aliveFn = fn }

// Send admits size bytes from node from at instant now and returns when
// they arrive, or ok == false when the sender is dead.
func (n *NICs) Send(now sim.Time, from int, size int64) (at sim.Time, ok bool) {
	if n.aliveFn != nil && !n.aliveFn(from) {
		n.dropped++
		return 0, false
	}
	depart := max(now, n.free[from]) + sim.Seconds(float64(size)/NetBandwidth)
	n.free[from] = depart
	n.messages++
	n.bytesSent += size
	return depart + NetLatency, true
}

// Receive reports whether a message arriving at node to is delivered; one
// to a dead node is dropped.
func (n *NICs) Receive(to int) bool {
	if n.aliveFn != nil && !n.aliveFn(to) {
		n.dropped++
		return false
	}
	return true
}

// Messages returns the number of messages admitted for transmission.
func (n *NICs) Messages() uint64 { return n.messages }

// BytesSent returns the cumulative payload bytes admitted.
func (n *NICs) BytesSent() int64 { return n.bytesSent }

// Dropped returns the sends refused plus the messages lost on arrival.
func (n *NICs) Dropped() uint64 { return n.dropped }
