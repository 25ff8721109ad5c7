package cluster

import (
	"testing"

	"rocket/internal/sim"
)

// The tests in this file are named for ShardedNet, the sharded engine's
// send path, whose model NICs keeps. Each drives NICs the way the fleet
// does: a send returns the arrival time of a record in a sim.Arrivals
// queue, and the delivery asks Receive.

// nicsRig is an Env with an arrival queue of destination nodes; arrived
// logs the instant of every message that is delivered.
type nicsRig struct {
	env     *sim.Env
	nics    *NICs
	q       *sim.Arrivals[int]
	arrived []sim.Time
}

func newNICsRig(nodes int) *nicsRig {
	r := &nicsRig{env: sim.NewEnv(), nics: NewNICs(nodes, sim.Micros(5), 1e9)}
	r.q = sim.NewArrivals(r.env, func(to int) {
		if r.nics.Receive(to) {
			r.arrived = append(r.arrived, r.env.Now())
		}
	})
	return r
}

func (r *nicsRig) send(from, to int, size int64) {
	if at, ok := r.nics.Send(r.env.Now(), from, size); ok {
		r.q.Push(at, uint32(from), to)
	}
}

func TestShardedNetDeliveryTiming(t *testing.T) {
	r := newNICsRig(4)
	// 1000 bytes at 1 GB/s = 1us serialization + 5us latency.
	r.env.Defer(func() { r.send(0, 3, 1000) })
	r.q.RunUntil(sim.Millis(1))
	if len(r.arrived) != 1 || r.arrived[0] != sim.Micros(6) {
		t.Fatalf("delivered at %v, want [6us]", r.arrived)
	}
	if r.nics.Messages() != 1 || r.nics.BytesSent() != 1000 || r.nics.Dropped() != 0 {
		t.Fatalf("counters: msgs=%d bytes=%d dropped=%d", r.nics.Messages(), r.nics.BytesSent(), r.nics.Dropped())
	}
}

func TestShardedNetNICSerialization(t *testing.T) {
	r := newNICsRig(2)
	r.env.Defer(func() {
		// Two back-to-back sends queue on node 0's NIC: departures at 1us
		// and 2us, deliveries at 6us and 7us.
		r.send(0, 1, 1000)
		r.send(0, 1, 1000)
	})
	r.q.RunUntil(sim.Millis(1))
	if len(r.arrived) != 2 || r.arrived[0] != sim.Micros(6) || r.arrived[1] != sim.Micros(7) {
		t.Fatalf("deliveries at %v, want [6us 7us]", r.arrived)
	}
}

func TestShardedNetLiveness(t *testing.T) {
	r := newNICsRig(2)
	dead := map[int]bool{}
	r.nics.SetAliveFunc(func(n int) bool { return !dead[n] })
	r.env.Defer(func() {
		dead[0] = true
		r.send(0, 1, 100) // refused at send
		dead[0] = false
		r.send(0, 1, 100) // transmitted...
		dead[1] = true    // ...but the receiver dies before it arrives
	})
	r.q.RunUntil(sim.Millis(1))
	if len(r.arrived) != 0 {
		t.Fatalf("%d dropped messages were delivered", len(r.arrived))
	}
	if r.nics.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.nics.Dropped())
	}
	if r.nics.Messages() != 1 {
		t.Fatalf("Messages = %d, want 1 (send-time refusal not transmitted)", r.nics.Messages())
	}
}

// What is left of the lookahead rule: a message must arrive after it is
// sent, so a fabric without latency is refused.
func TestShardedNetLatencyBelowLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero latency accepted")
		}
	}()
	NewNICs(2, 0, 1e9)
}
