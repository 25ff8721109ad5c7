package cluster

import (
	"fmt"
	"testing"

	"rocket/internal/gpu"
	"rocket/internal/sim"
)

func twoNodeCluster(t *testing.T) *Cluster {
	t.Helper()
	spec := NodeSpec{Cores: 16, HostCacheBytes: 40 * gpu.GiB, GPUs: []gpu.Model{gpu.TitanXMaxwell}}
	c, err := New([]NodeSpec{spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesSpecs(t *testing.T) {
	_, err := New(nil)
	if err == nil {
		t.Error("empty cluster accepted")
	}
	bad := []NodeSpec{{Cores: 0, GPUs: []gpu.Model{gpu.K20m}}}
	if _, err := New(bad); err == nil {
		t.Error("zero-core node accepted")
	}
	noGPU := []NodeSpec{{Cores: 4}}
	if _, err := New(noGPU); err == nil {
		t.Error("GPU-less node accepted")
	}
	negMem := []NodeSpec{{Cores: 4, HostCacheBytes: -1, GPUs: []gpu.Model{gpu.K20m}}}
	if _, err := New(negMem); err == nil {
		t.Error("negative host cache accepted")
	}
}

// totalGPUs counts the devices across c's nodes.
func totalGPUs(c *Cluster) int {
	n := 0
	for _, nd := range c.Nodes {
		n += len(nd.GPUs)
	}
	return n
}

func TestClusterShape(t *testing.T) {
	c := twoNodeCluster(t)
	if len(c.Nodes) != 2 || totalGPUs(c) != 2 {
		t.Fatalf("nodes=%d gpus=%d", len(c.Nodes), totalGPUs(c))
	}
	if c.Nodes[1].Name() != "node1" {
		t.Errorf("name = %q", c.Nodes[1].Name())
	}
	if c.Nodes[0].CPU.Cap() != 16 {
		t.Errorf("CPU capacity = %d", c.Nodes[0].CPU.Cap())
	}
	if got := c.TotalSpeed(); got != 2.0 {
		t.Errorf("TotalSpeed = %v, want 2.0", got)
	}
}

// recvAt registers a receiver on the node's inbox and records the message
// and its delivery time.
func recvAt(e *sim.Env, n *Node, got *Message, at *sim.Time) {
	n.Inbox.RecvFunc(e, func(m Message) { *got, *at = m, e.Now() })
}

func TestNetworkSendDelivers(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	var gotAt sim.Time
	var got Message
	recvAt(e, c.Nodes[1], &got, &gotAt)
	c.Net.SendFunc(e, c.Nodes[0], c.Nodes[1], 7e9, "hello", func() {}) // 1s at 7 GB/s
	e.Run()
	e.Close()
	if got.Payload != "hello" || got.From != 0 || got.To != 1 {
		t.Fatalf("message = %+v", got)
	}
	want := sim.Second + NetLatency
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	if c.Net.BytesSent() != 7e9 {
		t.Fatalf("BytesSent = %d", c.Net.BytesSent())
	}
}

func TestNetworkLocalSendImmediate(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	c.Net.SendFunc(e, c.Nodes[0], c.Nodes[0], 1e9, "x", func() {})
	if c.Nodes[0].Inbox.Len() != 1 {
		t.Error("local message not delivered immediately")
	}
	if e.PendingEvents() != 0 {
		t.Errorf("local send queued %d events", e.PendingEvents())
	}
	if c.Net.BytesSent() != 0 {
		t.Error("local send counted as network traffic")
	}
}

func TestNetworkNICSerializes(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	var done []sim.Time
	for i := 0; i < 2; i++ {
		c.Net.SendFunc(e, c.Nodes[0], c.Nodes[1], 7e9, i, func() { done = append(done, e.Now()) })
	}
	e.Run()
	e.Close()
	if len(done) != 2 || done[0] != sim.Second || done[1] != 2*sim.Second {
		t.Fatalf("send completions %v; NIC must serialize", done)
	}
}

func TestSendAsyncDoesNotBlock(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	var got Message
	var gotAt sim.Time
	recvAt(e, c.Nodes[1], &got, &gotAt)
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 7e9, "big")
	if c.Nodes[0].NIC.InUse() != 0 {
		t.Error("SendAsync took the NIC before returning to its caller")
	}
	e.Run()
	e.Close()
	if got.Payload != "big" || gotAt != sim.Second+NetLatency {
		t.Errorf("async delivery of %v at %v", got.Payload, gotAt)
	}
}

func TestStorageAccountsAndQueues(t *testing.T) {
	s := twoNodeCluster(t).Storage
	e := sim.NewEnv()
	var done []sim.Time
	for i := 0; i < 2; i++ {
		s.ReadFunc(e, 2e9, func() { done = append(done, e.Now()) }) // 1s each at 2 GB/s shared
	}
	e.Run()
	e.Close()
	if len(done) != 2 || done[0] != StorageLatency+sim.Second || done[1] != StorageLatency+2*sim.Second {
		t.Fatalf("reads completed at %v; bandwidth must be shared", done)
	}
	if s.BytesRead() != 4e9 || s.Reads() != 2 {
		t.Fatalf("accounting: %d bytes, %d reads", s.BytesRead(), s.Reads())
	}
}

func TestStorageLatencyApplied(t *testing.T) {
	s := twoNodeCluster(t).Storage
	e := sim.NewEnv()
	var doneAt sim.Time
	s.ReadFunc(e, 2e9, func() { doneAt = e.Now() })
	e.Run()
	e.Close()
	if want := StorageLatency + sim.Second; doneAt != want {
		t.Errorf("read took %v, want %v", doneAt, want)
	}
}

func TestSendFuncMirrorsBlockingSend(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	var returned, delivered sim.Time
	var got Message
	e.At(0, func() {
		c.Net.SendFunc(e, c.Nodes[0], c.Nodes[1], 7e9, "big", func() {
			returned = e.Now()
		})
	})
	recvAt(e, c.Nodes[1], &got, &delivered)
	e.Run()
	e.Close()
	if returned != sim.Second {
		t.Errorf("SendFunc continuation at %v, want 1s (after serialization)", returned)
	}
	if got.Payload != "big" || delivered != sim.Second+NetLatency {
		t.Errorf("delivery of %v at %v, want big at 1s + latency", got.Payload, delivered)
	}
}

func TestSendFuncLocalInline(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	ran := false
	c.Net.SendFunc(e, c.Nodes[0], c.Nodes[0], 123, "x", func() { ran = true })
	if !ran {
		t.Fatal("local SendFunc must call fn inline")
	}
	if c.Nodes[0].Inbox.Len() != 1 {
		t.Fatal("local SendFunc did not deliver")
	}
	if c.Net.BytesSent() != 0 {
		t.Fatal("local send accounted network bytes")
	}
	e.Close()
}

func TestStorageReadFuncMatchesRead(t *testing.T) {
	s := twoNodeCluster(t).Storage
	e := sim.NewEnv()
	var done []sim.Time
	for i := 0; i < 3; i++ {
		s.ReadFunc(e, 2e9, func() { done = append(done, e.Now()) })
	}
	e.Run()
	e.Close()
	// All three pay the latency concurrently, then queue for 1s each.
	want := []sim.Time{StorageLatency + sim.Second, StorageLatency + 2*sim.Second, StorageLatency + 3*sim.Second}
	if fmt.Sprint(done) != fmt.Sprint(want) {
		t.Fatalf("ReadFunc completions %v, want %v", done, want)
	}
}

// The message and byte counters must agree on what a "message" is: fabric
// transfers only. Loopback sends (from == to) touch neither counter, over
// every send variant.
func TestNetworkCountersAgreeOnLocalSends(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	c.Net.SendFunc(e, c.Nodes[0], c.Nodes[0], 1e6, "b", func() {})
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[0], 1e6, "c")
	e.Run()
	if c.Net.Messages() != 0 || c.Net.BytesSent() != 0 {
		t.Fatalf("loopback counted: messages=%d bytes=%d, want 0/0",
			c.Net.Messages(), c.Net.BytesSent())
	}
	c.Net.SendFunc(e, c.Nodes[0], c.Nodes[1], 2e6, "e", func() {})
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 3e6, "f")
	e.Run()
	e.Close()
	if c.Net.Messages() != 2 || c.Net.BytesSent() != 5e6 {
		t.Fatalf("fabric accounting: messages=%d bytes=%d, want 2/5e6",
			c.Net.Messages(), c.Net.BytesSent())
	}
	if c.Nodes[0].Inbox.Len() != 2 || c.Nodes[1].Inbox.Len() != 2 {
		t.Fatalf("deliveries: local=%d remote=%d, want 2/2",
			c.Nodes[0].Inbox.Len(), c.Nodes[1].Inbox.Len())
	}
}

func TestNetworkDropsToDeadNode(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	alive := []bool{true, false}
	var drops []Message
	c.Net.SetAliveFunc(func(n int) bool { return alive[n] })
	c.Net.SetDropFunc(func(_ *sim.Env, m Message) { drops = append(drops, m) })
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 1e6, "lost")
	e.Run()
	if len(drops) != 1 || drops[0].Payload != "lost" {
		t.Fatalf("drops = %+v", drops)
	}
	if c.Net.Dropped() != 1 || c.Net.Messages() != 0 || c.Net.BytesSent() != 0 {
		t.Fatalf("send-time drop accounting: dropped=%d messages=%d bytes=%d",
			c.Net.Dropped(), c.Net.Messages(), c.Net.BytesSent())
	}
	if c.Nodes[1].Inbox.Len() != 0 {
		t.Fatal("message delivered to dead node")
	}
	e.Close()
}

func TestNetworkDropsInFlightWhenReceiverDies(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	alive := []bool{true, true}
	var drops int
	c.Net.SetAliveFunc(func(n int) bool { return alive[n] })
	c.Net.SetDropFunc(func(_ *sim.Env, m Message) { drops++ })
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 7e9, "in-flight") // 1s serialization
	e.At(sim.Millis(500), func() { alive[1] = false })           // dies mid-transfer
	e.Run()
	e.Close()
	if drops != 1 || c.Net.Dropped() != 1 {
		t.Fatalf("in-flight drop not notified: drops=%d", drops)
	}
	// The transfer was transmitted, so it stays in the fabric counters.
	if c.Net.Messages() != 1 || c.Net.BytesSent() != 7e9 {
		t.Fatalf("messages=%d bytes=%d", c.Net.Messages(), c.Net.BytesSent())
	}
	if c.Nodes[1].Inbox.Len() != 0 {
		t.Fatal("message delivered after death")
	}
}

func TestNetworkLinkPartitionAndDegradation(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	state := LinkState{Up: false, LatencyFactor: 1, BandwidthFactor: 1}
	c.Net.SetLinkFunc(func(from, to int) LinkState { return state })
	var drops int
	c.Net.SetDropFunc(func(_ *sim.Env, m Message) { drops++ })
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 1e6, "cut")
	e.Run()
	if drops != 1 {
		t.Fatalf("partitioned link delivered: drops=%d", drops)
	}
	// Degraded: 2x latency, 4x serialization.
	state = LinkState{Up: true, LatencyFactor: 2, BandwidthFactor: 4}
	var gotAt sim.Time
	var got Message
	recvAt(e, c.Nodes[1], &got, &gotAt)
	c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 7e9, "slow") // 1s healthy
	e.Run()
	e.Close()
	want := 4*sim.Second + 2*NetLatency
	if got.Payload != "slow" || gotAt != want {
		t.Fatalf("degraded delivery of %v at %v, want slow at %v", got.Payload, gotAt, want)
	}
}

// The message path end to end — remote send, NIC hold, propagation,
// inbox, dispatch; a loopback send; a refused send and its notification;
// a storage read — builds no closure and boxes nothing once the slot
// table, the rings and the event queue have grown: the payload is a
// pointer to a record the protocol layer pools.
func TestZeroAllocMessagePath(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	defer e.Close()
	type record struct{ hops int }
	rec := new(record)
	var serve [2]func(Message)
	for i, n := range c.Nodes {
		i, n := i, n
		serve[i] = func(m Message) {
			m.Payload.(*record).hops++
			n.Inbox.RecvFunc(e, serve[i])
		}
		n.Inbox.RecvFunc(e, serve[i])
	}
	up := true
	c.Net.SetLinkFunc(func(from, to int) LinkState { return LinkState{Up: up, LatencyFactor: 1, BandwidthFactor: 1} })
	c.Net.SetDropFunc(func(_ *sim.Env, m Message) { m.Payload.(*record).hops-- })
	sent, read := 0, 0
	onSent, onRead := func() { sent++ }, func() { read++ }
	round := func() {
		for k := 0; k < 4; k++ { // four transfers queue on one NIC
			c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 1e6, rec)
			c.Net.SendFunc(e, c.Nodes[1], c.Nodes[0], 1e6, rec, onSent)
		}
		c.Net.SendAsync(e, c.Nodes[0], c.Nodes[0], 1e6, rec)
		c.Net.SendFunc(e, c.Nodes[1], c.Nodes[1], 1e6, rec, onSent)
		e.RunUntil(e.Now()) // a deferred send meets the link as it is then
		up = false
		c.Net.SendAsync(e, c.Nodes[0], c.Nodes[1], 1e6, rec)
		c.Net.SendFunc(e, c.Nodes[1], c.Nodes[0], 1e6, rec, nil)
		e.RunUntil(e.Now())
		up = true
		c.Storage.ReadFunc(e, 1e6, onRead)
		c.Storage.WriteFunc(e, 1e6, onRead)
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of sends and reads allocates %.2f objects, want 0", allocs)
	}
	const rounds = 102
	if rec.hops != 8*rounds || sent != 5*rounds || read != 2*rounds {
		t.Fatalf("after %d rounds: %d deliveries net of drops, %d send completions, %d transfers", rounds, rec.hops, sent, read)
	}
	if c.Net.Dropped() != 2*rounds || len(c.Net.free) != len(c.Net.slots) {
		t.Fatalf("%d drops, %d of %d slots free", c.Net.Dropped(), len(c.Net.free), len(c.Net.slots))
	}
}

// A transfer slot returns to the table exactly once.
func TestTransferSlotDoubleFreePanics(t *testing.T) {
	c := twoNodeCluster(t)
	e := sim.NewEnv()
	defer e.Close()
	h := c.Net.take(e, c.Nodes[0], c.Nodes[1], 1, nil, nil)
	c.Net.release(h)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of one slot did not panic")
		}
	}()
	c.Net.release(h)
}

func TestClusterAddNodeMaintainsAggregates(t *testing.T) {
	c, err := New([]NodeSpec{NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}}, NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}}})
	if err != nil {
		t.Fatal(err)
	}
	g0, s0 := totalGPUs(c), c.TotalSpeed()
	n, err := c.addNode(NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 2 || c.Node(2) != n {
		t.Fatalf("addNode gave ID %d; Node(2)=%p want %p", n.ID, c.Node(2), n)
	}
	if totalGPUs(c) != g0+len(n.GPUs) {
		t.Fatalf("%d GPUs after join, want %d", totalGPUs(c), g0+len(n.GPUs))
	}
	if c.TotalSpeed() <= s0 {
		t.Fatalf("TotalSpeed=%v did not grow from %v", c.TotalSpeed(), s0)
	}
	if c.Node(-1) != nil || c.Node(99) != nil {
		t.Fatal("out-of-range lookup must return nil")
	}
}
