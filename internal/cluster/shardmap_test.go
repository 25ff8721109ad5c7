package cluster

import (
	"testing"

	"rocket/internal/gpu"
	"rocket/internal/sim"
)

func TestShardMapContiguousAndComplete(t *testing.T) {
	for _, tc := range []struct{ nodes, shards int }{
		{10, 1}, {10, 3}, {10, 4}, {10, 10}, {1024, 8}, {7, 16},
	} {
		m := NewShardMap(tc.nodes, tc.shards)
		prev := -1
		covered := 0
		for s := 0; s < m.NumShards(); s++ {
			lo, hi := m.Range(s)
			if lo != prev+1 && lo != hi {
				// empty ranges allowed only when shards were clamped
			}
			for i := lo; i < hi; i++ {
				if m.ShardOf(i) != s {
					t.Fatalf("nodes=%d shards=%d: ShardOf(%d) = %d, Range says %d",
						tc.nodes, tc.shards, i, m.ShardOf(i), s)
				}
				covered++
			}
			if hi > lo {
				prev = hi - 1
			}
		}
		if covered != tc.nodes {
			t.Fatalf("nodes=%d shards=%d: ranges cover %d nodes", tc.nodes, tc.shards, covered)
		}
		// Contiguity: ShardOf is monotone.
		for i := 1; i < tc.nodes; i++ {
			if m.ShardOf(i) < m.ShardOf(i-1) {
				t.Fatalf("nodes=%d shards=%d: ShardOf not monotone at %d", tc.nodes, tc.shards, i)
			}
		}
	}
	if NewShardMap(4, 9).NumShards() != 4 {
		t.Fatal("shards not clamped to node count")
	}
	if NewShardMap(4, 0).NumShards() != 1 {
		t.Fatal("shards not clamped to 1")
	}
}

func TestShardedNetDeliveryTiming(t *testing.T) {
	env := sim.NewEnv(sim.WithShards(2), sim.WithLookahead(sim.Micros(5)))
	ss := env.Sharded()
	m := NewShardMap(4, 2)
	sn := NewShardedNet(ss, m, sim.Micros(5), 1e9)
	var at sim.Time
	// 1000 bytes at 1 GB/s = 1us serialization + 5us latency.
	env.Defer(func() {
		sn.Send(env, 0, 3, 1000, func(de *sim.Env) { at = de.Now() })
	})
	env.Run()
	if want := sim.Micros(6); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if sn.Messages() != 1 || sn.BytesSent() != 1000 || sn.Dropped() != 0 {
		t.Fatalf("counters: msgs=%d bytes=%d dropped=%d", sn.Messages(), sn.BytesSent(), sn.Dropped())
	}
	env.Close()
}

func TestShardedNetNICSerialization(t *testing.T) {
	env := sim.NewEnv(sim.WithShards(2), sim.WithLookahead(sim.Micros(5)))
	ss := env.Sharded()
	m := NewShardMap(2, 2)
	sn := NewShardedNet(ss, m, sim.Micros(5), 1e9)
	var ats []sim.Time
	env.Defer(func() {
		// Two back-to-back sends queue on node 0's NIC: departures at 1us
		// and 2us, deliveries at 6us and 7us.
		sn.Send(env, 0, 1, 1000, func(de *sim.Env) { ats = append(ats, de.Now()) })
		sn.Send(env, 0, 1, 1000, func(de *sim.Env) { ats = append(ats, de.Now()) })
	})
	env.Run()
	if len(ats) != 2 || ats[0] != sim.Micros(6) || ats[1] != sim.Micros(7) {
		t.Fatalf("deliveries at %v, want [6us 7us]", ats)
	}
	env.Close()
}

func TestShardedNetLiveness(t *testing.T) {
	env := sim.NewEnv(sim.WithShards(2), sim.WithLookahead(sim.Micros(5)))
	ss := env.Sharded()
	m := NewShardMap(2, 2)
	sn := NewShardedNet(ss, m, sim.Micros(5), 1e9)
	dead := map[int]bool{}
	sn.SetAliveFunc(func(n int) bool { return !dead[n] })
	ran := 0
	env.Defer(func() {
		dead[0] = true
		sn.Send(env, 0, 1, 100, func(*sim.Env) { ran++ }) // refused at send
		dead[0] = false
		sn.Send(env, 0, 1, 100, func(*sim.Env) { ran++ }) // transmitted...
		dead[1] = true                                    // ...but receiver dies before delivery
	})
	env.Run()
	if ran != 0 {
		t.Fatalf("%d dropped messages ran their delivery fn", ran)
	}
	if sn.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", sn.Dropped())
	}
	if sn.Messages() != 1 {
		t.Fatalf("Messages = %d, want 1 (send-time refusal not transmitted)", sn.Messages())
	}
	env.Close()
}

func TestShardedNetLatencyBelowLookaheadPanics(t *testing.T) {
	env := sim.NewEnv(sim.WithShards(2), sim.WithLookahead(sim.Micros(10)))
	defer env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("latency below lookahead accepted")
		}
	}()
	NewShardedNet(env.Sharded(), NewShardMap(2, 2), sim.Micros(5), 1e9)
}

// TestShardMapChurnInvariants pins the rebalancing edge cases of the
// dynamic-membership design: the slot space (and therefore ShardOf) is
// fixed for the run, so "join into a full shard" and "departure of a
// shard's last node" must not move any assignment — churn is a membership
// overlay, never a remap.
func TestShardMapChurnInvariants(t *testing.T) {
	const nodes = 16
	for _, width := range []int{1, 2, 4, 8} {
		m := NewShardMap(nodes, width)

		// Join into a full shard: every slot of shard 0's range becomes a
		// member, then one more joiner lands in that range. Its shard is
		// decided by ShardOf alone and every prior assignment is unchanged.
		lo, hi := m.Range(0)
		present := make([]bool, nodes)
		for i := lo; i < hi; i++ {
			present[i] = true
		}
		before := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			before[i] = m.ShardOf(i)
		}
		joiner := lo // rejoin of a full shard's own slot
		if !present[joiner] {
			t.Fatalf("width %d: slot %d should be present", width, joiner)
		}
		for i := 0; i < nodes; i++ {
			if m.ShardOf(i) != before[i] {
				t.Fatalf("width %d: join moved node %d from shard %d to %d",
					width, i, before[i], m.ShardOf(i))
			}
		}

		// Departure of a shard's last node: empty shard 0 entirely. The
		// shard still owns its range — ShardOf and Range are membership-
		// blind, so in-flight sends keyed by slot ID still merge in the
		// same canonical order.
		for i := lo; i < hi; i++ {
			present[i] = false
		}
		for i := lo; i < hi; i++ {
			if got := m.ShardOf(i); got != 0 {
				t.Fatalf("width %d: empty shard lost slot %d to shard %d", width, i, got)
			}
		}
		rlo, rhi := m.Range(0)
		if rlo != lo || rhi != hi {
			t.Fatalf("width %d: empty shard range moved to [%d,%d)", width, rlo, rhi)
		}
	}
}

// TestShardMapDeterministicAcrossWidths pins that the assignment at every
// width is the same pure function of (nodes, shards) on every call, that
// ranges partition the slot space, and that ShardOf agrees with Range —
// the properties the byte-identical-across-widths guarantee leans on.
func TestShardMapDeterministicAcrossWidths(t *testing.T) {
	for _, nodes := range []int{1, 2, 5, 16, 33} {
		for _, width := range []int{1, 2, 4, 8} {
			m1 := NewShardMap(nodes, width)
			m2 := NewShardMap(nodes, width)
			covered := 0
			for s := 0; s < m1.NumShards(); s++ {
				lo, hi := m1.Range(s)
				if lo2, hi2 := m2.Range(s); lo2 != lo || hi2 != hi {
					t.Fatalf("nodes=%d width=%d: range(%d) not deterministic", nodes, width, s)
				}
				if hi < lo {
					t.Fatalf("nodes=%d width=%d: inverted range [%d,%d)", nodes, width, lo, hi)
				}
				covered += hi - lo
				for i := lo; i < hi; i++ {
					if got := m1.ShardOf(i); got != s {
						t.Fatalf("nodes=%d width=%d: ShardOf(%d)=%d, Range says %d",
							nodes, width, i, got, s)
					}
				}
			}
			if covered != nodes {
				t.Fatalf("nodes=%d width=%d: ranges cover %d slots", nodes, width, covered)
			}
			// Monotone: contiguous blocks mean a node's shard never
			// decreases as IDs grow.
			for i := 1; i < nodes; i++ {
				if m1.ShardOf(i) < m1.ShardOf(i-1) {
					t.Fatalf("nodes=%d width=%d: ShardOf not monotone at %d", nodes, width, i)
				}
			}
		}
	}
}

func TestClusterAddNodeMaintainsAggregates(t *testing.T) {
	c, err := New([]NodeSpec{NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}}, NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g0, s0 := c.TotalGPUs(), c.TotalSpeed()
	n, err := c.AddNode(NodeSpec{Cores: 16, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 2 || c.Node(2) != n {
		t.Fatalf("AddNode gave ID %d; Node(2)=%p want %p", n.ID, c.Node(2), n)
	}
	if c.TotalGPUs() != g0+len(n.GPUs) {
		t.Fatalf("TotalGPUs=%d after join, want %d", c.TotalGPUs(), g0+len(n.GPUs))
	}
	if c.TotalSpeed() <= s0 {
		t.Fatalf("TotalSpeed=%v did not grow from %v", c.TotalSpeed(), s0)
	}
	if c.Node(-1) != nil || c.Node(99) != nil {
		t.Fatal("out-of-range lookup must return nil")
	}
}
