package core

import (
	"errors"
	"testing"

	"rocket/internal/cluster"
	"rocket/internal/fault"
	"rocket/internal/gpu"
	"rocket/internal/pairs"
	"rocket/internal/sim"
)

// faultRun executes the default test app with a fault schedule.
func faultRun(t *testing.T, n, nodes int, s *fault.Schedule, mutate func(*Config)) (*Metrics, error) {
	t.Helper()
	cfg := Config{App: defaultTestApp(n), Cluster: newCluster(t, nodes), Seed: 1, Faults: s}
	if mutate != nil {
		mutate(&cfg)
	}
	return Run(cfg)
}

// A mid-run node crash must complete the job via re-stolen regions with no
// panic and no hung events — the acceptance scenario.
func TestCrashMidRunCompletesViaRecovery(t *testing.T) {
	base, err := faultRun(t, 32, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := base.Runtime / 3
	s := new(fault.Schedule).Crash(1, crashAt)
	m, err := faultRun(t, 32, 2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatalf("pairs = %d, want %d", m.Pairs, pairs.TotalPairs(32))
	}
	if m.Crashes != 1 {
		t.Fatalf("crashes = %d", m.Crashes)
	}
	if m.RecoveredRegions == 0 || m.RecoveredPairs == 0 {
		t.Fatalf("no work recovered: regions=%d pairs=%d", m.RecoveredRegions, m.RecoveredPairs)
	}
	if m.Runtime <= base.Runtime {
		t.Fatalf("crash run (%v) not slower than failure-free (%v)", m.Runtime, base.Runtime)
	}
}

// Crashing the master (which owns the root region) right at the start
// moves the whole computation to the survivor.
func TestMasterCrashAtStartRecovered(t *testing.T) {
	s := new(fault.Schedule).Crash(0, 0)
	m, err := faultRun(t, 24, 2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(24)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	// The root region (all pairs) must have been re-exposed.
	if m.RecoveredPairs != pairs.TotalPairs(24) {
		t.Fatalf("recovered pairs = %d, want %d", m.RecoveredPairs, pairs.TotalPairs(24))
	}
}

// With every node dead and no restart scheduled the run must fail with
// ErrPartitionLost instead of hanging.
func TestAllNodesCrashedPartitionLost(t *testing.T) {
	s := new(fault.Schedule).Crash(0, sim.Millis(10))
	_, err := faultRun(t, 16, 1, s, nil)
	if !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("err = %v, want ErrPartitionLost", err)
	}
	s2 := new(fault.Schedule).Crash(0, sim.Millis(10)).Crash(1, sim.Millis(20))
	_, err = faultRun(t, 24, 2, s2, nil)
	if !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("err = %v, want ErrPartitionLost", err)
	}
}

// A crashed node that restarts rejoins cold and helps finish the job; a
// partition that is temporarily all-dead survives if a restart is pending.
func TestCrashThenRestartCompletes(t *testing.T) {
	s := new(fault.Schedule).
		Crash(1, sim.Millis(50)).
		Restart(1, sim.Millis(120))
	m, err := faultRun(t, 32, 2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != 1 || m.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d", m.Crashes, m.Restarts)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}

	// Single node: crash with a scheduled restart must not be partition
	// loss; the orphaned work waits and the restarted node adopts it.
	s2 := new(fault.Schedule).
		Crash(0, sim.Millis(30)).
		Restart(0, sim.Millis(90))
	m2, err := faultRun(t, 16, 1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Pairs != uint64(pairs.TotalPairs(16)) {
		t.Fatalf("pairs = %d after restart-only recovery", m2.Pairs)
	}
	if m2.Restarts != 1 {
		t.Fatalf("restarts = %d", m2.Restarts)
	}
}

// Crash recovery must also work with the distributed cache active:
// lookups touching the dead node resolve as misses, stale replies are
// absorbed, and the run completes.
func TestCrashWithDistributedCache(t *testing.T) {
	mutate := func(cfg *Config) {
		cfg.DistCache = true
		cfg.DeviceSlots = 8
		cfg.HostSlots = 12
	}
	base, err := faultRun(t, 48, 4, nil, mutate)
	if err != nil {
		t.Fatal(err)
	}
	s := new(fault.Schedule).Crash(2, base.Runtime/4).Crash(3, base.Runtime/2)
	m, err := faultRun(t, 48, 4, s, mutate)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(48)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	if m.Crashes != 2 {
		t.Fatalf("crashes = %d", m.Crashes)
	}
	if m.DroppedMessages == 0 {
		t.Fatal("no fabric drops despite two crashes under DHT traffic")
	}
}

// A straggler GPU inflates the runtime but never the result; restoring it
// mid-run keeps the balance via stealing.
func TestStragglerGPUInflatesRuntime(t *testing.T) {
	mutate := func(cfg *Config) { cfg.ThroughputWindow = 0 }
	base, err := faultRun(t, 32, 2, nil, mutate)
	if err != nil {
		t.Fatal(err)
	}
	s := new(fault.Schedule).SlowGPU(0, 0, 0, 8)
	m, err := faultRun(t, 32, 2, s, mutate)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != base.Pairs {
		t.Fatalf("pairs = %d, want %d", m.Pairs, base.Pairs)
	}
	if m.Runtime <= base.Runtime {
		t.Fatalf("straggler run (%v) not slower than baseline (%v)", m.Runtime, base.Runtime)
	}
}

// A partitioned then healed link stalls remote stealing temporarily; the
// run completes and the drops are accounted.
func TestLinkPartitionHealsAndCompletes(t *testing.T) {
	s := new(fault.Schedule).
		CutLink(0, 1, sim.Millis(10)).
		RestoreLink(0, 1, sim.Millis(200))
	m, err := faultRun(t, 32, 2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	if m.DroppedMessages == 0 {
		t.Fatal("no drops recorded across the partition window")
	}
}

// The same fault schedule must be bit-deterministic across runs.
func TestFaultRunDeterminism(t *testing.T) {
	mk := func() *Metrics {
		s := new(fault.Schedule).
			Crash(1, sim.Millis(40)).
			Restart(1, sim.Millis(150)).
			SlowGPU(0, 0, sim.Millis(20), 3).
			RestoreGPU(0, 0, sim.Millis(100)).
			DegradeLink(0, 2, sim.Millis(10), 2, 4)
		m, err := faultRun(t, 40, 3, s, func(cfg *Config) {
			cfg.DistCache = true
			cfg.DeviceSlots = 10
			cfg.HostSlots = 16
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	if a.Runtime != b.Runtime || a.Loads != b.Loads ||
		a.RemoteSteals != b.RemoteSteals || a.DroppedMessages != b.DroppedMessages ||
		a.RecoveredPairs != b.RecoveredPairs || a.Events != b.Events {
		t.Fatalf("fault runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// With an empty (or nil) schedule every fault path must be dormant: the
// run is metric-identical to a failure-free one.
func TestEmptyScheduleIdenticalToNoFaults(t *testing.T) {
	run := func(s *fault.Schedule) *Metrics {
		m, err := faultRun(t, 32, 2, s, func(cfg *Config) { cfg.DistCache = true })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	none, empty := run(nil), run(new(fault.Schedule))
	if none.Runtime != empty.Runtime || none.Events != empty.Events ||
		none.Loads != empty.Loads || none.NetBytes != empty.NetBytes {
		t.Fatalf("empty schedule perturbed the run:\n%+v\nvs\n%+v", none, empty)
	}
	if empty.Crashes != 0 || empty.DroppedMessages != 0 || empty.RecoveredRegions != 0 {
		t.Fatalf("fault counters nonzero without faults: %+v", empty)
	}
}

// An invalid schedule is rejected before execution.
func TestFaultScheduleValidated(t *testing.T) {
	for name, s := range map[string]*fault.Schedule{
		"out-of-range crash": new(fault.Schedule).Crash(9, 0),
		"out-of-range GPU":   new(fault.Schedule).SlowGPU(0, 3, 0, 2),
		// The runtime wires only the crash and restart hooks: a join or
		// preemption would cut a node off the fabric while it kept
		// computing its share.
		"preempt": new(fault.Schedule).Preempt(1, sim.Millis(1)),
		"join":    new(fault.Schedule).Join(1, sim.Millis(1)),
	} {
		if _, err := faultRun(t, 8, 2, s, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Heterogeneous platform + repeated crash/restart cycles of the same node.
func TestRepeatedCrashRestartCycles(t *testing.T) {
	cl := newCluster(t, 2, gpu.K20m, gpu.RTX2080Ti)
	s := new(fault.Schedule).
		Crash(1, sim.Millis(20)).
		Restart(1, sim.Millis(60)).
		Crash(1, sim.Millis(100)).
		Restart(1, sim.Millis(140))
	m, err := Run(Config{App: defaultTestApp(32), Cluster: cl, Seed: 3, Faults: s})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	if m.Crashes != 2 || m.Restarts != 2 {
		t.Fatalf("crashes=%d restarts=%d", m.Crashes, m.Restarts)
	}
}

// Regression (review finding): a full fabric partition with every node
// alive used to hang the run — dropped dht.Reply and stealReply messages
// were attributed to dead addressees, so a live requester's fetch (and a
// live thief's steal) never resolved and the job chain parked forever on
// its cache leases. Drops on partitioned links must resolve the pending
// operation on the still-alive endpoint.
func TestFullPartitionWithLiveNodesCompletes(t *testing.T) {
	s := new(fault.Schedule).
		CutLink(0, 1, sim.Micros(125)).
		CutLink(0, 2, sim.Micros(125)).
		CutLink(1, 2, sim.Micros(125))
	m, err := faultRun(t, 40, 3, s, func(cfg *Config) {
		cfg.DistCache = true
		cfg.DeviceSlots = 10
		cfg.HostSlots = 16
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(40)) {
		t.Fatalf("pairs = %d, want %d", m.Pairs, pairs.TotalPairs(40))
	}
	if m.DroppedMessages == 0 {
		t.Fatal("no drops recorded across a full partition")
	}
	// No node crashed, so nothing should have needed crash recovery.
	if m.Crashes != 0 {
		t.Fatalf("crashes = %d", m.Crashes)
	}
}

// Lookup and steal state live on pooled jobs and workers, so a reply to a
// crashed incarnation must never resume anything of the restarted one: it
// may only count as stale. Crash a node at a moment it has a distributed-
// cache fetch and a remote steal in flight, then restart it either before
// the replies land (they arrive at a node that has forgotten them) or
// after (the fabric drops them and notifies). Either way every pair
// completes exactly once, and no wire record or transfer slot is returned
// twice (a second return panics).
func TestRepliesToCrashedRequesterAreStale(t *testing.T) {
	const n, nodes, victim = 48, 4, 0
	config := func(crashAt, downFor sim.Time) Config {
		s := new(fault.Schedule).Crash(victim, crashAt).Restart(victim, crashAt+downFor)
		// A worker steals with its own jobs past their fetches, so the node
		// needs a second one; a slow fabric stretches the round trips.
		fabric := cluster.DefaultConfig()
		fabric.NetLatency = sim.Micros(200)
		specs := make([]cluster.NodeSpec, nodes)
		for i := range specs {
			specs[i] = cluster.NodeSpec{Cores: 16, HostCacheBytes: 2 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell, gpu.TitanXMaxwell}}
		}
		cl, err := cluster.New(specs, fabric)
		if err != nil {
			t.Fatal(err)
		}
		return Config{App: defaultTestApp(n), Cluster: cl, Seed: 1,
			DistCache: true, DeviceSlots: 8, HostSlots: 12, Hops: 2, Faults: s}
	}
	// inFlight reports the victim's unresolved lookups and steal attempts.
	inFlight := func(rt *runtime) (fetches uint64, steals int) {
		nd := rt.nodes[victim]
		dm := nd.dht.Metrics()
		fetches = dm.Requests - dm.Misses
		for _, h := range dm.HitAtHop {
			fetches -= h
		}
		for _, wk := range nd.workers {
			if wk.stealMsg.ID != 0 {
				steals++
			}
		}
		return fetches, steals
	}

	// Find such a moment on a run whose crash lies beyond the search; the
	// injector is armed in both, so up to the crash the runs are the same.
	probe, err := launch(config(sim.Hour, sim.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var crashAt sim.Time
	for at := sim.Millis(50); crashAt == 0; at += sim.Micros(10) {
		probe.env.RunUntil(at)
		if probe.done {
			t.Fatal("the run never had a fetch and a steal in flight on one node")
		}
		if f, s := inFlight(probe); f > 0 && s > 0 {
			crashAt = at + 1
		}
	}
	probe.env.Close()

	for _, c := range []struct {
		name    string
		downFor sim.Time
	}{
		{"restart-before-replies", sim.Microsecond},
		{"restart-after-drops", sim.Millis(5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config(crashAt, c.downFor)
			seen := make(map[pairIJ]int)
			cfg.OnResult = func(i, j int, _ interface{}) { seen[pairIJ{i, j}]++ }
			rt, err := launch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt.env.RunUntil(crashAt - 1)
			if f, s := inFlight(rt); f == 0 || s == 0 {
				t.Fatalf("the crash catches %d fetches and %d steals in flight, want both", f, s)
			}
			old := rt.nodes[victim].workers
			rt.env.Run()
			m, err := rt.collect()
			if err != nil {
				t.Fatal(err)
			}
			if want := pairs.TotalPairs(n); int64(len(seen)) != want || m.Pairs != uint64(want) {
				t.Fatalf("%d distinct pairs emitted, %d counted, want %d", len(seen), m.Pairs, want)
			}
			for p, k := range seen {
				if k != 1 {
					t.Fatalf("pair (%d, %d) completed %d times", p.i, p.j, k)
				}
			}
			for _, wk := range old {
				if !wk.stale() {
					t.Fatal("a worker of the crashed incarnation survived")
				}
			}
			t.Logf("stale replies: %d fetch, %d steal; %d messages dropped", m.DHT.StaleReplies, m.StaleStealReplies, m.DroppedMessages)
			if c.downFor < rt.cl.Net.Latency {
				// Whatever was on the wire to the victim outlived the outage.
				if m.DHT.StaleReplies == 0 || m.StaleStealReplies == 0 {
					t.Errorf("stale replies: %d fetch, %d steal, want both counted", m.DHT.StaleReplies, m.StaleStealReplies)
				}
			} else if m.DroppedMessages == 0 {
				t.Error("no message to the dead node was dropped")
			}
		})
	}
}
