package fleet

import (
	"fmt"
	"testing"

	"rocket/internal/fault"
	"rocket/internal/sim"
	"rocket/internal/testutil"
)

// smallConfig keeps unit-test runs fast while still exercising every
// protocol (heartbeat, gossip, steal).
func smallConfig() Config {
	cfg := DefaultConfig(64)
	cfg.Duration = sim.Millis(5)
	return cfg
}

// stretchedConfig is the repository benchmark's fleet: ScalingConfig
// with eight times the virtual time.
func stretchedConfig() Config {
	cfg := ScalingConfig(1)
	cfg.Duration *= 8
	return cfg
}

// chaosConfig is the chaos experiment's fleet at its smallest scale: a
// seeded storm of crashes with recoveries, stragglers, link faults, a
// cascade and a zone outage over 64 nodes.
func chaosConfig(t *testing.T) Config {
	cc := fault.ChaosConfig{
		Seed: 1, Nodes: 64, Duration: sim.Millis(20), Zones: 8,
		CrashFraction: 0.05, RestartFraction: 0.5, MinDowntime: sim.Millis(3), MaxDowntime: sim.Millis(8),
		StragglerFraction: 0.03, StragglerFactor: 6, StragglerWindow: sim.Millis(5),
		LinkFaults: 8, LinkCutFraction: 0.5, LinkWindow: sim.Millis(4), LinkLatencyFactor: 10, LinkBandwidthFactor: 10,
		CascadeCount: 1, CascadeSize: 8, CascadeSpacing: sim.Micros(250),
		ZoneOutages: 1, ZoneOutageDuration: sim.Millis(5),
	}
	storm, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(64)
	cfg.Duration = cc.Duration
	cfg.Faults = storm
	return cfg
}

// elasticConfig is a churny fleet: a quarter of the fleet present at
// boot, wave arrivals, and a preemption storm.
func elasticConfig() Config {
	cfg := smallConfig()
	cfg.Elastic = &fault.Elasticity{
		InitialNodes:    16,
		Arrival:         fault.ArrivalWave,
		Waves:           4,
		ColdStartJitter: sim.Micros(200),
		PreemptFraction: 0.25,
		PreemptAfter:    sim.Millis(1),
	}
	return cfg
}

// TestFleetResultContract pins the full summary of four runs. The lines
// are the behavioural contract of the fleet's event order: arrivals in
// (time, sender, send order), arrivals before local events at an equal
// instant, an arrival counted as one event. Any change to that order, to
// the protocol or to the fabric model moves them; never regenerate them
// to make a change pass.
func TestFleetResultContract(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"ScalingConfig", ScalingConfig(1),
			"fleet nodes=1024 events=561755 msgs=421052 bytes=98584064 dropped=0 heartbeats=101979 rumors=305664 work=32768 hash=57f0872eb533dd7e vt=10.000ms"},
		{"stretched", stretchedConfig(),
			"fleet nodes=1024 events=4288284 msgs=3383371 bytes=792444800 dropped=0 heartbeats=818894 rumors=2456314 work=32768 hash=7929f839ba1afa94 vt=80.000ms"},
		{"chaos", chaosConfig(t),
			"fleet nodes=64 events=58398 msgs=43112 bytes=9783808 dropped=4297 heartbeats=11218 rumors=28000 work=2048 hash=06fb74472b8df309 vt=20.000ms"},
		{"elastic", elasticConfig(),
			"fleet nodes=64 events=9814 msgs=6786 bytes=1514304 dropped=1445 heartbeats=1881 rumors=3536 work=512 hash=837a4b37aeef8bc6 vt=5.000ms joins=48 preempts=16 drained=9"},
	} {
		if c.name == "stretched" && testing.Short() {
			continue
		}
		r, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := r.String(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// shardInvariant checks that Config.Shards is ignored: the run mk builds
// renders the same Result at every value of it. The benchmark compares a
// run at width 1 with one at GOMAXPROCS on that promise.
func shardInvariant(t *testing.T, mk func() Config) Result {
	t.Helper()
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		cfg := mk()
		cfg.Shards = k
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r != base {
			t.Fatalf("Shards=%d diverged:\n  %s\nvs Shards unset:\n  %s", k, r, base)
		}
	}
	return base
}

func TestFleetShardInvariance(t *testing.T) {
	shardInvariant(t, func() Config { return ScalingConfig(1) })
}

func TestFleetFaultShardInvariance(t *testing.T) {
	base := shardInvariant(t, func() Config {
		cfg := smallConfig()
		cfg.Faults = new(fault.Schedule).
			Crash(3, sim.Millis(1)).
			Crash(17, sim.Micros(1500)).
			Restart(3, sim.Millis(3)).
			Crash(40, sim.Millis(2)).
			Restart(40, sim.Millis(4))
		return cfg
	})
	if base.Dropped == 0 {
		t.Fatalf("crashes caused no drops: %+v", base)
	}
}

func TestFleetElasticShardInvariance(t *testing.T) {
	base := shardInvariant(t, elasticConfig)
	if base.Joins == 0 || base.Preempts == 0 {
		t.Fatalf("churn config produced no churn: %+v", base)
	}
}

// TestFleetAllocationBudget holds a run to a constant number of heap
// objects: setup allocates, messages and timers do not. Doubling the
// simulated time (about 1.8x the events) must not raise the count, the
// cheapest of three runs (see testutil.Allocs).
func TestFleetAllocationBudget(t *testing.T) {
	const objsBudget, bytesBudget = 64, 512 << 10
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	for _, stretch := range []sim.Time{1, 2} {
		cfg := ScalingConfig(1)
		cfg.Duration *= stretch
		var r Result
		var err error
		objs, bytes := testutil.Allocs(func() { r, err = Run(cfg) }, 3)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d events, %d objects, %d B", cfg.Duration, r.Events, objs, bytes)
		if objs > objsBudget || bytes > bytesBudget {
			t.Errorf("%v: %d objects and %d B per run, budget %d and %d B",
				cfg.Duration, objs, bytes, objsBudget, bytesBudget)
		}
	}
}

func TestFleetRuns(t *testing.T) {
	r, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Heartbeats == 0 || r.Rumors == 0 || r.WorkDone == 0 {
		t.Fatalf("workload did not exercise all protocols: %+v", r)
	}
	if r.Messages == 0 || r.BytesSent == 0 {
		t.Fatalf("no fabric traffic: %+v", r)
	}
	if r.VirtualTime != sim.Millis(5) {
		t.Fatalf("VirtualTime = %v, want 5ms", r.VirtualTime)
	}
}

func TestFleetSeedSensitivity(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.StateHash == b.StateHash {
		t.Fatal("different seeds produced identical state hashes")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: 1}); err == nil {
		t.Fatal("Nodes=1 accepted")
	}
	cfg := DefaultConfig(4)
	cfg.NetLatency = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero NetLatency accepted")
	}
	cfg = DefaultConfig(4)
	cfg.NetBandwidth = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero NetBandwidth accepted")
	}
	cfg = DefaultConfig(4)
	cfg.HeartbeatPeriod = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero HeartbeatPeriod accepted")
	}
}

// TestFleetElasticReplayable pins that reruns of the same elastic config
// are byte-identical — seeded churn, not wall-clock churn.
func TestFleetElasticReplayable(t *testing.T) {
	a, err := Run(elasticConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(elasticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("rerun diverged:\n  %s\nvs\n  %s", a, b)
	}
}

// TestFleetChurnFreeLineUnchanged pins the compatibility guarantee: a run
// without churn renders the exact pre-elasticity summary line (no
// joins/preempts suffix), so all committed goldens stay valid.
func TestFleetChurnFreeLineUnchanged(t *testing.T) {
	r, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(
		"fleet nodes=%d events=%d msgs=%d bytes=%d dropped=%d heartbeats=%d rumors=%d work=%d hash=%016x vt=%v",
		r.Nodes, r.Events, r.Messages, r.BytesSent, r.Dropped,
		r.Heartbeats, r.Rumors, r.WorkDone, r.StateHash, r.VirtualTime)
	if r.String() != want {
		t.Fatalf("churn-free line gained a suffix:\n  %s", r)
	}
}

// TestFleetJoinerPullsWork pins the join semantics: a node arriving with
// an empty queue ends up doing work via the steal path.
func TestFleetJoinerPullsWork(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = new(fault.Schedule).Join(63, sim.Micros(100))
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Joins != 1 {
		t.Fatalf("joins = %d, want 1", r.Joins)
	}
	static, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == static.String() {
		t.Fatal("join had no observable effect on the run")
	}
}

// TestFleetPreemptDrains pins the departure semantics: a preempted node
// hands its queue to the ring successor inside the drain window.
func TestFleetPreemptDrains(t *testing.T) {
	cfg := smallConfig()
	cfg.WorkItems = 10000 // deep queues so the victim still holds items
	cfg.Faults = new(fault.Schedule).Preempt(5, sim.Micros(50))
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Preempts != 1 {
		t.Fatalf("preempts = %d, want 1", r.Preempts)
	}
	if r.Drained == 0 {
		t.Fatal("preemption drained nothing despite a deep queue")
	}
}

// TestFleetElasticValidation covers the elastic config cross-checks.
func TestFleetElasticValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Elastic = &fault.Elasticity{Nodes: 32, InitialNodes: 4}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched elastic node count accepted")
	}
	cfg = smallConfig()
	cfg.Elastic = &fault.Elasticity{InitialNodes: 4, Duration: sim.Millis(99)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched elastic horizon accepted")
	}
	cfg = smallConfig()
	cfg.Elastic = &fault.Elasticity{InitialNodes: 0}
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero initial nodes accepted")
	}
}
