package fault

import (
	"reflect"
	"testing"

	"rocket/internal/sim"
)

// zoneOf returns the zone owning node i under a contiguous split of nodes
// into zones near-equal blocks, so zone boundaries are a pure function of
// the pair (nodes, zones).
func zoneOf(node, nodes, zones int) int {
	if zones <= 1 {
		return 0
	}
	if zones > nodes {
		zones = nodes
	}
	return node * zones / nodes
}

func stormConfig() ChaosConfig {
	return ChaosConfig{
		Seed:     7,
		Nodes:    64,
		Duration: sim.Millis(20),
		Zones:    8,

		CrashFraction:   0.25,
		RestartFraction: 0.5,
		MinDowntime:     sim.Millis(2),
		MaxDowntime:     sim.Millis(6),

		StragglerFraction: 0.1,
		StragglerFactor:   4,
		StragglerWindow:   sim.Millis(5),

		LinkFaults:          6,
		LinkCutFraction:     0.5,
		LinkWindow:          sim.Millis(4),
		LinkLatencyFactor:   8,
		LinkBandwidthFactor: 8,

		CascadeCount:   2,
		CascadeSize:    5,
		CascadeSpacing: sim.Micros(200),

		ZoneOutages:        1,
		ZoneOutageDuration: sim.Millis(4),
	}
}

// The same config generates the byte-identical schedule, and the result
// always satisfies Validate against the config's GPU shape.
func TestChaosDeterministicAndValid(t *testing.T) {
	cfg := stormConfig()
	a, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config+seed generated different schedules")
	}
	if err := a.Validate(cfg.gpuShape()); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	cfg.Seed = 8
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical storms")
	}
	// Events come out in firing order.
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("events not time-sorted at %d: %v after %v", i, a.Events[i].At, a.Events[i-1].At)
		}
	}
}

// The storm's composition matches the config: crash and straggler counts,
// a full-zone outage colliding on one timestamp, cascades spaced on
// contiguous runs, and every event inside the horizon (restarts may
// overhang it by a downtime; nothing else).
func TestChaosShape(t *testing.T) {
	cfg := stormConfig()
	s, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[EventKind]int{}
	crashTimes := map[sim.Time]int{}
	for _, ev := range s.Events {
		byKind[ev.Kind]++
		if ev.Kind == NodeCrash {
			crashTimes[ev.At]++
		}
		if ev.Kind != NodeRestart && ev.At > cfg.Duration {
			t.Fatalf("%v event at %v beyond horizon %v", ev.Kind, ev.At, cfg.Duration)
		}
		if ev.At <= 0 {
			t.Fatalf("%v event at non-positive time %v", ev.Kind, ev.At)
		}
	}
	// 16 independent crashes + 2 cascades x 5 + one 8-node zone: some may
	// collide on a victim, so bound rather than pin.
	if byKind[NodeCrash] < 30 || byKind[NodeCrash] > 34 {
		t.Fatalf("crash count = %d, want ~34", byKind[NodeCrash])
	}
	if byKind[GPUSlowdown] != 2*6 { // 10% of 64 devices ≈ 6, slow + restore
		t.Fatalf("gpu events = %d, want 12", byKind[GPUSlowdown])
	}
	if byKind[LinkDown] != 3 || byKind[LinkUp] != 3 || byKind[LinkDegrade] != 6 {
		t.Fatalf("link events = %d/%d/%d, want 3/3/6",
			byKind[LinkDown], byKind[LinkUp], byKind[LinkDegrade])
	}
	// The zone outage crashes a whole zone at one shared timestamp.
	zoneWide := 0
	for _, n := range crashTimes {
		if n >= 8 {
			zoneWide++
		}
	}
	if zoneWide != 1 {
		t.Fatalf("found %d zone-wide crash instants, want 1", zoneWide)
	}
}

// Overlapping storms (zone outage on top of independent crash/restart
// lifecycles) must still produce schedules that pass the restart-order
// rule; the pruning path is exercised across many seeds.
func TestChaosOverlapStaysValid(t *testing.T) {
	cfg := stormConfig()
	cfg.Nodes = 16 // small fleet: collisions between categories are certain
	cfg.Zones = 2
	cfg.CrashFraction = 0.8
	cfg.RestartFraction = 1
	cfg.ZoneOutages = 3
	cfg.CascadeCount = 2
	for seed := uint64(1); seed <= 50; seed++ {
		cfg.Seed = seed
		s, err := cfg.Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(cfg.gpuShape()); err != nil {
			t.Fatalf("seed %d: invalid: %v", seed, err)
		}
	}
}

func TestChaosConfigValidation(t *testing.T) {
	bad := []func(*ChaosConfig){
		func(c *ChaosConfig) { c.Nodes = 0 },
		func(c *ChaosConfig) { c.Duration = 0 },
		func(c *ChaosConfig) { c.CrashFraction = 1.5 },
		func(c *ChaosConfig) { c.RestartFraction = -0.1 },
		func(c *ChaosConfig) { c.StragglerFactor = 0.5 },
		func(c *ChaosConfig) { c.LinkLatencyFactor = 0.9; c.LinkCutFraction = 0 },
		func(c *ChaosConfig) { c.ZoneOutages = 1; c.Zones = 1 },
		func(c *ChaosConfig) { c.GPUs = []int{1, 2} },
		func(c *ChaosConfig) { c.CascadeSize = 0 },
	}
	for i, mutate := range bad {
		cfg := stormConfig()
		mutate(&cfg)
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("case %d: invalid chaos config accepted", i)
		}
	}
}

func TestZoneGrouping(t *testing.T) {
	const nodes, zones = 10, 3
	seen := map[int]int{}
	for z := 0; z < zones; z++ {
		lo, hi := zoneRange(z, nodes, zones)
		for n := lo; n < hi; n++ {
			if got := zoneOf(n, nodes, zones); got != z {
				t.Fatalf("zoneOf(%d) = %d, want %d", n, got, z)
			}
			seen[n]++
		}
	}
	if len(seen) != nodes {
		t.Fatalf("zones cover %d nodes, want %d", len(seen), nodes)
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d zones", n, c)
		}
	}
	if zoneOf(5, 10, 0) != 0 || zoneOf(5, 10, 1) != 0 {
		t.Fatal("degenerate zone counts must map to zone 0")
	}
	if lo, hi := zoneRange(0, 4, 9); lo != 0 || hi != 1 {
		t.Fatalf("more zones than nodes: zoneRange = [%d, %d)", lo, hi)
	}
}
