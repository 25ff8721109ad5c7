package scenario

import (
	"strings"
	"testing"

	"rocket/internal/sim"
)

const fleetDoc = `
name: mini-storm
mode: fleet
seed: 5
duration: 8ms
fleet_gen:
  nodes: 32
  zones: 4
  templates:
    - name: a
      weight: 3
      gpus: 1
    - name: b
      weight: 1
      gpus: 2
  startup:
    pattern: linear
    over: 1ms
chaos:
  crash_fraction: 0.1
  restart_fraction: 0.5
  min_downtime: 1ms
  max_downtime: 3ms
assertions:
  - at: 7ms
    assert: node-alive
    node: 0
  - assert: metric
    name: work_done
    min: 1
`

func TestParseFleetScenario(t *testing.T) {
	sc, err := Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mode != ModeFleet || sc.Gen == nil || sc.Chaos == nil {
		t.Fatalf("parsed = %+v", sc)
	}
	if sc.Gen.Startup.Pattern != StartupLinear || sc.Gen.Startup.Over != sim.Millis(1) {
		t.Fatalf("startup = %+v", sc.Gen.Startup)
	}
	faults, err := sc.CompileFaults()
	if err != nil {
		t.Fatal(err)
	}
	if faults.Empty() {
		t.Fatal("chaos compiled to an empty schedule")
	}
}

func TestParseRejects(t *testing.T) {
	base := `
name: x
mode: pairs
seed: 1
app:
  kind: forensics
  items: 16
fleet:
  nodes: 2
`
	cases := []struct {
		name, doc, want string
	}{
		{"unknown key", base + "bogus: 1\n", "unknown key"},
		{"unknown nested key", base + "events:\n  - at: 1ms\n    kind: crash\n    nodee: 1\n", "unknown key"},
		{"no name", "mode: fleet\nduration: 1ms\nfleet:\n  nodes: 2\n", "name is required"},
		{"bad mode", "name: x\nmode: turbo\n", "unknown mode"},
		{"fleet needs duration", "name: x\nmode: fleet\nfleet:\n  nodes: 2\n", "positive duration"},
		{"fleet xor gen", "name: x\nmode: fleet\nduration: 1ms\n", "exactly one of fleet or fleet_gen"},
		{"negative fleet", "name: x\nmode: fleet\nduration: 1ms\nfleet:\n  nodes: -2\nchaos:\n  crash_fraction: 0.5\n", "must be >= 1"},
		{"negative gpus", "name: x\nmode: fleet\nduration: 1ms\nfleet:\n  nodes: 4\n  gpus_per_node: -3\nchaos:\n  straggler_fraction: 0.5\n  straggler_factor: 2\n", "must be >= 1"},
		{"chaos in pairs", base + "chaos:\n  crash_fraction: 0.1\n", "fleet-mode only"},
		{"join in pairs", base + "events:\n  - at: 1ms\n    kind: join\n    node: 1\n", "fleet-mode only"},
		{"preempt in pairs", base + "events:\n  - at: 1ms\n    kind: preempt\n    node: 1\n", "fleet-mode only"},
		{"chaos and events", strings.Replace(fleetDoc, "chaos:", "events:\n  - at: 1ms\n    kind: crash\n    node: 0\nchaos:", 1), "mutually exclusive"},
		{"bad event kind", base + "events:\n  - at: 1ms\n    kind: melt\n    node: 0\n", "unknown event kind"},
		{"event node range", base + "events:\n  - at: 1ms\n    kind: crash\n    node: 9\n", "node 9"},
		{"restart before crash", base + "events:\n  - at: 2ms\n    kind: restart\n    node: 1\n  - at: 3ms\n    kind: crash\n    node: 1\n", "before its crash"},
		{"assert node range", base + "assertions:\n  - at: 1ms\n    assert: node-dead\n    node: 7\n", "outside fleet"},
		{"assert needs at", base + "assertions:\n  - assert: node-dead\n    node: 1\n", "needs at"},
		{"metric needs bounds", base + "assertions:\n  - assert: metric\n    name: pairs\n", "min and/or max"},
		{"metric min gt max", base + "assertions:\n  - assert: metric\n    name: pairs\n    min: 5\n    max: 2\n", "min 5 > max 2"},
		{"pairs-complete in fleet", strings.Replace(fleetDoc, "assertions:", "assertions:\n  - assert: pairs-complete\n", 1), "pairs-mode only"},
		{"assert beyond horizon", strings.Replace(fleetDoc, "at: 7ms", "at: 9ms", 1), "beyond duration"},
		{"zone outage without zones", strings.Replace(strings.Replace(fleetDoc, "zones: 4", "zones: 0", 1), "max_downtime: 3ms", "max_downtime: 3ms\n  zone_outages:\n    count: 1\n    duration: 1ms", 1), "zones >= 2"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFleetGenShapes(t *testing.T) {
	g := &FleetGen{
		Nodes: 400,
		Templates: []Template{
			{Name: "a", Weight: 3, GPUs: 1},
			{Name: "b", Weight: 1, GPUs: 2},
		},
		Startup: Startup{Pattern: StartupWave, Over: sim.Millis(4), Waves: 4},
	}
	shape := g.gpuShape(9)
	again := g.gpuShape(9)
	for i := range shape {
		if shape[i] != again[i] {
			t.Fatal("gpuShape not deterministic")
		}
	}
	ones, twos := 0, 0
	for _, v := range shape {
		switch v {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected gpu count %d", v)
		}
	}
	// 3:1 weighting over 400 nodes: expect ~300/~100, generously bounded.
	if ones < 250 || twos < 50 {
		t.Fatalf("weighting off: %d ones, %d twos", ones, twos)
	}

	at := g.startTimes()
	if at[0] != 0 {
		t.Fatalf("first node boots at %v, want 0", at[0])
	}
	waves := map[sim.Time]bool{}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("start times not monotone")
		}
		if at[i] >= g.Startup.Over {
			t.Fatalf("start %v beyond window %v", at[i], g.Startup.Over)
		}
		waves[at[i]] = true
	}
	if len(waves) != 4 {
		t.Fatalf("wave pattern produced %d cohorts, want 4", len(waves))
	}

	g.Startup = Startup{Pattern: StartupInstant}
	if g.startTimes() != nil {
		t.Fatal("instant startup must return nil (the fast path)")
	}

	g.Startup = Startup{Pattern: StartupExponential, Over: sim.Millis(4)}
	at = g.startTimes()
	if at[0] != 0 || at[len(at)-1] != at[len(at)-2] && at[len(at)-1] > g.Startup.Over {
		t.Fatalf("exponential start times out of range: first=%v last=%v", at[0], at[len(at)-1])
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("exponential start times not monotone")
		}
	}
}

const elasticDoc = `
name: elastic-mini
mode: fleet
seed: 11
duration: 6ms
fleet:
  nodes: 16
elasticity:
  initial_nodes: 4
  arrival: wave
  over: 3ms
  waves: 3
  cold_start_jitter: 100us
  preempt_fraction: 0.25
  preempt_after: 500us
`

func TestParseElasticScenario(t *testing.T) {
	sc, err := Parse([]byte(elasticDoc))
	if err != nil {
		t.Fatal(err)
	}
	e := sc.Elastic
	if e == nil {
		t.Fatal("elasticity section not decoded")
	}
	if e.InitialNodes != 4 || e.Arrival != "wave" || e.Waves != 3 ||
		e.Over != sim.Millis(3) || e.ColdStartJitter != sim.Micros(100) ||
		e.PreemptFraction != 0.25 || e.PreemptAfter != sim.Micros(500) {
		t.Fatalf("elasticity = %+v", e)
	}
	// The generator inherits fleet size, seed, and horizon from the
	// scenario, not from the section.
	gen := sc.elasticity()
	if gen.Nodes != 16 || gen.Seed != 11 || gen.Duration != sim.Millis(6) {
		t.Fatalf("generator mapping = %+v", gen)
	}
}

func TestElasticityRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"pairs mode", `
name: x
mode: pairs
seed: 1
app:
  kind: forensics
  items: 16
fleet:
  nodes: 2
elasticity:
  initial_nodes: 1
`, "fleet-mode only"},
		{"with chaos", strings.Replace(elasticDoc, "elasticity:", "chaos:\n  crash_fraction: 0.1\nelasticity:", 1), "mutually exclusive"},
		{"bad arrival", strings.Replace(elasticDoc, "arrival: wave", "arrival: warp", 1), "unknown arrival pattern"},
		{"initial above fleet", strings.Replace(elasticDoc, "initial_nodes: 4", "initial_nodes: 99", 1), "outside [1, 16]"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
