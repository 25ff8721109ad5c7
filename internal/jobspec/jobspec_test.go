package jobspec

import (
	"reflect"
	"strings"
	"testing"

	"rocket/internal/fault"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		Nodes:     4,
		Policy:    "fair",
		Seed:      9,
		KeepGoing: true,
		Jobs: []Spec{
			{ID: "a", Tenant: "t1", App: "forensics", Items: 8, Nodes: 2, ArrivalNS: 1500},
			{ID: "b", App: "microscopy", Items: 6, ArrivalMS: 2.5},
		},
	}
	buf, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 || back.Policy != "fair" || !back.KeepGoing {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Jobs[0].Arrival() != 1500 {
		t.Fatalf("arrival_ns = %v, want 1500ns", back.Jobs[0].Arrival())
	}
	if back.Jobs[1].Arrival() != sim.Millis(2.5) {
		t.Fatalf("arrival_ms = %v, want 2.5ms", back.Jobs[1].Arrival())
	}
}

func TestManifestConfigBuildsJobs(t *testing.T) {
	m := Manifest{
		Nodes:  4,
		Policy: "sjf",
		Seed:   3,
		Jobs: []Spec{
			{App: "forensics", Items: 8},
			{App: "bioinformatics", Items: 6, Seed: 42},
		},
	}
	cfg, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != sched.PolicySJF || cfg.Nodes != 4 || len(cfg.Jobs) != 2 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Jobs[0].App.Name() != "forensics" || cfg.Jobs[0].App.NumItems() != 8 {
		t.Fatalf("job 0 app: %s/%d", cfg.Jobs[0].App.Name(), cfg.Jobs[0].App.NumItems())
	}
	if cfg.Jobs[1].Seed != 42 {
		t.Fatalf("job 1 seed: %d", cfg.Jobs[1].Seed)
	}
	// The built config actually runs.
	if _, err := sched.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestManifestConfigErrors(t *testing.T) {
	cases := []Manifest{
		{Nodes: 2, Jobs: []Spec{{App: "astrology", Items: 8}}},
		{Nodes: 2, Jobs: []Spec{{App: "forensics", Items: 1}}},
		{Nodes: 2, Policy: "lifo", Jobs: []Spec{{App: "forensics", Items: 8}}},
		{Nodes: 2, Jobs: []Spec{{App: "forensics", Items: 8, Faults: []Fault{{Kind: "meteor"}}}}},
	}
	for i, m := range cases {
		if _, err := m.Config(); err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		}
	}
}

func TestFaultSpecsBuildSchedule(t *testing.T) {
	s := Spec{App: "forensics", Items: 8, Faults: []Fault{
		{Kind: "crash", Node: 1, AtMS: 5},
		{Kind: "restart", Node: 1, AtMS: 10},
		{Kind: "gpu-slow", Node: 0, GPU: 0, AtMS: 2, Factor: 4},
		{Kind: "link-down", A: 0, B: 1, AtMS: 3},
		{Kind: "link-up", A: 0, B: 1, AtMS: 6},
		{Kind: "link-degrade", A: 0, B: 1, AtMS: 7, LatencyFactor: 2, BandwidthFactor: 2},
	}}
	j, err := s.Job(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Faults.Empty() || len(j.Faults.Events) != 6 {
		t.Fatalf("faults: %+v", j.Faults)
	}
	kinds := []fault.EventKind{fault.NodeCrash, fault.NodeRestart, fault.GPUSlowdown,
		fault.LinkDown, fault.LinkUp, fault.LinkDegrade}
	for i, ev := range j.Faults.Events {
		if ev.Kind != kinds[i] {
			t.Fatalf("event %d kind %v, want %v", i, ev.Kind, kinds[i])
		}
	}

	// FaultsFromSchedule is the exact inverse of the apply path: the wire
	// records round-trip through a compiled schedule unchanged.
	back, err := FaultsFromSchedule(j.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s.Faults) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, s.Faults)
	}
	for _, empty := range []*fault.Schedule{nil, new(fault.Schedule)} {
		if back, err := FaultsFromSchedule(empty); back != nil || err != nil {
			t.Fatalf("empty schedule converted to %v, %v; want nil, nil", back, err)
		}
	}
}

// Jobs run on the all-pairs runtime, which has no join or preempt hook:
// both directions of the wire conversion name those kinds as fleet-only
// instead of building a schedule the runtime would ignore (or sending a
// record without its node).
func TestMembershipFaultsAreFleetOnly(t *testing.T) {
	for _, kind := range []string{"join", "preempt"} {
		s := Spec{App: "forensics", Items: 8, Faults: []Fault{{Kind: kind, Node: 1, AtMS: 1}}}
		if _, err := s.Job(0, 1); err == nil || !strings.Contains(err.Error(), "fleet-only") {
			t.Errorf("%s record: err = %v, want fleet-only", kind, err)
		}
	}
	for _, sch := range []*fault.Schedule{
		new(fault.Schedule).Crash(0, 1).Join(2, sim.Millis(1)),
		new(fault.Schedule).Preempt(2, sim.Millis(1)),
	} {
		if out, err := FaultsFromSchedule(sch); err == nil || !strings.Contains(err.Error(), "fleet-only") {
			t.Errorf("schedule %+v: converted to %+v, err = %v; want fleet-only", sch.Events, out, err)
		}
	}
}
