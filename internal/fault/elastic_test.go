package fault

import (
	"testing"

	"rocket/internal/sim"
)

func TestMembershipValidation(t *testing.T) {
	ones := []int{1, 1, 1, 1}
	cases := []struct {
		name string
		s    *Schedule
		ok   bool
	}{
		{"join then preempt", new(Schedule).Join(1, sim.Millis(1)).Preempt(1, sim.Millis(5)), true},
		{"preempt initial member", new(Schedule).Preempt(0, sim.Millis(2)), true},
		{"preempt crashed node", new(Schedule).Crash(2, sim.Millis(1)).Preempt(2, sim.Millis(2)), true},
		{"rejoin after preempt", new(Schedule).Preempt(3, sim.Millis(1)).Join(3, sim.Millis(4)), true},
		// A lone join is legal by definition: the first-event-is-join rule
		// makes the node initially absent. Likewise a preempt that fires
		// before a join of the same node reads as depart-then-rejoin of an
		// initial member.
		{"lone join defines initial absence", new(Schedule).Join(0, sim.Millis(1)), true},
		{"depart then rejoin", new(Schedule).Preempt(1, sim.Millis(2)).Join(1, sim.Millis(5)), true},
		{"double join", new(Schedule).Join(1, sim.Millis(1)).Join(1, sim.Millis(2)), false},
		{"crash before join", new(Schedule).Crash(1, sim.Millis(1)).Join(1, sim.Millis(2)), false},
		{"restart after preempt", new(Schedule).Crash(1, sim.Millis(1)).Preempt(1, sim.Millis(2)).Restart(1, sim.Millis(3)), false},
		{"crash after preempt", new(Schedule).Preempt(1, sim.Millis(1)).Crash(1, sim.Millis(2)), false},
		{"double preempt", new(Schedule).Preempt(1, sim.Millis(1)).Preempt(1, sim.Millis(2)), false},
	}
	for _, c := range cases {
		err := c.s.Validate(ones)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestInitialMembers(t *testing.T) {
	s := new(Schedule).
		Join(2, sim.Millis(3)).
		Crash(0, sim.Millis(1)).
		Preempt(3, sim.Millis(2)).
		Join(3, sim.Millis(6))
	got := InitialMembers(s, 4)
	want := []bool{true, true, false, true} // only node 2's first event is a join
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InitialMembers[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	for i, m := range InitialMembers(nil, 3) {
		if !m {
			t.Fatalf("nil schedule: node %d not a member", i)
		}
	}
}

func TestInjectorJoinPreemptLifecycle(t *testing.T) {
	env := sim.NewEnv()
	s := new(Schedule).
		Join(2, sim.Millis(2)).
		Preempt(0, sim.Millis(4))
	var joined, preempted []int
	var aliveAtPreempt bool
	var inj *Injector
	inj, err := NewInjector(env, []int{1, 1, 1}, s, Hooks{
		OnJoin: func(n int) { joined = append(joined, n) },
		OnPreempt: func(n int) {
			preempted = append(preempted, n)
			aliveAtPreempt = inj.Alive(n) // pre-flip: still alive in the drain window
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Alive(2) {
		t.Fatal("node 2 alive before its join")
	}
	if got := inj.aliveCount(); got != 2 {
		t.Fatalf("initial aliveCount = %d, want 2", got)
	}
	env.RunUntil(sim.Millis(3))
	if !inj.Alive(2) {
		t.Fatal("node 2 dead after its join")
	}
	env.RunUntil(sim.Millis(5))
	if inj.Alive(0) {
		t.Fatal("node 0 alive after its preemption")
	}
	if len(joined) != 1 || joined[0] != 2 {
		t.Fatalf("OnJoin calls = %v, want [2]", joined)
	}
	if len(preempted) != 1 || preempted[0] != 0 {
		t.Fatalf("OnPreempt calls = %v, want [0]", preempted)
	}
	if !aliveAtPreempt {
		t.Fatal("OnPreempt observed a dead node: the drain window must precede the liveness flip")
	}
	env.Close()
}

func TestElasticityGenerateDeterministic(t *testing.T) {
	e := Elasticity{
		Seed: 7, Nodes: 32, InitialNodes: 8,
		Arrival: ArrivalWave, Waves: 4,
		ColdStartJitter: sim.Micros(500),
		PreemptFraction: 0.25, PreemptAfter: sim.Millis(5),
		Duration: sim.Millis(50),
	}
	a, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("regeneration changed event count: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across regenerations: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	joins, preempts := 0, 0
	for _, ev := range a.Events {
		switch ev.Kind {
		case NodeJoin:
			joins++
		case NodePreempt:
			preempts++
		}
	}
	if joins != 24 {
		t.Fatalf("generated %d joins, want 24", joins)
	}
	if preempts == 0 {
		t.Fatal("generated no preemptions at fraction 0.25")
	}
}

func TestElasticityPatternsValidate(t *testing.T) {
	for _, pat := range []string{ArrivalInstant, ArrivalLinear, ArrivalExponential, ArrivalWave} {
		e := Elasticity{
			Seed: 3, Nodes: 16, InitialNodes: 4, Arrival: pat,
			ColdStartJitter: sim.Micros(200),
			PreemptFraction: 0.5,
			Duration:        sim.Millis(20),
		}
		s, err := e.Generate()
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		ones := make([]int, e.Nodes)
		for i := range ones {
			ones[i] = 1
		}
		if err := s.Validate(ones); err != nil {
			t.Fatalf("%s: generated schedule invalid: %v", pat, err)
		}
		members := InitialMembers(s, e.Nodes)
		for i := 0; i < e.InitialNodes; i++ {
			if !members[i] {
				t.Fatalf("%s: initial node %d not a member", pat, i)
			}
		}
		for i := e.InitialNodes; i < e.Nodes; i++ {
			if members[i] {
				t.Fatalf("%s: joiner %d is an initial member", pat, i)
			}
		}
	}
}
