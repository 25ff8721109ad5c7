package fault

import (
	"slices"
	"testing"

	"rocket/internal/sim"
)

// A probe sharing a timestamp with a fault event observes the post-event
// world; a probe before the event observes the pre-event world.
func TestArmProbesObservesPostEventState(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s := new(Schedule).
		Crash(1, sim.Millis(5)).
		Restart(1, sim.Millis(9))
	inj, err := NewInjector(env, []int{1, 1}, s, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[sim.Time]bool{}
	probes := []Probe{
		{At: sim.Millis(4), Node: 1, Fn: func(alive bool) { got[sim.Millis(4)] = alive }},
		{At: sim.Millis(5), Node: 1, Fn: func(alive bool) { got[sim.Millis(5)] = alive }},
		{At: sim.Millis(9), Node: 1, Fn: func(alive bool) { got[sim.Millis(9)] = alive }},
	}
	ArmProbes(env, inj, probes)
	env.RunUntil(sim.Millis(10))
	want := map[sim.Time]bool{
		sim.Millis(4): true,  // before the crash
		sim.Millis(5): false, // same tick as the crash: post-event
		sim.Millis(9): true,  // same tick as the restart: post-event
	}
	for at, w := range want {
		if got[at] != w {
			t.Errorf("probe at %v observed alive=%v, want %v", at, got[at], w)
		}
	}
}

// Nil injector is the failure-free world: every probe observes alive.
func TestArmProbesNilInjector(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	fired := 0
	ArmProbes(env, nil, []Probe{
		{At: sim.Millis(1), Node: 0, Fn: func(alive bool) {
			fired++
			if !alive {
				t.Error("nil injector reported a dead node")
			}
		}},
		{At: sim.Millis(2), Node: 7, Fn: func(alive bool) {
			fired++
			if !alive {
				t.Error("nil injector reported a dead node")
			}
		}},
	})
	env.RunUntil(sim.Millis(3))
	if fired != 2 {
		t.Fatalf("fired %d probes, want 2", fired)
	}
}

// Probes observe the same health trajectory under either event loop, with
// arrivals at every probe and fault instant (as the sharded probes once
// did at every shard width).
func TestArmShardedProbesAcrossWidths(t *testing.T) {
	s := new(Schedule).
		Crash(2, sim.Millis(3)).
		Crash(6, sim.Millis(3)).
		Restart(6, sim.Millis(7))
	probeAt := []sim.Time{sim.Millis(2), sim.Millis(3), sim.Millis(7), sim.Millis(9)}
	all := underBothLoops(probeAt, sim.Millis(10), func(env *sim.Env) func() []bool {
		inj, err := NewInjector(env, []int{1, 1, 1, 1, 1, 1, 1, 1}, s, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]bool, 2*len(probeAt))
		var probes []Probe
		for i, at := range probeAt {
			i := i
			probes = append(probes,
				Probe{At: at, Node: 2, Fn: func(alive bool) { obs[2*i] = alive }},
				Probe{At: at, Node: 6, Fn: func(alive bool) { obs[2*i+1] = alive }})
		}
		ArmProbes(env, inj, probes)
		return func() []bool { return obs }
	})
	want := []bool{
		true, true, // t=2ms: both alive
		false, false, // t=3ms: both crashed (post-event)
		false, true, // t=7ms: node 6 restarted
		false, true, // t=9ms: steady state
	}
	for loop, obs := range all {
		if !slices.Equal(obs, want) {
			t.Fatalf("loop %d: observations = %v, want %v", loop, obs, want)
		}
	}
}
