package fault

import "rocket/internal/sim"

// Probe is one timed health observation: at virtual time At, Fn receives
// the liveness of Node as the injector sees it. Probes are how scenario
// assertions (assert_node_dead, assert_node_alive) read fault state from
// inside virtual time instead of re-deriving it from the schedule.
//
// Probes are armed after the schedule's own events, so a probe sharing a
// timestamp with a fault event observes the post-event world — crash at t
// plus assert_node_dead at t passes.
type Probe struct {
	At   sim.Time
	Node int
	// Fn runs in scheduler context on the env the probe was armed on. It
	// must not block.
	Fn func(alive bool)
}

// ArmProbes schedules probes on env against inj. A nil injector is the
// failure-free world: every probe observes alive. Call it after
// NewInjector so same-timestamp fault events fire first.
func ArmProbes(env *sim.Env, inj *Injector, probes []Probe) {
	for _, p := range probes {
		p := p
		env.At(p.At, func() {
			p.Fn(inj == nil || inj.Alive(p.Node))
		})
	}
}
