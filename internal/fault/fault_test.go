package fault

import (
	"testing"

	"rocket/internal/sim"
)

// aliveCount returns the number of live nodes.
func (inj *Injector) aliveCount() int {
	n := 0
	for _, a := range inj.alive {
		if a {
			n++
		}
	}
	return n
}

func TestScheduleValidate(t *testing.T) {
	gpus := []int{2, 1}
	cases := []*Schedule{
		new(Schedule).Crash(2, 0),
		new(Schedule).Crash(-1, 0),
		new(Schedule).Crash(0, -sim.Second),
		new(Schedule).SlowGPU(0, 2, 0, 2),
		new(Schedule).SlowGPU(0, 0, 0, 0.5),
		new(Schedule).CutLink(0, 0, 0),
		new(Schedule).CutLink(0, 5, 0),
		new(Schedule).DegradeLink(0, 1, 0, 0.5, 1),
	}
	for i, s := range cases {
		if err := s.Validate(gpus); err == nil {
			t.Errorf("case %d: invalid schedule accepted: %+v", i, s.Events)
		}
	}
	ok := new(Schedule).
		Crash(1, sim.Second).
		Restart(1, 2*sim.Second).
		SlowGPU(0, 1, 0, 4).
		CutLink(0, 1, sim.Second).
		RestoreLink(0, 1, 2*sim.Second).
		DegradeLink(0, 1, 3*sim.Second, 2, 8)
	if err := ok.Validate(gpus); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	var nilSched *Schedule
	if !nilSched.Empty() || !new(Schedule).Empty() {
		t.Fatal("Empty misreported")
	}
	if err := nilSched.Validate(gpus); err != nil {
		t.Fatal("nil schedule must validate")
	}
}

func TestInjectorLifecycle(t *testing.T) {
	e := sim.NewEnv()
	s := new(Schedule).
		Crash(1, sim.Second).
		SlowGPU(0, 0, sim.Second, 3).
		CutLink(0, 2, sim.Second).
		Restart(1, 3*sim.Second).
		RestoreGPU(0, 0, 3*sim.Second).
		RestoreLink(0, 2, 3*sim.Second)
	var crashes, restarts []int
	inj, err := NewInjector(e, []int{1, 1, 1}, s, Hooks{
		OnCrash:   func(n int) { crashes = append(crashes, n) },
		OnRestart: func(n int) { restarts = append(restarts, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Alive(1) || inj.aliveCount() != 3 || !inj.RestartsPending() {
		t.Fatal("initial state wrong")
	}
	e.RunUntil(2 * sim.Second)
	if inj.Alive(1) || inj.aliveCount() != 2 {
		t.Fatal("crash not applied")
	}
	if f := inj.GPUFactor(0, 0); f != 3 {
		t.Fatalf("GPUFactor = %v, want 3", f)
	}
	if up, _, _ := inj.Link(2, 0); up {
		t.Fatal("cut link still up (symmetric lookup)")
	}
	if up, latF, bwF := inj.Link(0, 1); !up || latF != 1 || bwF != 1 {
		t.Fatal("untouched link not healthy")
	}
	e.RunUntil(4 * sim.Second)
	e.Close()
	if !inj.Alive(1) || inj.RestartsPending() {
		t.Fatal("restart not applied")
	}
	if f := inj.GPUFactor(0, 0); f != 1 {
		t.Fatalf("restored GPUFactor = %v", f)
	}
	if up, _, _ := inj.Link(0, 2); !up {
		t.Fatal("link not restored")
	}
	if len(crashes) != 1 || crashes[0] != 1 || len(restarts) != 1 || restarts[0] != 1 {
		t.Fatalf("hooks: crashes=%v restarts=%v", crashes, restarts)
	}
}

func TestInjectorRedundantEventsAreNoOps(t *testing.T) {
	e := sim.NewEnv()
	s := new(Schedule).
		Crash(0, sim.Second).
		Crash(0, sim.Second). // second crash of a dead node
		Restart(0, 2*sim.Second).
		Restart(0, 2*sim.Second) // second restart of a live node
	var crashes, restarts int
	if _, err := NewInjector(e, []int{1}, s, Hooks{
		OnCrash:   func(int) { crashes++ },
		OnRestart: func(int) { restarts++ },
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	e.Close()
	if crashes != 1 || restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", crashes, restarts)
	}
}

func TestInjectorLinkDegradation(t *testing.T) {
	e := sim.NewEnv()
	s := new(Schedule).
		DegradeLink(0, 1, 0, 2, 8).
		DegradeLink(0, 1, sim.Second, 1, 1)
	inj, err := NewInjector(e, []int{1, 1}, s, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Millis(500))
	if up, latF, bwF := inj.Link(1, 0); !up || latF != 2 || bwF != 8 {
		t.Fatalf("degraded link = %v/%v/%v", up, latF, bwF)
	}
	e.RunUntil(2 * sim.Second)
	e.Close()
	if up, latF, bwF := inj.Link(0, 1); !up || latF != 1 || bwF != 1 {
		t.Fatalf("restored link = %v/%v/%v", up, latF, bwF)
	}
	if len(inj.links) != 0 {
		t.Fatal("healthy link not cleared from the map")
	}
}

// The restart-order rule: a restart that fires while its node is alive
// and has a later crash can never heal that crash — Validate rejects it.
func TestValidateRestartOrder(t *testing.T) {
	gpus := []int{1, 1}
	bad := []*Schedule{
		// Plainly transposed times.
		new(Schedule).Restart(0, sim.Second).Crash(0, 2*sim.Second),
		// Same timestamp, restart earlier in schedule order: it fires
		// first (while alive) and the crash lands after it.
		new(Schedule).Restart(0, sim.Second).Crash(0, sim.Second),
		// A healed first crash does not excuse a transposed second pair.
		new(Schedule).
			Crash(0, sim.Second).Restart(0, 2*sim.Second).
			Restart(0, 3*sim.Second).Crash(0, 4*sim.Second),
	}
	for i, s := range bad {
		if err := s.Validate(gpus); err == nil {
			t.Errorf("case %d: restart-before-crash accepted: %+v", i, s.Events)
		}
	}
	good := []*Schedule{
		// Crash then restart at the very same timestamp heals: ties fire
		// in schedule order.
		new(Schedule).Crash(0, sim.Second).Restart(0, sim.Second),
		// Interleaved lifecycles on one node.
		new(Schedule).
			Crash(0, sim.Second).Restart(0, 2*sim.Second).
			Crash(0, 3*sim.Second).Restart(0, 4*sim.Second),
		// A lone restart with no crash anywhere is a tolerated no-op
		// (schedules compose; see TestInjectorRedundantEventsAreNoOps).
		new(Schedule).Restart(1, sim.Second),
		// A redundant restart after a healed crash, with no further
		// crash, is equally harmless.
		new(Schedule).
			Crash(0, sim.Second).Restart(0, 2*sim.Second).Restart(0, 3*sim.Second),
	}
	for i, s := range good {
		if err := s.Validate(gpus); err != nil {
			t.Errorf("case %d: valid lifecycle rejected: %v", i, err)
		}
	}
}

// Link endpoints must be in range for the fleet for every link kind, not
// just LinkDown.
func TestValidateLinkEndpointRange(t *testing.T) {
	gpus := []int{1, 1, 1}
	bad := []*Schedule{
		new(Schedule).RestoreLink(0, 3, 0),
		new(Schedule).RestoreLink(-1, 1, 0),
		new(Schedule).DegradeLink(1, 7, 0, 2, 2),
		new(Schedule).DegradeLink(2, 2, 0, 2, 2),
		new(Schedule).CutLink(3, 4, 0),
	}
	for i, s := range bad {
		if err := s.Validate(gpus); err == nil {
			t.Errorf("case %d: out-of-range link endpoints accepted: %+v", i, s.Events)
		}
	}
}

// Same-timestamp events apply in schedule order — the documented
// tie-break. Crash-then-restart at one instant leaves the node alive;
// slowdown-then-restore leaves the device healthy, and the reverse
// orders leave it dead / throttled.
func TestInjectorTieBreakIsScheduleOrder(t *testing.T) {
	at := sim.Millis(1)
	run := func(s *Schedule) *Injector {
		t.Helper()
		e := sim.NewEnv()
		inj, err := NewInjector(e, []int{1, 1}, s, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		e.Close()
		return inj
	}
	inj := run(new(Schedule).Crash(0, at).Restart(0, at))
	if !inj.Alive(0) {
		t.Fatal("crash;restart at one timestamp must end alive")
	}
	inj = run(new(Schedule).SlowGPU(1, 0, at, 4).RestoreGPU(1, 0, at))
	if f := inj.GPUFactor(1, 0); f != 1 {
		t.Fatalf("slow;restore at one timestamp: factor = %v, want 1", f)
	}
	inj = run(new(Schedule).RestoreGPU(1, 0, at).SlowGPU(1, 0, at, 4))
	if f := inj.GPUFactor(1, 0); f != 4 {
		t.Fatalf("restore;slow at one timestamp: factor = %v, want 4", f)
	}
	inj = run(new(Schedule).CutLink(0, 1, at).RestoreLink(0, 1, at))
	if up, _, _ := inj.Link(0, 1); !up {
		t.Fatal("cut;restore at one timestamp must end up")
	}
}

// underBothLoops runs an injector set up by run under the Env's own event
// loop and under the fleet's (sim.Arrivals), the latter with a message
// arriving at every instant in at so that arrivals and fault events
// collide, and returns what each run observed.
func underBothLoops[T any](at []sim.Time, until sim.Time, run func(env *sim.Env) (observe func() T)) []T {
	var out []T
	for _, arrivals := range []bool{false, true} {
		env := sim.NewEnv()
		observe := run(env)
		if arrivals {
			q := sim.NewArrivals(env, func(int) {})
			for _, t := range at {
				q.Push(t, 0, 0)
			}
			q.RunUntil(until)
		} else {
			env.RunUntil(until)
		}
		out = append(out, observe())
		env.Close()
	}
	return out
}

func TestShardedInjectorValidates(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s := new(Schedule).Crash(99, sim.Millis(1))
	if _, err := NewInjector(env, []int{1, 1}, s, Hooks{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// Chaos-style colliding timestamps (a whole zone crashing at one instant,
// straggler flaps at the same tick) resolve to the same health state under
// either event loop — the tie-break contract the sharded injector was
// once held to at every shard width.
func TestShardedTieBreakInvariantAcrossWidths(t *testing.T) {
	const nodes = 16
	gpus := make([]int, nodes)
	for i := range gpus {
		gpus[i] = 2
	}
	at := sim.Millis(5)
	s := &Schedule{}
	for n := 4; n < 12; n++ { // "zone" 4..11 dies at one timestamp
		s.Crash(n, at)
	}
	for n := 4; n < 12; n++ {
		s.Restart(n, at+sim.Millis(3))
	}
	s.Crash(6, at+sim.Millis(3)) // collides with the zone restart wave
	s.SlowGPU(0, 1, at, 4).RestoreGPU(0, 1, at).SlowGPU(0, 1, at, 8)
	s.CutLink(3, 12, at).RestoreLink(3, 12, at).CutLink(3, 12, at)

	type state struct {
		alive [nodes]bool
		gpuF  float64
		lin   bool
	}
	states := underBothLoops([]sim.Time{at, at + sim.Millis(3)}, sim.Millis(20), func(env *sim.Env) func() state {
		inj, err := NewInjector(env, gpus, s, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		return func() (st state) {
			for n := 0; n < nodes; n++ {
				st.alive[n] = inj.Alive(n)
			}
			st.gpuF = inj.GPUFactor(0, 1)
			up, _, _ := inj.Link(3, 12)
			st.lin = up
			return st
		}
	})
	if states[1] != states[0] {
		t.Fatalf("the arrival loop diverged: %+v != %+v", states[1], states[0])
	}
	if states[0].gpuF != 8 {
		t.Fatalf("gpu factor = %v, want 8 (last writer at the tick wins)", states[0].gpuF)
	}
	if states[0].lin {
		t.Fatal("link must end down (last writer at the tick wins)")
	}
	if states[0].alive[6] {
		t.Fatal("node 6: restart wave then crash at one tick must end dead")
	}
	for n := 4; n < 12; n++ {
		if n != 6 && !states[0].alive[n] {
			t.Fatalf("node %d: the restart wave did not bring it back", n)
		}
	}
}

// The kind names are the vocabulary scenario files and wire records are
// written in; this table was captured before ParseKind existed and must
// never change. Every kind round-trips through String and ParseKind, and
// a name outside the vocabulary is refused.
func TestKindNamesRoundTrip(t *testing.T) {
	names := map[EventKind]string{
		NodeCrash:   "crash",
		NodeRestart: "restart",
		GPUSlowdown: "gpu-slow",
		LinkDown:    "link-down",
		LinkUp:      "link-up",
		LinkDegrade: "link-degrade",
		NodeJoin:    "join",
		NodePreempt: "preempt",
	}
	for k := NodeCrash; k <= NodePreempt; k++ {
		if k.String() != names[k] {
			t.Fatalf("kind %d spelled %q, want %q", int(k), k.String(), names[k])
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", k.String(), back, err, k)
		}
	}
	for _, name := range []string{"", "melt", "Crash", "fault.EventKind(8)"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}

// Canonical keeps exactly the fields the builder methods set for a kind.
func TestCanonicalMatchesBuilders(t *testing.T) {
	full := func(k EventKind) Event {
		return Event{At: 7, Kind: k, Node: 1, GPU: 2, Factor: 3, A: 4, B: 5, LatencyFactor: 6, BandwidthFactor: 8}
	}
	s := new(Schedule).Crash(1, 7).Restart(1, 7).Join(1, 7).Preempt(1, 7).
		SlowGPU(1, 2, 7, 3).CutLink(4, 5, 7).RestoreLink(4, 5, 7).DegradeLink(4, 5, 7, 6, 8)
	for _, want := range s.Events {
		if got := full(want.Kind).Canonical(); got != want {
			t.Errorf("%v: Canonical = %+v, want %+v", want.Kind, got, want)
		}
	}
}
