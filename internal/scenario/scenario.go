// Package scenario is the declarative front door to Rocket's robustness
// testing: YAML files describe a platform, a fault script or a seeded
// chaos storm, and a set of assertions, and the runner executes them over
// the deterministic simulation and renders a replayable report. The same
// scenario file with the same seed always produces the byte-identical
// report, so a scenario is simultaneously a stress test, a regression
// test, and a reproduction recipe.
//
// Two shapes of scenario exist. A regular scenario names an explicit
// fleet and scripts individual fault events ("crash node 3 at 5ms") with
// timed assertions about the world ("node 3 is dead at 6ms"). A stress
// scenario generates its fleet from weighted hardware templates
// (fleet_gen) and samples its fault stream from a seeded chaos
// configuration — thousand-node storms that remain exactly replayable.
package scenario

import (
	"fmt"

	"rocket/internal/fault"
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Modes.
const (
	// ModePairs runs an all-pairs application through the Rocket runtime.
	ModePairs = "pairs"
	// ModeFleet runs the fleet protocol workload.
	ModeFleet = "fleet"
)

// Assertion kinds.
const (
	AssertNodeDead      = "node-dead"
	AssertNodeAlive     = "node-alive"
	AssertPairsComplete = "pairs-complete"
	AssertMetric        = "metric"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	Mode        string
	Seed        uint64
	// Duration is the fleet-mode horizon; pairs-mode runs end when the
	// computation completes.
	Duration sim.Time

	// App is the pairs-mode application ("forensics", "microscopy",
	// "bioinformatics") and data-set size.
	App AppSpec
	// Fleet is the explicit platform of a regular scenario.
	Fleet FleetSpec
	// Gen generates the platform of a stress scenario.
	Gen *FleetGen
	// Chaos samples the fault stream of a stress scenario. Its seed,
	// fleet size, GPU shape, horizon and zones are the scenario's, filled
	// in on a copy when the faults are compiled.
	Chaos *fault.ChaosConfig
	// Elastic generates seeded fleet churn (arrival patterns plus spot
	// preemption) in fleet mode; seed, fleet size and horizon are the
	// scenario's. Mutually exclusive with chaos — one generated fault
	// source per scenario; scripted events compose with it (validated
	// against the merged schedule at run time).
	Elastic *fault.Elasticity
	// Events script the fault stream of a regular scenario, in file order
	// and canonical form (see fault.Event.Canonical).
	Events []fault.Event
	// Asserts are evaluated inside virtual time (timed kinds) or against
	// the run summary (metric kinds).
	Asserts []Assertion
}

// AppSpec names the pairs-mode application.
type AppSpec struct {
	Kind  string
	Items int
}

// FleetSpec is an explicit homogeneous platform.
type FleetSpec struct {
	Nodes       int
	GPUsPerNode int
	DistCache   bool
}

// Template is one weighted hardware class of a generated fleet.
type Template struct {
	Name   string
	Weight int
	GPUs   int
}

// Startup patterns.
const (
	StartupInstant     = "instant"
	StartupLinear      = "linear"
	StartupExponential = "exponential"
	StartupWave        = "wave"
)

// Startup staggers node boot across the fleet.
type Startup struct {
	Pattern string
	// Over is the window the boots are spread across (all but instant).
	Over sim.Time
	// Waves is the cohort count of the wave pattern.
	Waves int
}

// FleetGen generates a heterogeneous fleet from weighted templates.
type FleetGen struct {
	Nodes     int
	Zones     int
	Templates []Template
	Startup   Startup
}

// Assertion is one check. Timed kinds (node-dead, node-alive) carry At;
// metric kinds carry a name and at least one bound.
type Assertion struct {
	Kind   string
	At     sim.Time
	Node   int
	Metric string
	Min    float64
	Max    float64
	HasMin bool
	HasMax bool
}

// describe renders the assertion for reports.
func (a Assertion) describe() string {
	switch a.Kind {
	case AssertNodeDead, AssertNodeAlive:
		return fmt.Sprintf("%s node=%d at=%v", a.Kind, a.Node, a.At)
	case AssertPairsComplete:
		return "pairs-complete"
	default:
		s := fmt.Sprintf("metric %s", a.Metric)
		if a.HasMin {
			s += fmt.Sprintf(" min=%v", a.Min)
		}
		if a.HasMax {
			s += fmt.Sprintf(" max=%v", a.Max)
		}
		return s
	}
}

// Parse decodes and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	var derr error
	o := newObj(root, "scenario", &derr)
	sc := &Scenario{
		Name:        o.str("name", ""),
		Description: o.str("description", ""),
		Mode:        o.str("mode", ModePairs),
		Seed:        o.unsigned("seed", 1),
		Duration:    o.dur("duration", 0),
	}
	if app := o.child("app"); app != nil {
		sc.App = AppSpec{Kind: app.str("kind", "forensics"), Items: app.integer("items", 0)}
		app.finish()
	}
	if fl := o.child("fleet"); fl != nil {
		sc.Fleet = FleetSpec{
			Nodes:       fl.integer("nodes", 0),
			GPUsPerNode: fl.integer("gpus_per_node", 1),
			DistCache:   fl.boolean("dist_cache", false),
		}
		fl.finish()
	}
	if gen := o.child("fleet_gen"); gen != nil {
		sc.Gen = decodeFleetGen(gen)
	}
	if ch := o.child("chaos"); ch != nil {
		sc.Chaos = decodeChaos(ch)
	}
	if el := o.child("elasticity"); el != nil {
		sc.Elastic = &fault.Elasticity{
			InitialNodes:    el.integer("initial_nodes", 1),
			Arrival:         el.str("arrival", fault.ArrivalInstant),
			Over:            el.dur("over", 0),
			Waves:           el.integer("waves", 0),
			ColdStartJitter: el.dur("cold_start_jitter", 0),
			PreemptFraction: el.float("preempt_fraction", 0),
			PreemptAfter:    el.dur("preempt_after", 0),
		}
		el.finish()
	}
	for i, n := range o.list("events") {
		ev := decodeEvent(newObj(n, fmt.Sprintf("events[%d]", i), &derr))
		sc.Events = append(sc.Events, ev)
	}
	for i, n := range o.list("assertions") {
		a := decodeAssertion(newObj(n, fmt.Sprintf("assertions[%d]", i), &derr))
		sc.Asserts = append(sc.Asserts, a)
	}
	o.finish()
	if derr != nil {
		return nil, derr
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func decodeFleetGen(o *obj) *FleetGen {
	g := &FleetGen{
		Nodes: o.integer("nodes", 0),
		Zones: o.integer("zones", 0),
	}
	for i, n := range o.list("templates") {
		to := newObj(n, fmt.Sprintf("fleet_gen.templates[%d]", i), o.err)
		g.Templates = append(g.Templates, Template{
			Name:   to.str("name", fmt.Sprintf("t%d", i)),
			Weight: to.integer("weight", 1),
			GPUs:   to.integer("gpus", 1),
		})
		to.finish()
	}
	if st := o.child("startup"); st != nil {
		g.Startup = Startup{
			Pattern: st.str("pattern", StartupInstant),
			Over:    st.dur("over", 0),
			Waves:   st.integer("waves", 4),
		}
		st.finish()
	} else {
		g.Startup = Startup{Pattern: StartupInstant}
	}
	o.finish()
	return g
}

func decodeChaos(o *obj) *fault.ChaosConfig {
	c := &fault.ChaosConfig{
		CrashFraction:   o.float("crash_fraction", 0),
		RestartFraction: o.float("restart_fraction", 0),
		MinDowntime:     o.dur("min_downtime", 0),
		MaxDowntime:     o.dur("max_downtime", 0),

		StragglerFraction: o.float("straggler_fraction", 0),
		StragglerFactor:   o.float("straggler_factor", 1),
		StragglerWindow:   o.dur("straggler_window", 0),

		LinkFaults:          o.integer("link_faults", 0),
		LinkCutFraction:     o.float("link_cut_fraction", 1),
		LinkWindow:          o.dur("link_window", 0),
		LinkLatencyFactor:   o.float("link_latency_factor", 1),
		LinkBandwidthFactor: o.float("link_bandwidth_factor", 1),
	}
	if ca := o.child("cascades"); ca != nil {
		c.CascadeCount = ca.integer("count", 0)
		c.CascadeSize = ca.integer("size", 1)
		c.CascadeSpacing = ca.dur("spacing", 0)
		ca.finish()
	}
	if zo := o.child("zone_outages"); zo != nil {
		c.ZoneOutages = zo.integer("count", 0)
		c.ZoneOutageDuration = zo.dur("duration", 0)
		zo.finish()
	}
	o.finish()
	return c
}

func decodeEvent(o *obj) fault.Event {
	at := o.dur("at", 0)
	kind, err := fault.ParseKind(o.str("kind", ""))
	if err != nil {
		o.fail("%s.kind: %v", o.path, err)
	}
	ev := fault.Event{
		At:              at,
		Kind:            kind,
		Node:            o.integer("node", 0),
		GPU:             o.integer("gpu", 0),
		A:               o.integer("a", 0),
		B:               o.integer("b", 0),
		Factor:          o.float("factor", 1),
		LatencyFactor:   o.float("latency_factor", 1),
		BandwidthFactor: o.float("bandwidth_factor", 1),
	}
	o.finish()
	return ev.Canonical()
}

func decodeAssertion(o *obj) Assertion {
	a := Assertion{
		Kind:   o.str("assert", ""),
		At:     o.dur("at", 0),
		Node:   o.integer("node", 0),
		Metric: o.str("name", ""),
	}
	if n := o.get("min"); n != nil {
		a.HasMin = true
		a.Min = o.float("min", 0)
	}
	if n := o.get("max"); n != nil {
		a.HasMax = true
		a.Max = o.float("max", 0)
	}
	o.finish()
	return a
}

// validate checks cross-field semantics once decode succeeded.
func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	switch sc.Mode {
	case ModePairs:
		if sc.App.Items < 2 {
			return fmt.Errorf("scenario %s: pairs mode needs app.items >= 2, got %d", sc.Name, sc.App.Items)
		}
		if sc.Fleet.Nodes < 1 {
			return fmt.Errorf("scenario %s: pairs mode needs fleet.nodes >= 1", sc.Name)
		}
		if sc.Fleet.GPUsPerNode < 1 {
			return fmt.Errorf("scenario %s: fleet.gpus_per_node must be >= 1", sc.Name)
		}
		if sc.Gen != nil {
			return fmt.Errorf("scenario %s: fleet_gen is fleet-mode only", sc.Name)
		}
		if sc.Chaos != nil {
			return fmt.Errorf("scenario %s: chaos is fleet-mode only; script pairs-mode faults as events", sc.Name)
		}
		if sc.Elastic != nil {
			return fmt.Errorf("scenario %s: elasticity is fleet-mode only", sc.Name)
		}
	case ModeFleet:
		if sc.Duration <= 0 {
			return fmt.Errorf("scenario %s: fleet mode needs a positive duration", sc.Name)
		}
		if (sc.Gen == nil) == (sc.Fleet.Nodes == 0) {
			return fmt.Errorf("scenario %s: fleet mode needs exactly one of fleet or fleet_gen", sc.Name)
		}
		if sc.Gen == nil && (sc.Fleet.Nodes < 1 || sc.Fleet.GPUsPerNode < 1) {
			return fmt.Errorf("scenario %s: fleet.nodes and fleet.gpus_per_node must be >= 1", sc.Name)
		}
		if sc.App.Items != 0 {
			return fmt.Errorf("scenario %s: app is pairs-mode only", sc.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown mode %q (want %q or %q)", sc.Name, sc.Mode, ModePairs, ModeFleet)
	}
	if sc.Chaos != nil && len(sc.Events) > 0 {
		return fmt.Errorf("scenario %s: chaos and events are mutually exclusive (one fault source per scenario)", sc.Name)
	}
	if sc.Elastic != nil && sc.Chaos != nil {
		return fmt.Errorf("scenario %s: elasticity and chaos are mutually exclusive (one generated fault source per scenario)", sc.Name)
	}
	if sc.Elastic != nil {
		// Shape-check the generator now so a broken elasticity section
		// fails at parse, not mid-run.
		if err := sc.elasticity().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if sc.Gen != nil {
		if err := sc.Gen.validate(sc.Name); err != nil {
			return err
		}
	}
	nodes := sc.nodeCount()
	for i, ev := range sc.Events {
		if ev.At <= 0 {
			return fmt.Errorf("scenario %s: events[%d]: at must be positive", sc.Name, i)
		}
		if sc.Mode == ModePairs && ev.Kind.FleetOnly() {
			return fmt.Errorf("scenario %s: events[%d]: %v is fleet-mode only", sc.Name, i, ev.Kind)
		}
	}
	for i, a := range sc.Asserts {
		switch a.Kind {
		case AssertNodeDead, AssertNodeAlive:
			if a.At <= 0 {
				return fmt.Errorf("scenario %s: assertions[%d]: timed assertion needs at", sc.Name, i)
			}
			if a.Node < 0 || a.Node >= nodes {
				return fmt.Errorf("scenario %s: assertions[%d]: node %d outside fleet of %d", sc.Name, i, a.Node, nodes)
			}
			if sc.Mode == ModeFleet && a.At > sc.Duration {
				return fmt.Errorf("scenario %s: assertions[%d]: at %v beyond duration %v", sc.Name, i, a.At, sc.Duration)
			}
		case AssertPairsComplete:
			if sc.Mode != ModePairs {
				return fmt.Errorf("scenario %s: assertions[%d]: pairs-complete is pairs-mode only", sc.Name, i)
			}
		case AssertMetric:
			if a.Metric == "" {
				return fmt.Errorf("scenario %s: assertions[%d]: metric assertion needs name", sc.Name, i)
			}
			if !a.HasMin && !a.HasMax {
				return fmt.Errorf("scenario %s: assertions[%d]: metric assertion needs min and/or max", sc.Name, i)
			}
			if a.HasMin && a.HasMax && a.Min > a.Max {
				return fmt.Errorf("scenario %s: assertions[%d]: min %v > max %v", sc.Name, i, a.Min, a.Max)
			}
		case "":
			return fmt.Errorf("scenario %s: assertions[%d]: assert kind is required", sc.Name, i)
		default:
			return fmt.Errorf("scenario %s: assertions[%d]: unknown assertion %q", sc.Name, i, a.Kind)
		}
	}
	// Compiling the fault schedule validates event targets and ordering
	// (restart-after-crash, endpoint ranges) against the platform shape.
	if _, err := sc.CompileFaults(); err != nil {
		return err
	}
	return nil
}

func (g *FleetGen) validate(name string) error {
	if g.Nodes < 2 {
		return fmt.Errorf("scenario %s: fleet_gen.nodes must be >= 2, got %d", name, g.Nodes)
	}
	if len(g.Templates) == 0 {
		return fmt.Errorf("scenario %s: fleet_gen needs at least one template", name)
	}
	for i, t := range g.Templates {
		if t.Weight < 1 {
			return fmt.Errorf("scenario %s: fleet_gen.templates[%d]: weight must be >= 1", name, i)
		}
		if t.GPUs < 1 {
			return fmt.Errorf("scenario %s: fleet_gen.templates[%d]: gpus must be >= 1", name, i)
		}
	}
	switch g.Startup.Pattern {
	case StartupInstant:
	case StartupLinear, StartupExponential:
		if g.Startup.Over <= 0 {
			return fmt.Errorf("scenario %s: fleet_gen.startup: pattern %q needs over", name, g.Startup.Pattern)
		}
	case StartupWave:
		if g.Startup.Over <= 0 || g.Startup.Waves < 1 {
			return fmt.Errorf("scenario %s: fleet_gen.startup: wave needs over and waves >= 1", name)
		}
	default:
		return fmt.Errorf("scenario %s: fleet_gen.startup: unknown pattern %q", name, g.Startup.Pattern)
	}
	return nil
}

// nodeCount returns the platform size.
func (sc *Scenario) nodeCount() int {
	if sc.Gen != nil {
		return sc.Gen.Nodes
	}
	return sc.Fleet.Nodes
}

// gpuShape returns the per-node device counts of the platform.
func (sc *Scenario) gpuShape() []int {
	if sc.Gen != nil {
		return sc.Gen.gpuShape(sc.Seed)
	}
	shape := make([]int, sc.Fleet.Nodes)
	for i := range shape {
		shape[i] = sc.Fleet.GPUsPerNode
	}
	return shape
}

// gpuShape assigns a template to every node by seeded weighted sampling
// and returns the per-node device counts. The assignment is a pure
// function of (gen, seed): stress fleets are heterogeneous but exactly
// reproducible.
func (g *FleetGen) gpuShape(seed uint64) []int {
	total := 0
	for _, t := range g.Templates {
		total += t.Weight
	}
	rng := stats.NewRNG(seed ^ 0x464c4545) // "FLEE"
	shape := make([]int, g.Nodes)
	for i := range shape {
		pick := rng.Intn(total)
		for _, t := range g.Templates {
			if pick < t.Weight {
				shape[i] = t.GPUs
				break
			}
			pick -= t.Weight
		}
	}
	return shape
}

// startTimes returns the per-node boot offsets of the startup pattern
// (nil for instant boot, which keeps the fleet on its bit-identical
// fast path).
func (g *FleetGen) startTimes() []sim.Time {
	if g.Startup.Pattern == StartupInstant {
		return nil
	}
	at := make([]sim.Time, g.Nodes)
	switch g.Startup.Pattern {
	case StartupLinear:
		for i := range at {
			at[i] = sim.Time(int64(g.Startup.Over) * int64(i) / int64(g.Nodes))
		}
	case StartupExponential:
		// Doubling cohorts: node 0 boots at 0, nodes 1-2 after one step,
		// nodes 3-6 after two, ... — the shape of a peer-to-peer join wave.
		steps := 0
		for c := 1; c < g.Nodes; c *= 2 {
			steps++
		}
		if steps == 0 {
			steps = 1
		}
		for i := range at {
			level := 0
			for c := 1; i >= c; c = c*2 + 1 {
				level++
			}
			at[i] = sim.Time(int64(g.Startup.Over) * int64(level) / int64(steps))
		}
	case StartupWave:
		for i := range at {
			wave := i * g.Startup.Waves / g.Nodes
			at[i] = sim.Time(int64(g.Startup.Over) * int64(wave) / int64(g.Startup.Waves))
		}
	}
	return at
}

// CompileFaults builds the scenario's fault schedule: scripted events in
// file order, or the chaos storm sampled from the scenario seed. The
// schedule is validated against the platform's GPU shape. Fault-free
// scenarios return nil, which keeps runs on the engine's fast paths.
func (sc *Scenario) CompileFaults() (*fault.Schedule, error) {
	var s *fault.Schedule
	var err error
	switch {
	case sc.Chaos != nil:
		cc := *sc.Chaos
		cc.Seed, cc.Nodes, cc.GPUs, cc.Duration = sc.Seed, sc.nodeCount(), sc.gpuShape(), sc.Duration
		if sc.Gen != nil {
			cc.Zones = sc.Gen.Zones
		}
		s, err = cc.Generate()
	case len(sc.Events) > 0:
		s = &fault.Schedule{Events: append([]fault.Event(nil), sc.Events...)}
		err = s.Validate(sc.gpuShape())
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return s, nil
}

// elasticity is the churn generator with the scenario's fleet size,
// seed, and horizon filled in.
func (sc *Scenario) elasticity() fault.Elasticity {
	e := *sc.Elastic
	e.Seed, e.Nodes, e.Duration = sc.Seed, sc.nodeCount(), sc.Duration
	return e
}
