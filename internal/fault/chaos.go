package fault

import (
	"fmt"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

// ChaosConfig parameterizes a seeded fault storm: independent crashes
// with optional restarts, straggler GPU windows, link cuts/degradations,
// cascading failures that roll through contiguous node runs, and zone
// outages that fail-stop a whole zone at one instant. Generate samples an
// event stream from Seed with a single deterministic generator, so the
// same config always yields the byte-identical Schedule — chaos runs are
// replayable by construction, never "flaky but interesting".
//
// All fractions are of the fleet (or of the device population); rates are
// not wall-clock — everything is placed inside the virtual horizon
// [0, Duration].
type ChaosConfig struct {
	// Seed drives all sampling.
	Seed uint64
	// Nodes is the fleet size.
	Nodes int
	// GPUs is the per-node device count shape used for straggler targets
	// and schedule validation; nil means one device per node (the fleet
	// workload's shape).
	GPUs []int
	// Duration is the virtual horizon events are placed in.
	Duration sim.Time
	// Zones partitions the fleet into contiguous zones (rack/failure
	// domains) for zone outages; 0 or 1 disables zone structure.
	Zones int

	// CrashFraction of the fleet fail-stops at independent times.
	CrashFraction float64
	// RestartFraction of the crashed nodes rejoin after a downtime drawn
	// uniformly from [MinDowntime, MaxDowntime].
	RestartFraction float64
	MinDowntime     sim.Time
	MaxDowntime     sim.Time

	// StragglerFraction of all devices slow down by StragglerFactor for a
	// StragglerWindow, then recover.
	StragglerFraction float64
	StragglerFactor   float64
	StragglerWindow   sim.Time

	// LinkFaults random node pairs suffer a link fault: LinkCutFraction
	// of them are hard partitions, the rest degrade by the latency and
	// bandwidth factors; every link heals after LinkWindow.
	LinkFaults          int
	LinkCutFraction     float64
	LinkWindow          sim.Time
	LinkLatencyFactor   float64
	LinkBandwidthFactor float64

	// CascadeCount correlated failures roll through CascadeSize
	// contiguous nodes, one crash every CascadeSpacing; cascade victims
	// do not restart (a cascade models a shared root cause).
	CascadeCount   int
	CascadeSize    int
	CascadeSpacing sim.Time

	// ZoneOutages whole zones crash at a single timestamp (deliberately
	// colliding — the tie-break contract is load-bearing here) and
	// restart together after ZoneOutageDuration.
	ZoneOutages        int
	ZoneOutageDuration sim.Time
}

// zoneRange returns the half-open node interval [lo, hi) of zone z.
func zoneRange(z, nodes, zones int) (lo, hi int) {
	if zones <= 1 {
		return 0, nodes
	}
	if zones > nodes {
		zones = nodes
	}
	lo = (z*nodes + zones - 1) / zones
	hi = ((z+1)*nodes + zones - 1) / zones
	return lo, hi
}

// validate rejects shapes Generate cannot place sensibly.
func (c ChaosConfig) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("fault: chaos over %d nodes", c.Nodes)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("fault: chaos needs a positive horizon, got %v", c.Duration)
	}
	if c.GPUs != nil && len(c.GPUs) != c.Nodes {
		return fmt.Errorf("fault: chaos GPU shape has %d entries for %d nodes", len(c.GPUs), c.Nodes)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"crash_fraction", c.CrashFraction},
		{"restart_fraction", c.RestartFraction},
		{"straggler_fraction", c.StragglerFraction},
		{"link_cut_fraction", c.LinkCutFraction},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: chaos %s %v outside [0, 1]", f.name, f.v)
		}
	}
	if c.StragglerFraction > 0 && c.StragglerFactor < 1 {
		return fmt.Errorf("fault: chaos straggler factor %v < 1", c.StragglerFactor)
	}
	if c.LinkFaults > 0 && c.LinkCutFraction < 1 &&
		(c.LinkLatencyFactor < 1 || c.LinkBandwidthFactor < 1) {
		return fmt.Errorf("fault: chaos link factors %v/%v < 1",
			c.LinkLatencyFactor, c.LinkBandwidthFactor)
	}
	if c.LinkFaults > 0 && c.Nodes < 2 {
		return fmt.Errorf("fault: chaos link faults need at least 2 nodes")
	}
	if c.CascadeCount > 0 && c.CascadeSize < 1 {
		return fmt.Errorf("fault: chaos cascade size %d < 1", c.CascadeSize)
	}
	if c.ZoneOutages > 0 && c.Zones < 2 {
		return fmt.Errorf("fault: chaos zone outages need zones >= 2, got %d", c.Zones)
	}
	return nil
}

// gpuShape returns the validation shape: c.GPUs or one device per node.
func (c ChaosConfig) gpuShape() []int {
	if c.GPUs != nil {
		return c.GPUs
	}
	ones := make([]int, c.Nodes)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

// Generate samples the fault storm into a Schedule whose events are in
// firing order (ascending time, generation order for ties). The result
// always passes Validate against the config's GPU shape: no-op restarts
// that a later crash would orphan are pruned (they would be no-ops at
// apply time anyway — the injector ignores restarts of live nodes).
func (c ChaosConfig) Generate() (*Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(c.Seed ^ 0x43484153) // "CHAS"
	d := float64(c.Duration)
	at := func(lo, hi float64) sim.Time {
		return sim.Time(d*lo + rng.Float64()*d*(hi-lo))
	}
	var events []Event

	// A single shuffled permutation feeds every node-victim draw, so the
	// independent crash and straggler pools never collide with each other.
	perm := make([]int, c.Nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := c.Nodes - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := 0
	take := func(k int) []int {
		if next+k > len(perm) {
			k = len(perm) - next
		}
		v := perm[next : next+k]
		next += k
		return v
	}

	// Independent crashes, placed early enough that downtimes fit.
	crashes := int(c.CrashFraction*float64(c.Nodes) + 0.5)
	restarts := int(c.RestartFraction*float64(crashes) + 0.5)
	for i, node := range take(crashes) {
		t := at(0.10, 0.75)
		events = append(events, Event{At: t, Kind: NodeCrash, Node: node})
		if i < restarts {
			down := c.MinDowntime
			if c.MaxDowntime > c.MinDowntime {
				down += sim.Time(rng.Float64() * float64(c.MaxDowntime-c.MinDowntime))
			}
			if down <= 0 {
				down = c.Duration / 10
			}
			events = append(events, Event{At: t + down, Kind: NodeRestart, Node: node})
		}
	}

	// Straggler windows over the device population.
	gpus := c.gpuShape()
	if c.StragglerFraction > 0 {
		total := 0
		for _, g := range gpus {
			total += g
		}
		count := int(c.StragglerFraction*float64(total) + 0.5)
		for _, node := range take(count) {
			g := 0
			if gpus[node] > 1 {
				g = rng.Intn(gpus[node])
			}
			t := at(0.05, 0.60)
			events = append(events,
				Event{At: t, Kind: GPUSlowdown, Node: node, GPU: g, Factor: c.StragglerFactor},
				Event{At: t + c.StragglerWindow, Kind: GPUSlowdown, Node: node, GPU: g, Factor: 1})
		}
	}

	// Link faults between random distinct pairs.
	cuts := int(c.LinkCutFraction*float64(c.LinkFaults) + 0.5)
	for i := 0; i < c.LinkFaults; i++ {
		a := rng.Intn(c.Nodes)
		b := rng.Intn(c.Nodes - 1)
		if b >= a {
			b++
		}
		t := at(0.05, 0.70)
		if i < cuts {
			events = append(events,
				Event{At: t, Kind: LinkDown, A: a, B: b},
				Event{At: t + c.LinkWindow, Kind: LinkUp, A: a, B: b})
		} else {
			events = append(events,
				Event{At: t, Kind: LinkDegrade, A: a, B: b,
					LatencyFactor: c.LinkLatencyFactor, BandwidthFactor: c.LinkBandwidthFactor},
				Event{At: t + c.LinkWindow, Kind: LinkDegrade, A: a, B: b,
					LatencyFactor: 1, BandwidthFactor: 1})
		}
	}

	// Cascades: a shared root cause rolls through a contiguous node run.
	for i := 0; i < c.CascadeCount; i++ {
		size := c.CascadeSize
		if size > c.Nodes {
			size = c.Nodes
		}
		start := rng.Intn(c.Nodes)
		t := at(0.15, 0.60)
		for k := 0; k < size; k++ {
			events = append(events, Event{
				At:   t + sim.Time(k)*c.CascadeSpacing,
				Kind: NodeCrash,
				Node: (start + k) % c.Nodes,
			})
		}
	}

	// Zone outages: every node of the zone crashes at one shared
	// timestamp and the zone restarts together.
	for i := 0; i < c.ZoneOutages; i++ {
		z := rng.Intn(c.Zones)
		t := at(0.20, 0.65)
		lo, hi := zoneRange(z, c.Nodes, c.Zones)
		for n := lo; n < hi; n++ {
			events = append(events, Event{At: t, Kind: NodeCrash, Node: n})
		}
		if c.ZoneOutageDuration > 0 {
			for n := lo; n < hi; n++ {
				events = append(events, Event{At: t + c.ZoneOutageDuration, Kind: NodeRestart, Node: n})
			}
		}
	}

	s := &Schedule{Events: sortAndPrune(events, c.Nodes)}
	if err := s.Validate(gpus); err != nil {
		// Unreachable by construction; kept as a hard backstop so a
		// generator bug can never smuggle an invalid schedule into a run.
		return nil, fmt.Errorf("fault: chaos generated an invalid schedule: %w", err)
	}
	return s, nil
}

// sortAndPrune puts events into firing order (stable by time) and drops
// restarts that would fire while their node is alive: those are no-ops to
// the injector, and pruning them keeps composed storms (a zone outage
// overlapping an independent crash's recovery) within Validate's
// restart-order rule without changing any applied transition.
func sortAndPrune(events []Event, nodes int) []Event {
	order := firingOrder(events)
	alive := make([]bool, nodes)
	for i := range alive {
		alive[i] = true
	}
	out := make([]Event, 0, len(events))
	for _, idx := range order {
		ev := events[idx]
		switch ev.Kind {
		case NodeCrash:
			alive[ev.Node] = false
		case NodeRestart:
			if alive[ev.Node] {
				continue
			}
			alive[ev.Node] = true
		}
		out = append(out, ev)
	}
	return out
}
