// Package fault implements deterministic fault injection for the Rocket
// simulation. A Schedule is a list of timed events — node crashes and
// restarts, per-GPU straggler windows, and link partitions or degradations
// — expressed in virtual time. An Injector arms the schedule on a sim.Env
// and maintains the resulting cluster health state, which the runtime
// wires into the network (liveness, link state, message drops), the GPU
// devices (kernel throttling), and its own crash/restart recovery hooks.
//
// Everything is driven by the discrete-event clock: the same schedule,
// seed, and workload always produce the same run, which is what lets the
// resilience experiment report reproducible completion-time inflation and
// lets tests assert exact recovery behavior.
package fault

import (
	"fmt"
	"sort"

	"rocket/internal/sim"
)

// EventKind discriminates scheduled fault events.
type EventKind int

const (
	// NodeCrash fail-stops a node: its volatile state (caches, deques,
	// pending protocol tables) is lost and messages to or from it drop.
	NodeCrash EventKind = iota
	// NodeRestart rejoins a crashed node with cold caches and idle workers.
	NodeRestart
	// GPUSlowdown multiplies one device's kernel durations by Factor
	// (>= 1) from the event time onward; Factor == 1 restores full speed.
	GPUSlowdown
	// LinkDown partitions the (symmetric) link between nodes A and B.
	LinkDown
	// LinkUp heals a partitioned link.
	LinkUp
	// LinkDegrade multiplies the link's propagation latency and
	// serialization time by LatencyFactor and BandwidthFactor (>= 1);
	// 1/1 restores the healthy link.
	LinkDegrade
	// NodeJoin brings a node into the fleet mid-run. A node whose first
	// membership event (in firing order) is a join starts the run absent:
	// dead to the fabric, its protocol loops unarmed (see InitialMembers).
	NodeJoin
	// NodePreempt is a scheduled departure (spot reclaim): the node leaves
	// permanently. Unlike OnCrash, the OnPreempt hook runs BEFORE the
	// liveness flip — the drain window in which the departing node's last
	// sends are still admitted by the fabric.
	NodePreempt
)

// kindNames is the fault vocabulary: the one spelling of every kind that
// scenario files, wire records and reports share.
var kindNames = [...]string{
	NodeCrash:   "crash",
	NodeRestart: "restart",
	GPUSlowdown: "gpu-slow",
	LinkDown:    "link-down",
	LinkUp:      "link-up",
	LinkDegrade: "link-degrade",
	NodeJoin:    "join",
	NodePreempt: "preempt",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault.EventKind(%d)", int(k))
}

// ParseKind is the inverse of EventKind.String.
func ParseKind(name string) (EventKind, error) {
	for k, n := range kindNames {
		if n == name {
			return EventKind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown event kind %q", name)
}

// FleetOnly reports whether the kind needs the OnJoin/OnPreempt hooks,
// which only the fleet workload wires: the all-pairs runtime has no
// notion of a node entering or leaving, so it refuses such events.
func (k EventKind) FleetOnly() bool { return k == NodeJoin || k == NodePreempt }

// Event is one scheduled fault. Which fields matter depends on Kind (see
// Canonical).
type Event struct {
	At   sim.Time
	Kind EventKind
	// Node is the target of the membership kinds (NodeCrash, NodeRestart,
	// NodeJoin, NodePreempt) and of GPUSlowdown.
	Node int
	// GPU is the device index within Node (GPUSlowdown).
	GPU int
	// Factor is the GPUSlowdown multiplier (>= 1; 1 restores).
	Factor float64
	// A and B are the link endpoints (LinkDown, LinkUp, LinkDegrade);
	// links are symmetric.
	A, B int
	// LatencyFactor and BandwidthFactor are the LinkDegrade multipliers
	// (>= 1; both 1 restores).
	LatencyFactor   float64
	BandwidthFactor float64
}

// Schedule is an ordered set of fault events. The zero value is an empty
// (fault-free) schedule; the builder methods append and return the
// receiver for chaining.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Crash appends a fail-stop of node at the given time.
func (s *Schedule) Crash(node int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: NodeCrash, Node: node})
	return s
}

// Restart appends a rejoin of node at the given time.
func (s *Schedule) Restart(node int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: NodeRestart, Node: node})
	return s
}

// Join appends a mid-run arrival of node at the given time. A node whose
// first membership event is a join starts the run absent.
func (s *Schedule) Join(node int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: NodeJoin, Node: node})
	return s
}

// Preempt appends a scheduled departure (spot reclaim) of node at the
// given time. Preempted nodes never return; rejoining requires a Join.
func (s *Schedule) Preempt(node int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: NodePreempt, Node: node})
	return s
}

// SlowGPU appends a straggler window start: from at onward, kernels on
// device gpu of node take factor times their nominal duration.
func (s *Schedule) SlowGPU(node, gpu int, at sim.Time, factor float64) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: GPUSlowdown, Node: node, GPU: gpu, Factor: factor})
	return s
}

// RestoreGPU appends the end of a straggler window.
func (s *Schedule) RestoreGPU(node, gpu int, at sim.Time) *Schedule {
	return s.SlowGPU(node, gpu, at, 1)
}

// CutLink appends a symmetric partition of the link between a and b.
func (s *Schedule) CutLink(a, b int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: LinkDown, A: a, B: b})
	return s
}

// RestoreLink appends the healing of a partitioned link.
func (s *Schedule) RestoreLink(a, b int, at sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: LinkUp, A: a, B: b})
	return s
}

// DegradeLink appends a symmetric degradation of the link between a and b:
// latency is multiplied by latF and serialization time by bwF from at
// onward. DegradeLink(a, b, at, 1, 1) restores the healthy link.
func (s *Schedule) DegradeLink(a, b int, at sim.Time, latF, bwF float64) *Schedule {
	s.Events = append(s.Events, Event{
		At: at, Kind: LinkDegrade, A: a, B: b,
		LatencyFactor: latF, BandwidthFactor: bwF,
	})
	return s
}

// Canonical returns ev with every field its Kind does not use zeroed: the
// per-kind field rule, kept beside Validate's per-kind checks. Decoders
// fill all fields and canonicalize, so an event compiled from a scenario
// file or a wire record equals the one the builder methods append.
func (ev Event) Canonical() Event {
	c := Event{At: ev.At, Kind: ev.Kind}
	switch ev.Kind {
	case NodeCrash, NodeRestart, NodeJoin, NodePreempt:
		c.Node = ev.Node
	case GPUSlowdown:
		c.Node, c.GPU, c.Factor = ev.Node, ev.GPU, ev.Factor
	case LinkDegrade:
		c.LatencyFactor, c.BandwidthFactor = ev.LatencyFactor, ev.BandwidthFactor
		fallthrough
	case LinkDown, LinkUp:
		c.A, c.B = ev.A, ev.B
	}
	return c
}

// Validate checks every event against the platform shape: gpus[i] is the
// number of devices of node i (len(gpus) is the node count). Beyond
// per-event shape checks (node and GPU indices in range, link endpoints
// in range and distinct, factors >= 1), it replays the schedule in firing
// order against the membership state machine (see validateMembership):
// restarts scheduled at-or-before their crash, joins of current members,
// and crashes/restarts/preemptions of nodes that are absent or have
// departed are all rejected — each is a transposition or composition error
// the injector would silently turn into a no-op or a resurrection.
func (s *Schedule) Validate(gpus []int) error {
	if s == nil {
		return nil
	}
	p := len(gpus)
	checkNode := func(i int, n int) error {
		if n < 0 || n >= p {
			return fmt.Errorf("fault: event %d: node %d out of range [0, %d)", i, n, p)
		}
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case NodeCrash, NodeRestart, NodeJoin, NodePreempt:
			if err := checkNode(i, ev.Node); err != nil {
				return err
			}
		case GPUSlowdown:
			if err := checkNode(i, ev.Node); err != nil {
				return err
			}
			if ev.GPU < 0 || ev.GPU >= gpus[ev.Node] {
				return fmt.Errorf("fault: event %d: node %d has no GPU %d", i, ev.Node, ev.GPU)
			}
			if ev.Factor < 1 {
				return fmt.Errorf("fault: event %d: GPU factor %v < 1", i, ev.Factor)
			}
		case LinkDown, LinkUp, LinkDegrade:
			if err := checkNode(i, ev.A); err != nil {
				return err
			}
			if err := checkNode(i, ev.B); err != nil {
				return err
			}
			if ev.A == ev.B {
				return fmt.Errorf("fault: event %d: link endpoints equal (%d)", i, ev.A)
			}
			if ev.Kind == LinkDegrade && (ev.LatencyFactor < 1 || ev.BandwidthFactor < 1) {
				return fmt.Errorf("fault: event %d: link factors %v/%v < 1",
					i, ev.LatencyFactor, ev.BandwidthFactor)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return s.validateMembership(p)
}

// memberState is the per-node position in the membership state machine the
// validation replay tracks. Nodes without a leading join start present.
type memberState uint8

const (
	memberPresent memberState = iota
	memberCrashed
	memberAbsent   // not yet joined
	memberDeparted // preempted; permanent
)

// validateMembership replays crash/restart/join/preempt events in firing
// order (time order, schedule order for ties — exactly how NewInjector
// arms them) against a per-node state machine {absent, present, crashed,
// departed} and rejects transitions that can never apply: joins of members,
// preemptions or crashes of non-members, restarts of departed or absent
// nodes, and — the original restart-order rule — restarts that fire while
// their node is alive when a later crash of the same node exists (such a
// restart is scheduled at-or-before its crash and the node would stay dead
// forever).
func (s *Schedule) validateMembership(p int) error {
	order := firingOrder(s.Events)
	// crashLater[k] is true when, at firing position k, some later firing
	// position holds a crash of the same node.
	crashLater := make([]bool, len(order))
	pending := make([]bool, p)
	for k := len(order) - 1; k >= 0; k-- {
		ev := s.Events[order[k]]
		if ev.Kind != NodeCrash && ev.Kind != NodeRestart {
			continue
		}
		crashLater[k] = pending[ev.Node]
		if ev.Kind == NodeCrash {
			pending[ev.Node] = true
		}
	}
	state := initialStates(s.Events, order, p)
	for k, idx := range order {
		ev := s.Events[idx]
		switch ev.Kind {
		case NodeCrash:
			switch state[ev.Node] {
			case memberAbsent:
				return fmt.Errorf("fault: event %d: crash of node %d at %v before its join", idx, ev.Node, ev.At)
			case memberDeparted:
				return fmt.Errorf("fault: event %d: crash of node %d at %v after its preemption", idx, ev.Node, ev.At)
			}
			state[ev.Node] = memberCrashed
		case NodeRestart:
			switch state[ev.Node] {
			case memberAbsent:
				return fmt.Errorf("fault: event %d: restart of node %d at %v before its join", idx, ev.Node, ev.At)
			case memberDeparted:
				return fmt.Errorf("fault: event %d: restart of node %d at %v after its preemption (preempted nodes rejoin with Join)", idx, ev.Node, ev.At)
			case memberPresent:
				if crashLater[k] {
					return fmt.Errorf(
						"fault: event %d: restart of node %d at %v fires before its crash (restarts must be scheduled strictly after the crash they heal)",
						idx, ev.Node, ev.At)
				}
			}
			state[ev.Node] = memberPresent
		case NodeJoin:
			switch state[ev.Node] {
			case memberPresent, memberCrashed:
				return fmt.Errorf("fault: event %d: join of node %d at %v while it is a member", idx, ev.Node, ev.At)
			}
			state[ev.Node] = memberPresent
		case NodePreempt:
			switch state[ev.Node] {
			case memberAbsent:
				return fmt.Errorf("fault: event %d: preempt of node %d at %v before its join", idx, ev.Node, ev.At)
			case memberDeparted:
				return fmt.Errorf("fault: event %d: preempt of node %d at %v after its preemption", idx, ev.Node, ev.At)
			}
			state[ev.Node] = memberDeparted
		}
	}
	return nil
}

// initialStates derives the t=0 membership from the firing order: a node
// whose first membership event is a NodeJoin starts absent; every other
// node starts present.
func initialStates(events []Event, order []int, p int) []memberState {
	state := make([]memberState, p)
	seen := make([]bool, p)
	for _, idx := range order {
		ev := events[idx]
		switch ev.Kind {
		case NodeCrash, NodeRestart, NodeJoin, NodePreempt:
			if !seen[ev.Node] {
				seen[ev.Node] = true
				if ev.Kind == NodeJoin {
					state[ev.Node] = memberAbsent
				}
			}
		}
	}
	return state
}

// InitialMembers returns the t=0 membership the schedule implies over a
// fleet of p nodes: members[i] is false exactly when node i's first
// membership event in firing order is a NodeJoin — such a node starts the
// run absent (dead to the fabric, loops unarmed) and enters at its join.
// A nil or churn-free schedule yields all-true.
func InitialMembers(s *Schedule, p int) []bool {
	members := make([]bool, p)
	for i := range members {
		members[i] = true
	}
	if s == nil {
		return members
	}
	for i, st := range initialStates(s.Events, firingOrder(s.Events), p) {
		members[i] = st != memberAbsent
	}
	return members
}

// firingOrder returns event indices in firing order: ascending time,
// original schedule order for equal timestamps. This is the exact order
// NewInjector arms events in.
func firingOrder(events []Event) []int {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return events[order[a]].At < events[order[b]].At
	})
	return order
}

// Hooks are the runtime's recovery callbacks, invoked in scheduler context
// after the injector has updated its own state (so a hook observing
// Alive/Link/GPUFactor sees the post-event world) — with one documented
// exception: OnPreempt runs BEFORE the liveness flip. A preemption is a
// scheduled departure with a drain window, and the hook is that window:
// sends the departing node issues inside OnPreempt are still admitted by
// a fabric consulting Alive, which is what lets it hand its remaining
// work to a peer on the way out.
type Hooks struct {
	OnCrash   func(node int)
	OnRestart func(node int)
	// OnJoin fires when a NodeJoin brings a node in (post-flip: the node
	// is already alive). The fleet layer arms the node's protocol loops
	// here.
	OnJoin func(node int)
	// OnPreempt fires when a NodePreempt departs a node, BEFORE the
	// liveness flip (see above).
	OnPreempt func(node int)
}

// linkKey normalizes a symmetric link to (min, max).
func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

type linkHealth struct {
	down bool
	latF float64
	bwF  float64
}

// Injector is the armed form of a Schedule: it owns the evolving health
// state and exposes the query hooks the cluster layers consume. All
// methods must be called from the Env's scheduler goroutine.
type Injector struct {
	alive []bool
	gpuF  map[[2]int]float64
	links map[[2]int]linkHealth
	// restartsLeft counts not-yet-fired NodeRestart events; recovery uses
	// it to decide whether an all-dead partition can still heal.
	restartsLeft int
	hooks        Hooks
}

// NewInjector validates the schedule against the platform shape (gpus[i] =
// number of devices of node i) and arms every event on env.
//
// Tie-break contract: events sharing a timestamp fire in schedule order
// (the stable firing order of Schedule.Validate). This is a documented,
// tested invariant — chaos-generated schedules routinely collide on
// timestamps (a zone outage crashes a whole zone at one instant), and the
// apply order decides which hook runs first.
func NewInjector(env *sim.Env, gpus []int, s *Schedule, hooks Hooks) (*Injector, error) {
	if err := s.Validate(gpus); err != nil {
		return nil, err
	}
	inj := &Injector{
		// Initial liveness is the schedule's implied t=0 membership: nodes
		// with a leading join start absent (dead to every query) and flip
		// alive when the join fires.
		alive: InitialMembers(s, len(gpus)),
		gpuF:  make(map[[2]int]float64),
		links: make(map[[2]int]linkHealth),
		hooks: hooks,
	}
	for _, idx := range firingOrder(s.Events) {
		ev := s.Events[idx]
		if ev.Kind == NodeRestart {
			inj.restartsLeft++
		}
		env.At(ev.At, func() { inj.apply(ev) })
	}
	return inj, nil
}

// apply transitions the health state for one event and runs the matching
// hook. Redundant events (crashing a dead node, healing a healthy link)
// are no-ops so schedules compose without bookkeeping.
func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case NodeCrash:
		if !inj.alive[ev.Node] {
			return
		}
		inj.alive[ev.Node] = false
		if inj.hooks.OnCrash != nil {
			inj.hooks.OnCrash(ev.Node)
		}
	case NodeRestart:
		inj.restartsLeft--
		if inj.alive[ev.Node] {
			return
		}
		inj.alive[ev.Node] = true
		if inj.hooks.OnRestart != nil {
			inj.hooks.OnRestart(ev.Node)
		}
	case NodeJoin:
		if inj.alive[ev.Node] {
			return
		}
		inj.alive[ev.Node] = true
		if inj.hooks.OnJoin != nil {
			inj.hooks.OnJoin(ev.Node)
		}
	case NodePreempt:
		if !inj.alive[ev.Node] {
			return
		}
		// Drain window: the hook runs while the node is still alive, so
		// its parting sends are admitted; the flip follows immediately.
		if inj.hooks.OnPreempt != nil {
			inj.hooks.OnPreempt(ev.Node)
		}
		inj.alive[ev.Node] = false
	case GPUSlowdown:
		key := [2]int{ev.Node, ev.GPU}
		if ev.Factor == 1 {
			delete(inj.gpuF, key)
			return
		}
		inj.gpuF[key] = ev.Factor
	case LinkDown:
		lh := inj.links[linkKey(ev.A, ev.B)]
		lh.down = true
		inj.links[linkKey(ev.A, ev.B)] = lh
	case LinkUp:
		lh := inj.links[linkKey(ev.A, ev.B)]
		lh.down = false
		inj.setOrClear(linkKey(ev.A, ev.B), lh)
	case LinkDegrade:
		lh := inj.links[linkKey(ev.A, ev.B)]
		lh.latF, lh.bwF = ev.LatencyFactor, ev.BandwidthFactor
		inj.setOrClear(linkKey(ev.A, ev.B), lh)
	}
}

func (inj *Injector) setOrClear(key [2]int, lh linkHealth) {
	if !lh.down && (lh.latF == 0 || lh.latF == 1) && (lh.bwF == 0 || lh.bwF == 1) {
		delete(inj.links, key)
		return
	}
	inj.links[key] = lh
}

// Alive reports node liveness.
func (inj *Injector) Alive(node int) bool { return inj.alive[node] }

// RestartsPending reports whether any NodeRestart event has yet to fire —
// i.e. whether an all-dead partition can still heal on its own.
func (inj *Injector) RestartsPending() bool { return inj.restartsLeft > 0 }

// GPUFactor returns the current straggler multiplier for a device (1 when
// healthy).
func (inj *Injector) GPUFactor(node, gpu int) float64 {
	if f, ok := inj.gpuF[[2]int{node, gpu}]; ok {
		return f
	}
	return 1
}

// Link returns the health of the (symmetric) link between two nodes: up,
// plus the latency and serialization-time multipliers (1 when healthy).
func (inj *Injector) Link(from, to int) (up bool, latF, bwF float64) {
	lh, ok := inj.links[linkKey(from, to)]
	if !ok {
		return true, 1, 1
	}
	latF, bwF = lh.latF, lh.bwF
	if latF == 0 {
		latF = 1
	}
	if bwF == 0 {
		bwF = 1
	}
	return !lh.down, latF, bwF
}
