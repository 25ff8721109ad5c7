package sched

import (
	"fmt"
	"sort"

	"rocket/internal/sim"
)

// Preemption is one scheduled spot reclaim: the provider takes node Node
// back at virtual time At, whatever the scheduler is doing with it. A free
// or warming node simply departs; a leased node crashes inside the
// running job's partition (the job drains through steal-based harvest and
// is requeued on partition loss, exactly like any other node failure).
type Preemption struct {
	Node int
	At   sim.Time
}

// Autoscale is the elastic-fleet policy: the scheduler starts with
// BootNodes active nodes out of a Config.Nodes-slot capacity and grows or
// shrinks the active set against queue depth.
//
// Scale-up is demand-driven: after every placement round the scheduler
// provisions enough absent slots to cover the pending jobs' unmet node
// demand. New capacity becomes usable ProvisionDelay after the decision;
// a zero delay models a warm pool whose capacity is usable at the same
// instant.
//
// Scale-down is idleness-driven: a free node that stays unleased for
// IdleTimeout is released back to the provider (never dropping the active
// set below MinNodes). Released slots can be re-provisioned later.
//
// Everything is decided in virtual time from deterministic state, so an
// elastic fleet is exactly as replayable as a fixed one.
type Autoscale struct {
	// MinNodes is the scale-down floor; 0 defaults to 1.
	MinNodes int
	// BootNodes is the active set at t=0; 0 defaults to MinNodes.
	BootNodes int
	// ProvisionDelay is the cold-start latency of new capacity; 0 models
	// a warm pool (same-instant availability).
	ProvisionDelay sim.Time
	// IdleTimeout retires a node idle this long; 0 never scales down.
	IdleTimeout sim.Time
	// Preemptions are scheduled spot reclaims.
	Preemptions []Preemption
}

func (a Autoscale) normalize(nodes int) (Autoscale, error) {
	if a.MinNodes == 0 {
		a.MinNodes = 1
	}
	if a.MinNodes < 1 || a.MinNodes > nodes {
		return a, fmt.Errorf("sched: autoscale MinNodes %d outside [1, %d]", a.MinNodes, nodes)
	}
	if a.BootNodes == 0 {
		a.BootNodes = a.MinNodes
	}
	if a.BootNodes < a.MinNodes || a.BootNodes > nodes {
		return a, fmt.Errorf("sched: autoscale BootNodes %d outside [%d, %d]", a.BootNodes, a.MinNodes, nodes)
	}
	if a.ProvisionDelay < 0 || a.IdleTimeout < 0 {
		return a, fmt.Errorf("sched: negative autoscale delay")
	}
	seen := make(map[int]bool, len(a.Preemptions))
	for _, p := range a.Preemptions {
		if p.Node < 0 || p.Node >= nodes {
			return a, fmt.Errorf("sched: preemption targets node %d of %d", p.Node, nodes)
		}
		if p.At <= 0 {
			return a, fmt.Errorf("sched: preemption of node %d at non-positive time %v", p.Node, p.At)
		}
		if seen[p.Node] {
			return a, fmt.Errorf("sched: node %d preempted twice", p.Node)
		}
		seen[p.Node] = true
	}
	return a, nil
}

type slotState uint8

const (
	slotAbsent slotState = iota
	slotProvisioning
	slotFree
	slotLeased
	slotDeparted
)

// slot is one capacity slot of the elastic pool. IDs are the shared
// cluster's node IDs; a slot cycles absent → provisioning → free ⇄ leased
// and leaves via idle retirement (back to absent) or preemption
// (departed for good).
type slot struct {
	state       slotState
	readyAt     sim.Time // provisioning: when it becomes free
	idleSince   sim.Time // free: when it last became idle
	activeSince sim.Time // free/leased: start of the current billing span
	preemptAt   sim.Time // scheduled reclaim; 0 = none
}

// elasticPool tracks slot lifecycles and the exact node-seconds bill.
// Cost accrues per slot over [activeSince, retirement] — provisioning
// time is free, reclaim stops the meter even mid-lease.
type elasticPool struct {
	policy Autoscale
	slots  []slot

	nodeSeconds float64
	scaleUps    int
	scaleDowns  int
	preempted   int
	peak        int
	finished    bool
}

func newElasticPool(a Autoscale, nodes int) *elasticPool {
	p := &elasticPool{policy: a, slots: make([]slot, nodes)}
	for i := 0; i < a.BootNodes; i++ {
		p.slots[i].state = slotFree
	}
	for _, pre := range a.Preemptions {
		p.slots[pre.Node].preemptAt = pre.At
	}
	p.peak = a.BootNodes
	return p
}

// initialFree returns the boot-time free pool, ascending.
func (p *elasticPool) initialFree() []int {
	free := make([]int, 0, p.policy.BootNodes)
	for i, s := range p.slots {
		if s.state == slotFree {
			free = append(free, i)
		}
	}
	return free
}

// activeCount is the committed capacity: usable plus warming slots. The
// scale-down floor is measured against it.
func (p *elasticPool) activeCount() int {
	n := 0
	for _, s := range p.slots {
		switch s.state {
		case slotProvisioning, slotFree, slotLeased:
			n++
		}
	}
	return n
}

func (p *elasticPool) usableCount() int {
	n := 0
	for _, s := range p.slots {
		if s.state == slotFree || s.state == slotLeased {
			n++
		}
	}
	return n
}

func (p *elasticPool) notePeak() {
	if u := p.usableCount(); u > p.peak {
		p.peak = u
	}
}

// nextReady reports the earliest provisioning completion, so the
// scheduler's clock never jumps over the instant capacity comes online.
func (p *elasticPool) nextReady() (sim.Time, bool) {
	var t sim.Time
	ok := false
	for _, s := range p.slots {
		if s.state == slotProvisioning && (!ok || s.readyAt < t) {
			t, ok = s.readyAt, true
		}
	}
	return t, ok
}

// ready promotes provisioning slots whose delay elapsed by clock and
// returns their IDs (ascending) for the free pool. Promotion is
// retroactively exact: billing and idleness start at readyAt, not at the
// clock that happened to observe it.
func (p *elasticPool) ready(clock sim.Time) []int {
	var ids []int
	for i := range p.slots {
		s := &p.slots[i]
		if s.state == slotProvisioning && s.readyAt <= clock {
			s.state = slotFree
			s.idleSince = s.readyAt
			s.activeSince = s.readyAt
			ids = append(ids, i)
		}
	}
	if ids != nil {
		p.notePeak()
	}
	return ids
}

// retire processes scale-downs and free/warming-slot preemptions due by
// clock, retroactively at their exact expiry instants, and reports the
// retired slot IDs (the scheduler removes them from its free pool).
// Candidates retire in expiry order, ties broken by descending ID so the
// low IDs that leases prefer stay stable. Idle retirement respects the
// MinNodes floor; preemption does not — the provider is not asking.
func (p *elasticPool) retire(clock sim.Time) []int {
	type cand struct {
		id      int
		at      sim.Time
		preempt bool
	}
	var cands []cand
	for i := range p.slots {
		s := &p.slots[i]
		switch s.state {
		case slotProvisioning:
			if s.preemptAt > 0 && s.preemptAt <= clock {
				// Reclaimed before it ever came online: no billing span.
				s.state = slotDeparted
				p.preempted++
			}
		case slotFree:
			if s.preemptAt > 0 && s.preemptAt <= clock {
				cands = append(cands, cand{i, s.preemptAt, true})
				continue
			}
			if p.policy.IdleTimeout > 0 {
				if exp := s.idleSince + p.policy.IdleTimeout; exp <= clock {
					cands = append(cands, cand{i, exp, false})
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].at != cands[j].at {
			return cands[i].at < cands[j].at
		}
		return cands[i].id > cands[j].id
	})
	var retired []int
	for _, c := range cands {
		s := &p.slots[c.id]
		if !c.preempt && p.activeCount() <= p.policy.MinNodes {
			continue
		}
		p.nodeSeconds += (c.at - s.activeSince).Seconds()
		if c.preempt {
			s.state = slotDeparted
			p.preempted++
		} else {
			s.state = slotAbsent
			p.scaleDowns++
		}
		retired = append(retired, c.id)
	}
	return retired
}

// provision commits up to want absent slots, lowest IDs first. Warm
// capacity (zero delay) is returned as immediately-free IDs; cold
// capacity warms until clock+delay.
func (p *elasticPool) provision(want int, clock sim.Time) (freeNow []int) {
	for i := range p.slots {
		if want <= 0 {
			break
		}
		s := &p.slots[i]
		if s.state != slotAbsent {
			continue
		}
		if s.preemptAt > 0 && s.preemptAt <= clock {
			continue // already reclaimed; not capacity anymore
		}
		want--
		p.scaleUps++
		if p.policy.ProvisionDelay == 0 {
			s.state = slotFree
			s.idleSince = clock
			s.activeSince = clock
			freeNow = append(freeNow, i)
		} else {
			s.state = slotProvisioning
			s.readyAt = clock + p.policy.ProvisionDelay
		}
	}
	if freeNow != nil {
		p.notePeak()
	}
	return freeNow
}

// lease marks slot id leased. The billing span keeps running.
func (p *elasticPool) lease(id int) { p.slots[id].state = slotLeased }

// release returns a lease's slots at job end time. A slot whose scheduled
// reclaim fired during the lease departs (its crash already happened
// inside the job); the rest go back to the free pool. Returns the IDs
// that are free again, ascending by construction of the caller's lease.
func (p *elasticPool) release(ids []int, end sim.Time) []int {
	var free []int
	for _, id := range ids {
		s := &p.slots[id]
		if s.preemptAt > 0 && s.preemptAt <= end {
			p.nodeSeconds += (s.preemptAt - s.activeSince).Seconds()
			s.state = slotDeparted
			p.preempted++
			continue
		}
		s.state = slotFree
		s.idleSince = end
		free = append(free, id)
	}
	return free
}

// finish closes the books at the makespan: every still-active slot is
// billed to the end of the run. Idempotent.
func (p *elasticPool) finish(makespan sim.Time) {
	if p.finished {
		return
	}
	p.finished = true
	for i := range p.slots {
		s := &p.slots[i]
		switch s.state {
		case slotFree, slotLeased:
			if makespan > s.activeSince {
				p.nodeSeconds += (makespan - s.activeSince).Seconds()
			}
		}
	}
}
