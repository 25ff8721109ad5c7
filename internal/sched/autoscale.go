package sched

import (
	"fmt"
	"sort"

	"rocket/internal/sim"
)

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
	return a, nil
}

type slotState uint8

const (
	slotAbsent slotState = iota
	slotProvisioning
	slotFree
	slotLeased
)

// slot is one capacity slot of the elastic pool. IDs are the shared
// cluster's node IDs; a slot cycles absent → provisioning → free ⇄ leased
// and goes back to absent on idle retirement.
type slot struct {
	state       slotState
	readyAt     sim.Time // provisioning: when it becomes free
	idleSince   sim.Time // free: when it last became idle
	activeSince sim.Time // free/leased: start of the current billing span
}

// elasticPool tracks slot lifecycles and the exact node-seconds bill.
// Cost accrues per slot over [activeSince, retirement]; provisioning
// time is free.
type elasticPool struct {
	policy Autoscale
	slots  []slot

	nodeSeconds float64
	scaleUps    int
	scaleDowns  int
	peak        int
	finished    bool
}

func newElasticPool(a Autoscale, nodes int) *elasticPool {
	p := &elasticPool{policy: a, slots: make([]slot, nodes)}
	for i := 0; i < a.BootNodes; i++ {
		p.slots[i].state = slotFree
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

// retire processes the scale-downs due by clock, retroactively at their
// exact expiry instants, and reports the retired slot IDs (the scheduler
// removes them from its free pool). Slots retire in expiry order, ties
// broken by descending ID so the low IDs that leases prefer stay stable,
// and never below the MinNodes floor.
func (p *elasticPool) retire(clock sim.Time) []int {
	if p.policy.IdleTimeout == 0 {
		return nil
	}
	type cand struct {
		id int
		at sim.Time
	}
	var cands []cand
	for i, s := range p.slots {
		if exp := s.idleSince + p.policy.IdleTimeout; s.state == slotFree && exp <= clock {
			cands = append(cands, cand{i, exp})
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
		if p.activeCount() <= p.policy.MinNodes {
			continue
		}
		s := &p.slots[c.id]
		p.nodeSeconds += (c.at - s.activeSince).Seconds()
		s.state = slotAbsent
		p.scaleDowns++
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

// release returns a lease's slots to the free pool at job end time.
func (p *elasticPool) release(ids []int, end sim.Time) {
	for _, id := range ids {
		s := &p.slots[id]
		s.state = slotFree
		s.idleSince = end
	}
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
