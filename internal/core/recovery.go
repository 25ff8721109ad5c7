package core

import (
	"fmt"
	"sort"

	"rocket/internal/cluster"
	"rocket/internal/dht"
	"rocket/internal/fault"
	"rocket/internal/pairs"
	"rocket/internal/sim"
)

// This file implements steal-based crash recovery (the robustness story of
// paper §4.2 under injected faults). A crash fail-stops a node: its
// volatile state — deques, caches, pending protocol tables, job-token
// pool — is lost, and every region the node had not finished (queued in
// its deques, suspended behind the job-token limit, or in flight in a job
// chain) is harvested and re-exposed for stealing on a surviving node.
// In-flight protocol messages touching the dead node resolve as failures
// through the fabric's drop notifications instead of hanging or
// panicking. A restart rejoins the node cold: empty deques, empty caches,
// fresh workers that begin by stealing — exactly how a replacement node
// would join the computation.

// armFaults builds the injector from the validated schedule and wires its
// health state into the network, the devices, and the recovery hooks.
// Only crash and restart have hooks here: a join or preemption would
// silently drop messages while the node kept computing, so such
// schedules are refused.
func (rt *runtime) armFaults(s *fault.Schedule) error {
	for i, ev := range s.Events {
		if ev.Kind.FleetOnly() {
			return fmt.Errorf("core: fault event %d: %v is fleet-only (the all-pairs runtime has no membership hooks)", i, ev.Kind)
		}
	}
	gpus := make([]int, len(rt.cl.Nodes))
	for i, nd := range rt.cl.Nodes {
		gpus[i] = len(nd.GPUs)
	}
	inj, err := fault.NewInjector(rt.env, gpus, s, fault.Hooks{
		OnCrash:   rt.onCrash,
		OnRestart: rt.onRestart,
	})
	if err != nil {
		return err
	}
	rt.inj = inj
	net := rt.cl.Net
	net.SetAliveFunc(inj.Alive)
	net.SetLinkFunc(func(from, to int) cluster.LinkState {
		up, latF, bwF := inj.Link(from, to)
		return cluster.LinkState{Up: up, LatencyFactor: latF, BandwidthFactor: bwF}
	})
	net.SetDropFunc(rt.onDrop)
	for ni, nd := range rt.cl.Nodes {
		for gi, dev := range nd.GPUs {
			ni, gi := ni, gi
			dev.SetThrottle(func() float64 { return rt.inj.GPUFactor(ni, gi) })
		}
	}
	return nil
}

// unitRegion wraps a single pair as a region for re-exposure.
func unitRegion(p pairIJ) pairs.Region {
	return pairs.Region{RowLo: p.i, RowHi: p.i + 1, ColLo: p.j, ColHi: p.j + 1}
}

// onCrash is the injector's crash hook: harvest the dead node's
// unfinished work, rebuild its volatile state cold, and re-expose the
// work for stealing.
func (rt *runtime) onCrash(id int) {
	if rt.done || rt.err != nil {
		return
	}
	n := rt.nodes[id]
	n.alive = false
	n.epoch++
	rt.crashes++

	// Harvest, in deterministic order: queued deque regions (FIFO per
	// worker), then leaf tails suspended on the job-token limit, then
	// in-flight pairs sorted by (i, j).
	regions := n.group.Drain()
	for _, wk := range n.workers {
		if wk.pendingList == nil {
			continue
		}
		for _, p := range wk.pendingList[wk.pendingK:] {
			regions = append(regions, unitRegion(p))
		}
		wk.pendingList = nil
	}
	inflight := make([]pairIJ, 0, len(n.inflight))
	for p := range n.inflight {
		inflight = append(inflight, p)
	}
	sort.Slice(inflight, func(a, b int) bool {
		if inflight[a].i != inflight[b].i {
			return inflight[a].i < inflight[b].i
		}
		return inflight[a].j < inflight[b].j
	})
	for _, p := range inflight {
		regions = append(regions, unitRegion(p))
	}

	// The old epoch's workers and chains quench themselves against the
	// bumped epoch; everything they still reference is orphaned here.
	n.workers = nil
	if err := n.buildVolatile(); err != nil {
		rt.fail(err)
		return
	}
	rt.recoverRegions(regions)
}

// onRestart is the injector's restart hook: the node rejoins cold (its
// volatile state was already rebuilt at crash time), adopts any orphaned
// work, and starts fresh workers that begin by stealing. The inbox
// handler registered at startup stayed armed — the fabric delivered
// nothing while the node was down.
func (rt *runtime) onRestart(id int) {
	if rt.done || rt.err != nil {
		return
	}
	n := rt.nodes[id]
	n.alive = true
	rt.restarts++
	if len(rt.orphans) > 0 {
		regions := rt.orphans
		rt.orphans = nil
		rt.recoverRegions(regions)
	}
	for w := range n.devs {
		n.startWorker(w)
	}
}

// recoverRegions re-exposes harvested regions on the lowest-ID live node,
// spread round-robin over its worker deques, where its own workers pop
// them and remote thieves steal them. With no node alive the regions wait
// as orphans for a restart; if none is scheduled the run fails with
// ErrPartitionLost.
func (rt *runtime) recoverRegions(regions []pairs.Region) {
	var target *nodeRT
	for _, n := range rt.nodes {
		if n.alive {
			target = n
			break
		}
	}
	if target == nil {
		rt.orphans = append(rt.orphans, regions...)
		if !rt.inj.RestartsPending() && !rt.done {
			rt.fail(fmt.Errorf("%w: all %d nodes crashed with %d/%d pairs done",
				ErrPartitionLost, len(rt.nodes), rt.pairsDone, rt.totalPairs))
		}
		return
	}
	w := target.group.Size()
	for i, r := range regions {
		target.group.Deque(i % w).PushBottom(r)
		rt.recoveredPairs += r.Count()
	}
	rt.recoveredRegions += uint64(len(regions))
}

// onDrop is the fabric's drop notifier: every message the network
// discards (dead endpoint or partitioned link) resolves the in-flight
// operation it carried as a failure, so nothing hangs on a reply that
// will never come.
func (rt *runtime) onDrop(env *sim.Env, msg cluster.Message) {
	switch m := msg.Payload.(type) {
	case *stealMsg:
		// A request: the victim is unreachable, so the thief's attempt
		// fails and it backs off (unless the thief itself died meanwhile).
		// A reply: it cannot reach the thief — it died, or the link to it
		// partitioned. If the thief is still alive (link fault), fail its
		// pending attempt so the worker backs off instead of waiting
		// forever; and a granted region already left the victim's deque,
		// so re-expose it.
		region, granted := m.Region, m.reply && m.OK
		if th := rt.nodes[m.Thief]; th.alive {
			th.failPendingSteal(env, m.ID)
		}
		if granted {
			rt.recoverRegions([]pairs.Region{region})
		}
	case *dht.Msg:
		// Whatever leg of the lookup was lost — a reply's payload was a
		// cached copy, nothing to recover — resolve it as a miss if the
		// requester is still alive (it is when the drop was the mediator's
		// or a candidate's death, or a partitioned link), so the job chain
		// falls back to loading instead of hanging on its cache leases.
		if n := rt.nodes[m.Requester]; n.alive && n.dht != nil {
			n.dht.FailPending(env, m.ID)
		}
	}
}

// failPendingSteal resolves one pending remote steal as failed. Unknown
// IDs (the attempt was lost to a crash) are ignored.
func (n *nodeRT) failPendingSteal(env *sim.Env, id uint64) {
	if wk := n.stealer(id); wk != nil {
		wk.stealMsg.OK = false
		wk.stolen(env)
	}
}
