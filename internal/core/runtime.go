package core

import (
	"errors"
	"fmt"

	"rocket/internal/cache"
	"rocket/internal/cluster"
	"rocket/internal/dht"
	"rocket/internal/fault"
	"rocket/internal/gpu"
	"rocket/internal/pairs"
	"rocket/internal/sim"
	"rocket/internal/stats"
	"rocket/internal/steal"
)

// Sentinel errors surfaced through the run result. Both are wrapped with
// context; match with errors.Is.
var (
	// ErrProtocol reports an inter-node message the runtime cannot
	// explain: an unknown payload type, or (in failure-free runs, where
	// nothing may be lost) a steal reply with no matching pending
	// request. With fault injection active, unmatched steal replies are
	// expected after a crash and are absorbed instead.
	ErrProtocol = errors.New("core: protocol violation")
	// ErrPartitionLost reports that every node of the run crashed with
	// work outstanding and no restart is scheduled, so the job can never
	// complete. Schedulers treat it as retryable (the job can be requeued
	// on fresh nodes).
	ErrPartitionLost = errors.New("core: partition lost")
)

// runtime is the cluster-wide execution state of one run.
type runtime struct {
	cfg    Config
	env    *sim.Env
	cl     *cluster.Cluster
	app    Application
	comp   Computer // nil for cost-model-only runs
	phases PhaseTable

	nodes      []*nodeRT
	totalPairs int64
	pairsDone  int64
	loads      uint64
	done       *sim.Signal
	err        error

	localSteals  uint64
	remoteSteals uint64
	failedSteals uint64

	// Fault-injection state; inj is nil (and every recovery path dormant)
	// in failure-free runs.
	inj *fault.Injector
	// orphans holds regions recovered while every node was dead, waiting
	// for a restart to adopt them.
	orphans []pairs.Region
	// finished pins the completion (or abort) time so fault events
	// scheduled beyond it do not inflate the reported runtime.
	finished   bool
	finishedAt sim.Time

	crashes           uint64
	restarts          uint64
	staleStealReplies uint64
	recoveredRegions  uint64
	recoveredPairs    int64

	// plan is the resolved incremental (pair-store) plan; nil when the
	// run has no store participation, keeping every store path dormant.
	plan *storePlan

	results    []Result
	throughput map[string]*stats.TimeSeries
}

// nodeRT is the per-node runtime state.
type nodeRT struct {
	rt   *runtime
	node *cluster.Node
	// alive and epoch implement fail-stop semantics: a crash flips alive
	// and bumps epoch, and every suspended callback chain belonging to the
	// old epoch quenches itself at its next step instead of touching the
	// rebuilt state.
	alive bool
	epoch int
	// rootRNG is the run-wide generator caches fork from, kept so a crash
	// rebuild draws its forks from the same deterministic stream.
	rootRNG *stats.RNG
	// host is the level-2 cache; nil when disabled.
	host *cache.Cache
	devs []*devRT
	// group holds the work-stealing deques, one per worker (= per GPU).
	group *steal.Group
	// dht is the level-3 engine; nil when the distributed cache is off.
	dht *dht.Engine
	// stealSeq numbers the node's remote steal attempts across all its
	// incarnations: a reply to one a crash forgot matches no new worker.
	stealSeq  uint64
	victimRNG *stats.RNG
	// victims is pickVictim's scratch list of live candidates.
	victims []int
	// workers are the live worker state machines of the current epoch.
	workers []*worker
	// inflight tracks pairs handed to job chains but not yet completed,
	// so a crash can re-expose them. Populated only under fault injection.
	inflight map[pairIJ]struct{}
	// netName and stealName are the trace resources of distributed-cache
	// fetches and steal round-trips, formatted once instead of per event.
	netName, stealName string
	// onMsg is the inbox handler, allocated once at startServer; it stays
	// registered across crash/restart (the fabric never delivers to a dead
	// node, so it simply lies dormant while down).
	onMsg func(msg cluster.Message)
}

// devRT pairs a device with its level-1 cache, its concurrent-job limit
// (back-pressure, §4.2), and the pool of job objects that limit bounds;
// like the rest it is rebuilt (empty) on a crash.
type devRT struct {
	dev       *gpu.Device
	cache     *cache.Cache
	jobTokens *sim.Resource
	free      []*job
}

// stealMsg is the wire record of the steal protocol; it travels by pointer
// as the payload of a cluster message. It is a field of the thief's
// worker, which has one attempt in flight at most: the victim turns the
// request it received into the reply it sends back, and the record is at
// rest again when the attempt resolves.
type stealMsg struct {
	// reply is false on the way to the victim, true on the way back.
	reply bool
	// ID is the attempt's, zero while the worker has none in flight.
	ID    uint64
	Thief int
	// Resident samples the thief's host-cache working set (requests of
	// cache-aware stealing only, nil otherwise).
	Resident []int
	// Region and OK are the reply's outcome.
	Region pairs.Region
	OK     bool
}

// Run executes the all-pairs application on the cluster and returns the
// collected metrics. The cluster must be freshly built (its accounting is
// cumulative).
func Run(cfg Config) (*Metrics, error) {
	rt, err := launch(cfg)
	if err != nil {
		return nil, err
	}
	rt.env.Run()
	return rt.collect()
}

// launch builds the runtime and schedules its first events. Split from
// Run so tests can stop the clock mid-run and inspect the pools after it.
func launch(cfg Config) (*runtime, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	rt := &runtime{
		cfg:        cfg,
		env:        sim.NewEnv(),
		cl:         cfg.Cluster,
		app:        cfg.App,
		totalPairs: pairs.TotalPairs(cfg.App.NumItems()),
		done:       sim.NewSignal(),
	}
	plan, err := buildStorePlan(cfg)
	if err != nil {
		return nil, err
	}
	rt.plan = plan
	// Recounting is O(n^2); skip it when nothing can be excluded (a plan
	// that only emits — base 0, no filter — computes every pair).
	if cfg.PairFilter != nil || (plan != nil && plan.base > 0) {
		rt.totalPairs = 0
		pairs.Root(cfg.App.NumItems()).Each(func(i, j int) {
			if rt.pairOK(i, j) {
				rt.totalPairs++
			}
		})
	}
	if comp, ok := cfg.App.(Computer); ok {
		rt.comp = comp
	}
	if cfg.ThroughputWindow > 0 {
		rt.throughput = make(map[string]*stats.TimeSeries)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x524f434b4554) // "ROCKET"
	for _, node := range rt.cl.Nodes {
		n, err := rt.newNodeRT(node, rng)
		if err != nil {
			return nil, err
		}
		rt.nodes = append(rt.nodes, n)
	}

	// Arm fault injection before any workload event is scheduled so fault
	// events fire first within their timestamp.
	if !cfg.Faults.Empty() {
		if err := rt.armFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	// Probes arm after the injector so a probe sharing a timestamp with a
	// fault event observes the post-event world; with no schedule rt.inj
	// is nil and every probe reads alive.
	if len(cfg.FaultProbes) > 0 {
		for _, p := range cfg.FaultProbes {
			if p.Node < 0 || p.Node >= len(rt.nodes) {
				return nil, fmt.Errorf("core: fault probe targets node %d of %d", p.Node, len(rt.nodes))
			}
		}
		fault.ArmProbes(rt.env, rt.inj, cfg.FaultProbes)
	}

	if err := rt.prewarm(); err != nil {
		return nil, err
	}

	// Serving resident pairs reads them from the store's segment log;
	// charge that scan first in line for node 0's I/O thread. With zero
	// hits nothing is scheduled and the event stream is untouched.
	if rt.plan != nil && rt.plan.readBytes > 0 {
		rt.chargeStoreRead()
	}

	// The master node spawns the single root task (paper §4.2); everyone
	// else starts by stealing.
	rt.nodes[0].group.Deque(0).PushBottom(pairs.Root(cfg.App.NumItems()))

	if len(rt.nodes) > 1 {
		for _, n := range rt.nodes {
			n.startServer()
		}
	}
	for _, n := range rt.nodes {
		for w := range n.devs {
			n.startWorker(w)
		}
	}
	return rt, nil
}

// collect gathers the metrics of a drained run and reports how it ended.
func (rt *runtime) collect() (*Metrics, error) {
	m := rt.aggregate()
	rt.env.Close()
	if rt.err != nil {
		return m, rt.err
	}
	if !rt.done.Fired() || rt.pairsDone != rt.totalPairs {
		return m, fmt.Errorf("core: runtime stalled after %d/%d pairs at t=%v",
			rt.pairsDone, rt.totalPairs, m.Runtime)
	}
	return m, nil
}

func (rt *runtime) newNodeRT(node *cluster.Node, rng *stats.RNG) (*nodeRT, error) {
	n := &nodeRT{
		rt:        rt,
		node:      node,
		alive:     true,
		rootRNG:   rng,
		victimRNG: rng.Fork(),
		netName:   node.Name() + "/net",
		stealName: node.Name() + "/steal",
	}
	if err := n.buildVolatile(); err != nil {
		return nil, err
	}
	return n, nil
}

// buildVolatile (re)creates the node's crash-volatile state: deques,
// caches, job-token pools, and the DHT engine's tables. It runs once at
// startup and again on every crash, so a restarted node rejoins cold
// while any surviving chains of the old epoch reference only the orphaned
// objects.
func (n *nodeRT) buildVolatile() error {
	rt := n.rt
	node := n.node
	n.group = steal.NewGroup(len(node.GPUs))
	n.inflight = make(map[pairIJ]struct{})
	policy := cache.PolicyLRU
	if rt.cfg.EvictRandom {
		policy = cache.PolicyRandom
	}
	newCache := func(name string, slots int) *cache.Cache {
		c := cache.NewWithPolicy(name, slots, rt.cfg.App.ItemSize(), policy, n.rootRNG.Fork())
		c.Reserve(rt.cfg.App.NumItems())
		return c
	}
	hostSlots := rt.cfg.hostSlotsFor(node.Spec.HostCacheBytes)
	n.host = nil
	if hostSlots > 0 {
		n.host = newCache(node.Name()+"/host", hostSlots)
	}
	n.devs = n.devs[:0]
	for _, dev := range node.GPUs {
		slots := rt.cfg.deviceSlotsFor(dev.MemBytes)
		n.devs = append(n.devs, &devRT{
			dev:       dev,
			cache:     newCache(dev.ID+"/cache", slots),
			jobTokens: sim.NewResource(dev.ID+"/jobs", rt.cfg.jobLimitFor(slots, hostSlots, len(node.GPUs))),
		})
	}

	if n.dht != nil {
		n.dht.Reset() // the engine stays and forgets its tables
	} else if rt.cfg.DistCache && n.host != nil {
		eng, err := dht.New(dht.Config{
			NodeID:   node.ID,
			NumNodes: len(rt.cl.Nodes),
			NumItems: rt.cfg.App.NumItems(),
			Hops:     rt.cfg.Hops,
			CtrlSize: rt.cfg.ctrlMsgSize,
			DataSize: rt.cfg.App.ItemSize(),
			Alive:    rt.nodeAliveFn(),
			Send: func(e *sim.Env, to int, size int64, m *dht.Msg) {
				rt.cl.Net.SendAsync(e, node, rt.cl.Nodes[to], size, m)
			},
			Lookup: func(item int) (interface{}, bool) {
				if n.host.Contains(item) {
					// Peek without pinning: the payload pointer stays
					// valid because payloads are immutable Go values.
					return n.hostPeek(item), true
				}
				return nil, false
			},
		})
		if err != nil {
			return err
		}
		n.dht = eng
	}
	return nil
}

// nodeAliveFn returns the liveness hook handed to protocol layers, or nil
// in failure-free runs (preserving their no-liveness fast paths exactly).
func (rt *runtime) nodeAliveFn() dht.AliveFunc {
	if rt.cfg.Faults.Empty() {
		return nil
	}
	return func(id int) bool { return rt.nodes[id].alive }
}

// hostPeek returns the payload of a resident host-cache item. It is only
// called after Contains reported true within the same event.
func (n *nodeRT) hostPeek(item int) interface{} {
	return n.host.Peek(item)
}

// prewarm pre-fills host caches per Config.PrewarmHost: item i belongs to
// node i mod p, and each node warms the configured fraction of its items
// (the ones a previous run would most plausibly have left behind). For
// real-kernel applications the payloads are materialized eagerly, since a
// previous run would have produced them.
func (rt *runtime) prewarm() error {
	frac := rt.cfg.PrewarmHost
	if frac == 0 {
		return nil
	}
	p := len(rt.nodes)
	n := rt.cfg.App.NumItems()
	for item := 0; item < n; item++ {
		node := rt.nodes[item%p]
		if node.host == nil {
			continue
		}
		// The k-th item of a node is warmed iff k < frac * itemsOfNode.
		k := item / p
		itemsOfNode := (n - item%p + p - 1) / p
		if float64(k) >= frac*float64(itemsOfNode) {
			continue
		}
		var data interface{}
		if rt.comp != nil {
			v, err := rt.comp.LoadItem(item)
			if err != nil {
				return fmt.Errorf("core: prewarm item %d: %w", item, err)
			}
			data = v
		}
		node.host.Warm(item, data)
	}
	return nil
}

// startServer registers the node's message handler on its inbox. No
// message ever blocks the server (all protocol replies go through
// asynchronous sends), so each inbound message is handled inline in
// scheduler context. Registration is deferred one event, a slot in the
// dispatch order that the experiment hashes pin.
func (n *nodeRT) startServer() {
	n.onMsg = n.handleMessage
	n.rt.env.Defer(n.armServer)
}

// armServer registers the message handler for the next inbox message.
func (n *nodeRT) armServer() { n.node.Inbox.RecvFunc(n.rt.env, n.onMsg) }

// handleMessage demultiplexes one inbox message — distributed-cache
// protocol traffic and steal requests/replies — then re-arms the
// receiver. Queued bursts drain inline, within one dispatch.
func (n *nodeRT) handleMessage(msg cluster.Message) {
	rt, env := n.rt, n.rt.env
	switch m := msg.Payload.(type) {
	case *dht.Msg:
		if n.dht == nil {
			rt.fail(fmt.Errorf("%w: %s runs no distributed cache but received %+v", ErrProtocol, n.node.Name(), *m))
			break
		}
		n.dht.Handle(env, m)
	case *stealMsg:
		if !m.reply {
			if m.Resident != nil {
				m.Region, m.OK = n.group.StealBestOverlap(m.Resident)
			} else {
				m.Region, m.OK = n.group.StealLocal(-1)
			}
			m.reply, m.Resident = true, nil
			rt.cl.Net.SendAsync(env, n.node, rt.cl.Nodes[m.Thief], rt.cfg.ctrlMsgSize, m)
			break
		}
		if wk := n.stealer(m.ID); wk != nil {
			wk.stolen(env)
		} else if rt.inj != nil {
			// Reachable once nodes can crash with replies in flight: the
			// attempt belonged to an incarnation of the thief that is gone.
			// Salvage the region (it left the victim's deque) and drop the
			// reply; in a failure-free run the same condition is a protocol
			// violation surfaced through the run result.
			rt.staleStealReplies++
			if m.OK {
				rt.recoverRegions([]pairs.Region{m.Region})
			}
		} else {
			rt.fail(fmt.Errorf("%w: %s received unexpected steal reply %d",
				ErrProtocol, n.node.Name(), m.ID))
		}
	default:
		rt.fail(fmt.Errorf("%w: %s received unknown message %T", ErrProtocol, n.node.Name(), m))
	}
	n.armServer()
}

// stealer returns the live worker waiting on remote steal attempt id, or
// nil: the attempt was already resolved, or a crash forgot it.
func (n *nodeRT) stealer(id uint64) *worker {
	for _, wk := range n.workers {
		if wk.stealMsg.ID == id {
			return wk
		}
	}
	return nil
}

// worker is the per-GPU Constellation-style work loop: pop local work,
// steal hierarchically when idle, split non-leaf regions, and submit leaf
// jobs subject to the concurrent-job limit. Like the jobs it feeds, a
// worker is a callback state machine: the pop/split fast path runs as a
// plain loop, and the three suspension points (steal round-trip, failed-
// steal backoff, job-token back-pressure) are explicit continuations.
type worker struct {
	n *nodeRT
	w int
	// epoch pins the worker to the node incarnation that started it; a
	// crash strands the old epoch's continuations, which quench themselves.
	epoch int
	deque *steal.Deque
	// backoff is the current failed-steal delay. Failed steals back off
	// exponentially (capped) so fully idle workers do not flood the
	// cluster with steal requests while long comparisons drain elsewhere;
	// any success resets the backoff.
	backoff    sim.Time
	maxBackoff sim.Time
	// stepFn, tokenFn and stolenFn cache the step, onToken and onStolen
	// method values so backoff rescheduling, token waits and steal replies
	// do not allocate a closure each.
	stepFn   func()
	tokenFn  func()
	stolenFn func()
	// stealMsg is the wire record of the worker's remote steal attempt;
	// it holds the outcome once the reply (or a drop notification) has
	// arrived. stealVictim and stealStart describe the attempt's span.
	stealMsg    stealMsg
	stealVictim int
	stealStart  sim.Time
	// pendingList/pendingK record a leaf submission suspended on the
	// job-token limit: onToken resumes from them, and crash recovery
	// harvests the unsubmitted tail list[pendingK:]. pendingList is nil
	// while nothing is suspended.
	pendingList []pairIJ
	pendingK    int
	// leaf is the buffer submitLeaf lists a region's pairs into; a worker
	// has finished (or lost to a crash) one leaf before it lists the next.
	leaf []pairIJ
}

// startWorker launches worker w's state machine, deferred one event (a
// slot in the dispatch order that the experiment hashes pin).
func (n *nodeRT) startWorker(w int) {
	wk := &worker{
		n: n, w: w,
		epoch:      n.epoch,
		deque:      n.group.Deque(w),
		backoff:    n.rt.cfg.StealBackoff,
		maxBackoff: 256 * n.rt.cfg.StealBackoff,
	}
	wk.stepFn, wk.tokenFn, wk.stolenFn = wk.step, wk.onToken, wk.onStolen
	n.workers = append(n.workers, wk)
	n.rt.env.Defer(wk.begin)
}

// stale reports whether the worker belongs to a crashed incarnation of
// its node and must stop touching the rebuilt state.
func (wk *worker) stale() bool { return wk.epoch != wk.n.epoch }

func (wk *worker) begin() {
	rt := wk.n.rt
	if rt.totalPairs == 0 {
		rt.done.Fire(rt.env)
		return
	}
	wk.step()
}

// step runs the work loop until it suspends (steal, backoff, or token
// wait) or the run completes.
func (wk *worker) step() {
	rt := wk.n.rt
	if wk.stale() {
		return
	}
	for !rt.done.Fired() && rt.err == nil {
		region, ok := wk.deque.PopBottom()
		if !ok {
			wk.steal()
			return
		}
		if !wk.dispatch(region) {
			return
		}
	}
}

// dispatch handles one region, reporting whether the loop may continue
// inline (false: a leaf submission suspended on the job-token limit and
// will resume the loop itself).
func (wk *worker) dispatch(region pairs.Region) bool {
	rt := wk.n.rt
	if rt.plan != nil && rt.plan.pruneRegion(region) {
		// Every pair of the region is resident in the pair store: served,
		// not computed — drop it before subdividing.
		return true
	}
	if region.Count() <= rt.cfg.LeafPairs {
		return wk.submitLeaf(region)
	}
	kids := region.Split()
	// Push in reverse so the first quadrant is popped first, preserving
	// depth-first traversal order.
	for k := len(kids) - 1; k >= 0; k-- {
		wk.deque.PushBottom(kids[k])
	}
	return true
}

// onSteal continues the loop after a steal attempt.
func (wk *worker) onSteal(region pairs.Region, ok bool) {
	rt := wk.n.rt
	if wk.stale() {
		// The node crashed while the steal was in flight; the region left
		// its victim's deque, so hand it to recovery instead of losing it.
		if ok {
			rt.recoverRegions([]pairs.Region{region})
		}
		return
	}
	if !ok {
		rt.env.After(wk.backoff, wk.stepFn)
		if wk.backoff < wk.maxBackoff {
			wk.backoff *= 2
		}
		return
	}
	wk.backoff = rt.cfg.StealBackoff
	if rt.done.Fired() || rt.err != nil {
		return
	}
	if wk.dispatch(region) {
		wk.step()
	}
}

// submitLeaf submits every pair of a leaf region as an asynchronous job
// chain, suspending on the concurrent-job limit (back-pressure). It
// reports whether it completed inline.
func (wk *worker) submitLeaf(region pairs.Region) bool {
	list := wk.leaf[:0]
	region.Each(func(i, j int) { list = append(list, pairIJ{i, j}) })
	wk.leaf = list
	return wk.submitFrom(list, 0)
}

// submitFrom submits list[k:], suspending when the job-token pool is
// exhausted; onToken resumes at the same pair once a token frees up, and
// re-enters the work loop after the last pair.
func (wk *worker) submitFrom(list []pairIJ, k int) bool {
	rt := wk.n.rt
	tokens := wk.n.devs[wk.w].jobTokens
	for ; k < len(list); k++ {
		if rt.done.Fired() || rt.err != nil {
			continue
		}
		i, j := list[k].i, list[k].j
		if !rt.pairOK(i, j) {
			continue
		}
		if tokens.TryAcquire(rt.env) {
			wk.n.startJob(wk.w, i, j)
			continue
		}
		wk.pendingList, wk.pendingK = list, k
		tokens.AcquireFunc(rt.env, wk.tokenFn)
		return false
	}
	wk.pendingList = nil
	return true
}

// onToken continues a leaf submission with the job token it waited for.
func (wk *worker) onToken() {
	if wk.stale() {
		// Crash recovery harvested the pending tail; this grant arrived on
		// the orphaned token pool and simply dies with it.
		return
	}
	list, k := wk.pendingList, wk.pendingK
	wk.pendingList = nil
	wk.n.startJob(wk.w, list[k].i, list[k].j)
	if wk.submitFrom(list, k+1) {
		wk.step()
	}
}

type pairIJ struct{ i, j int }

// steal implements victim selection: same-node workers first, then a
// random remote node (StealHierarchical), or a uniformly random node
// (StealFlat). Local outcomes continue in onSteal inline; a remote attempt
// suspends the worker until stolen resumes it with the reply.
func (wk *worker) steal() {
	n, rt := wk.n, wk.n.rt
	if rt.cfg.StealPolicy != StealFlat && wk.stealLocal() {
		return
	}
	victim := -1
	if len(rt.nodes) > 1 {
		// -1: fault-aware selection found no live peer to target.
		victim = n.pickVictim()
	} else if rt.cfg.StealPolicy == StealFlat {
		victim = n.node.ID
	}
	if victim == n.node.ID && wk.stealLocal() {
		return
	}
	if victim < 0 || victim == n.node.ID {
		wk.onSteal(pairs.Region{}, false)
		return
	}
	n.stealSeq++
	wk.stealVictim, wk.stealStart = victim, rt.env.Now()
	req := &wk.stealMsg
	*req = stealMsg{ID: n.stealSeq, Thief: n.node.ID}
	size := rt.cfg.ctrlMsgSize
	if rt.cfg.StealPolicy == StealCacheAware && n.host != nil {
		req.Resident = n.host.Items(residentSampleMax)
		size += 8 * int64(len(req.Resident))
	}
	rt.cl.Net.SendFunc(rt.env, n.node, rt.cl.Nodes[victim], size, req, nil)
}

// stealLocal takes work from a sibling worker's deque and continues with
// it, reporting whether there was any.
func (wk *worker) stealLocal() bool {
	r, ok := wk.n.group.StealLocal(wk.w)
	if ok {
		wk.n.rt.localSteals++
		wk.onSteal(r, true)
	}
	return ok
}

// stolen resolves the worker's remote steal attempt — its record holds
// the victim's answer or, from the drop notifier, a failure — and resumes
// the worker one event later.
func (wk *worker) stolen(env *sim.Env) {
	wk.stealMsg.ID = 0
	env.Defer(wk.stolenFn)
}

// onStolen continues the worker after a remote steal round-trip.
func (wk *worker) onStolen() {
	rt := wk.n.rt
	rt.record(PhaseSteal, wk.n.stealName, wk.stealVictim, -1, wk.stealStart)
	if !wk.stealMsg.OK {
		rt.failedSteals++
		wk.onSteal(pairs.Region{}, false)
		return
	}
	rt.remoteSteals++
	wk.onSteal(wk.stealMsg.Region, true)
}

// pickVictim selects a steal target according to the policy; -1 means no
// eligible victim exists. Failure-free runs keep the original draw
// sequence exactly; under fault injection the thief draws uniformly among
// live nodes only (steal-based recovery assumes a failure detector, like
// Constellation's membership layer).
func (n *nodeRT) pickVictim() int {
	rt := n.rt
	if rt.inj == nil {
		if rt.cfg.StealPolicy == StealFlat {
			return n.victimRNG.Intn(len(rt.nodes))
		}
		// Hierarchical: uniform among remote nodes.
		v := n.victimRNG.Intn(len(rt.nodes) - 1)
		if v >= n.node.ID {
			v++
		}
		return v
	}
	cands := n.victims[:0]
	for _, peer := range rt.nodes {
		if !peer.alive {
			continue
		}
		if peer == n && rt.cfg.StealPolicy != StealFlat {
			continue
		}
		cands = append(cands, peer.node.ID)
	}
	n.victims = cands
	if len(cands) == 0 {
		return -1
	}
	return cands[n.victimRNG.Intn(len(cands))]
}
