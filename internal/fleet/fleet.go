// Package fleet is a message-driven fleet workload: N nodes exchanging
// heartbeats, gossip rumors, and work items over a latency/bandwidth
// fabric, on one sequential event loop. It stresses the event engine with
// dense cross-node traffic, where the all-pairs runtime in internal/core
// spends its events on per-pair pipelines instead.
//
// A message is a typed record in a sim.Arrivals queue — kind, endpoints,
// one payload word — dispatched by a switch over its kind, and every timer
// is an argument event on a method value bound once per run, so no
// message and no timer allocates.
//
// Every quantity a run reports is a pure function of (Config, Seed): node
// behavior draws from per-node generators forked from (Seed, nodeID),
// messages arrive in the canonical (time, sender, send order) order with
// arrivals before local events at an equal instant, and the result digest
// folds per-node state in node order.
package fleet

import (
	"fmt"
	"strconv"

	"rocket/internal/cluster"
	"rocket/internal/fault"
	"rocket/internal/obs"
	"rocket/internal/sim"
)

// Config parameterizes a fleet run.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Shards is ignored: the fleet runs on one event loop at any value.
	// It stays because the repository benchmark sets it.
	Shards int
	// Seed forks every node's generator.
	Seed uint64
	// Duration is the virtual time simulated.
	Duration sim.Time
	// Faults is an optional fault schedule (node crashes/restarts, joins,
	// preemptions, straggler windows).
	Faults *fault.Schedule
	// Elastic optionally generates seeded churn (arrival patterns plus
	// spot preemption) and appends it to Faults. Its Nodes/Duration must
	// be zero (filled from the fleet config) or match it exactly; a zero
	// Seed inherits the fleet Seed. Nodes whose first membership event is
	// a join start absent: they boot with an empty queue at join time and
	// pull work through the steal path. A preempted node drains its whole
	// queue to its ring successor inside the pre-flip drain window.
	Elastic *fault.Elasticity
	// GPUs is the per-node device shape used to validate the schedule and
	// as straggler targets (a gpu-slow on device 0 stretches the node's
	// work-pump service times). Nil means one device per node.
	GPUs []int
	// StartAt staggers node boot: node i arms its protocol loops at
	// StartAt[i] instead of t=0 (scenario startup patterns). Nil or an
	// all-zero slice is the instant boot and is bit-identical to it.
	StartAt []sim.Time
	// Probes are timed health observations, each armed after the fault
	// events of the same timestamp (scenario assertions). Nil leaves the
	// event stream untouched.
	Probes []fault.Probe
	// Spans, when non-nil, records protocol activity (steal round trips,
	// joins, preemption drains) into the flight recorder. Every span is a
	// pure function of (Config, Seed): virtual timestamps and payload
	// counts only.
	Spans *obs.Recorder
}

// The fleet protocol is chatty over the DAS-5 fabric (cluster.NewNICs):
// the heartbeat period is deliberately aggressive so the event queue
// stays dense and the workload stresses the engine rather than idling.
const (
	// heartbeatPeriod is the mean heartbeat interval; each node jitters
	// every interval by ±50% from its own generator.
	heartbeatPeriod = 100 * sim.Microsecond
	// gossipTTL is how many hops a rumor spawned by a heartbeat travels.
	gossipTTL = 3
	// workItems is the initial work queue length per node; nodes that run
	// dry steal half a random peer's queue.
	workItems = 32
)

// DefaultConfig returns a 50 ms run of nodes nodes from seed 1.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Seed: 1, Duration: sim.Millis(50)}
}

// ScalingConfig is the fixed 1024-node fleet the repository benchmark
// runs and the contract test pins. The argument is ignored, like
// Config.Shards, and stays because the benchmark passes one.
func ScalingConfig(int) Config {
	cfg := DefaultConfig(1024)
	cfg.Duration = sim.Millis(10)
	return cfg
}

// Result is a fleet run's deterministic summary. It contains no wall-clock
// quantity: hashing or printing a Result is safe inside experiment goldens.
type Result struct {
	Nodes  int
	Events uint64
	// Windows is always 0. It stays because the repository benchmark
	// reads it.
	Windows     uint64
	Messages    uint64
	BytesSent   int64
	Dropped     uint64
	Heartbeats  uint64
	Rumors      uint64
	WorkDone    uint64
	Joins       uint64
	Preempts    uint64
	Drained     uint64
	StateHash   uint64
	VirtualTime sim.Time
}

// String renders the canonical one-line summary used by experiments. The
// membership suffix appears only when churn actually happened, so
// churn-free runs keep the exact pre-elasticity line (and its golden
// hashes).
func (r Result) String() string {
	s := fmt.Sprintf(
		"fleet nodes=%d events=%d msgs=%d bytes=%d dropped=%d heartbeats=%d rumors=%d work=%d hash=%016x vt=%v",
		r.Nodes, r.Events, r.Messages, r.BytesSent, r.Dropped,
		r.Heartbeats, r.Rumors, r.WorkDone, r.StateHash, r.VirtualTime)
	if r.Joins+r.Preempts > 0 {
		s += fmt.Sprintf(" joins=%d preempts=%d drained=%d", r.Joins, r.Preempts, r.Drained)
	}
	return s
}

// rng is a splitmix64 stream; one per node, forked from (Seed, nodeID).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jitter returns a duration in [d/2, 3d/2).
func (r *rng) jitter(d sim.Time) sim.Time {
	return d/2 + sim.Time(r.next()%uint64(d))
}

const fnvPrime = 1099511628211

// node is one fleet member.
type node struct {
	id     int
	rng    rng
	hash   uint64
	queue  int // outstanding work items (fungible, so a count suffices)
	busy   bool
	booted bool // heartbeat loop armed (at boot or first join)

	heartbeats uint64
	rumors     uint64
	workDone   uint64
	joins      uint64
	preempts   uint64
	drained    uint64
}

func (n *node) fold(tag uint64, t sim.Time, v uint64) {
	n.hash = (n.hash*fnvPrime ^ tag ^ uint64(t)) + v
}

// msg payload sizes, modeled on small control-plane datagrams.
const (
	heartbeatBytes   = 128
	rumorBytes       = 256
	workRequestBytes = 64
	workGrantBytes   = 1024
	drainBytes       = 1024 // preemption drain header; +64 per item, like grants
)

type msgKind uint8

const (
	msgHeartbeat    msgKind = iota
	msgRumor                // word: rumor id, ttl: hops left
	msgStealRequest         // reqAt: when the thief asked
	msgGrant                // word: items granted, reqAt: when the thief asked
	msgDrain                // word: items handed over by a preempted node
)

// msg is one in-flight message. The fields a kind does not name are zero.
type msg struct {
	from, to, ttl int32
	kind          msgKind
	word          uint64
	reqAt         sim.Time
}

type fleetSim struct {
	cfg      Config
	env      *sim.Env
	arrivals *sim.Arrivals[msg]
	inj      *fault.Injector
	nodes    []node
	spans    *obs.Recorder
	nics     *cluster.NICs

	// The timers' continuations, bound once per run (sim.Env.AtArg with
	// the node index as argument).
	heartbeatFn, pumpFn, serviceFn, stealFn func(uint64)
}

// nodeSpan records a protocol span on n's track.
func (fs *fleetSim) nodeSpan(n *node, s obs.Span) {
	if fs.spans == nil {
		return
	}
	s.Track = "node" + strconv.Itoa(n.id)
	fs.spans.Record(0, s)
}

// Run executes the workload and returns its deterministic summary.
func Run(cfg Config) (Result, error) {
	if cfg.Nodes < 2 {
		return Result{}, fmt.Errorf("fleet: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.GPUs != nil && len(cfg.GPUs) != cfg.Nodes {
		return Result{}, fmt.Errorf("fleet: GPUs shape has %d entries for %d nodes", len(cfg.GPUs), cfg.Nodes)
	}
	if cfg.StartAt != nil && len(cfg.StartAt) != cfg.Nodes {
		return Result{}, fmt.Errorf("fleet: StartAt has %d entries for %d nodes", len(cfg.StartAt), cfg.Nodes)
	}
	for i, at := range cfg.StartAt {
		if at < 0 {
			return Result{}, fmt.Errorf("fleet: StartAt[%d] = %v is negative", i, at)
		}
	}
	for _, p := range cfg.Probes {
		if p.Node < 0 || p.Node >= cfg.Nodes {
			return Result{}, fmt.Errorf("fleet: probe targets node %d of %d", p.Node, cfg.Nodes)
		}
	}

	// Elastic churn compiles to ordinary membership events appended after
	// any scripted schedule; from here down the run only ever sees one
	// fault schedule, so scripted and generated churn share every code
	// path (validation, hooks, determinism).
	faults := cfg.Faults
	if cfg.Elastic != nil {
		e := *cfg.Elastic
		if e.Nodes != 0 && e.Nodes != cfg.Nodes {
			return Result{}, fmt.Errorf("fleet: elasticity over %d nodes in a %d-node fleet", e.Nodes, cfg.Nodes)
		}
		e.Nodes = cfg.Nodes
		if e.Duration != 0 && e.Duration != cfg.Duration {
			return Result{}, fmt.Errorf("fleet: elasticity horizon %v differs from run duration %v", e.Duration, cfg.Duration)
		}
		e.Duration = cfg.Duration
		if e.Seed == 0 {
			e.Seed = cfg.Seed
		}
		churn, err := e.Generate()
		if err != nil {
			return Result{}, err
		}
		merged := &fault.Schedule{}
		if !faults.Empty() {
			merged.Events = append(merged.Events, faults.Events...)
		}
		merged.Events = append(merged.Events, churn.Events...)
		faults = merged
	}

	env := sim.NewEnv()
	fs := &fleetSim{
		cfg:   cfg,
		env:   env,
		nodes: make([]node, cfg.Nodes),
		spans: cfg.Spans,
		nics:  cluster.NewNICs(cfg.Nodes),
	}
	fs.arrivals = sim.NewArrivals(env, fs.deliver)
	fs.heartbeatFn, fs.pumpFn, fs.serviceFn, fs.stealFn = fs.heartbeat, fs.pumpArg, fs.serviceDone, fs.stealArg
	for i := range fs.nodes {
		fs.nodes[i] = node{
			id:    i,
			rng:   rng{s: cfg.Seed*fnvPrime + uint64(i)},
			queue: workItems,
		}
	}
	members := fault.InitialMembers(faults, cfg.Nodes)
	if !faults.Empty() {
		gpus := cfg.GPUs
		if gpus == nil {
			gpus = make([]int, cfg.Nodes)
			for i := range gpus {
				gpus[i] = 1 // fleet nodes model one device; shape for validation
			}
		}
		inj, err := fault.NewInjector(env, gpus, faults, fault.Hooks{
			OnCrash: func(id int) { fs.nodes[id].queue = 0 }, // volatile queue lost
			// After the liveness flip: the joiner is live capacity from
			// this instant.
			OnJoin: func(id int) { fs.join(&fs.nodes[id]) },
			// Before the liveness flip (the drain window): the departing
			// node's sends still go out.
			OnPreempt: func(id int) { fs.drain(&fs.nodes[id]) },
		})
		if err != nil {
			return Result{}, err
		}
		fs.inj = inj
		fs.nics.SetAliveFunc(inj.Alive)
	}
	// Probes arm after the injector so same-timestamp fault events fire
	// first; with no schedule fs.inj is nil and every probe reads alive.
	fault.ArmProbes(env, fs.inj, cfg.Probes)

	// Boot: every initial member arms its heartbeat loop and work pump,
	// offset by its StartAt slot (zero without staggered startup).
	// Initially-absent slots — nodes whose first membership event is a
	// join — hold no work and do not boot here; their OnJoin hook boots
	// them at join time.
	for i := range fs.nodes {
		n := &fs.nodes[i]
		if !members[i] {
			n.queue = 0
			continue
		}
		n.booted = true
		var start sim.Time
		if cfg.StartAt != nil {
			start = cfg.StartAt[i]
		}
		env.AtArg(start+n.rng.jitter(heartbeatPeriod), fs.heartbeatFn, uint64(i))
		env.AtArg(start, fs.pumpFn, uint64(i))
	}

	fs.arrivals.RunUntil(cfg.Duration)

	res := Result{
		Nodes:       cfg.Nodes,
		Events:      env.EventsProcessed(),
		Messages:    fs.nics.Messages(),
		BytesSent:   fs.nics.BytesSent(),
		Dropped:     fs.nics.Dropped(),
		VirtualTime: env.Now(),
	}
	for i := range fs.nodes {
		n := &fs.nodes[i]
		res.Heartbeats += n.heartbeats
		res.Rumors += n.rumors
		res.WorkDone += n.workDone
		res.Joins += n.joins
		res.Preempts += n.preempts
		res.Drained += n.drained
		res.StateHash = res.StateHash*fnvPrime + n.hash + uint64(n.id)
	}
	env.Close()
	return res, nil
}

// alive reports node id's liveness (always true without faults).
func (fs *fleetSim) alive(id int) bool {
	return fs.inj == nil || fs.inj.Alive(id)
}

// send transmits size bytes from node from to node to over the NIC model
// (cluster.NICs): a dead sender's send is refused, and the receiver's
// liveness is checked on arrival (see deliver).
func (fs *fleetSim) send(from, to int, size int64, m msg) {
	if at, ok := fs.nics.Send(fs.env.Now(), from, size); ok {
		m.from, m.to = int32(from), int32(to)
		fs.arrivals.Push(at, uint32(from), m)
	}
}

// deliver applies one arrived message at its receiver; a message to a
// node that is dead on arrival does nothing.
func (fs *fleetSim) deliver(m msg) {
	if !fs.nics.Receive(int(m.to)) {
		return
	}
	n, now := &fs.nodes[m.to], fs.env.Now()
	switch m.kind {
	case msgHeartbeat:
		// Record the observation and spawn a rumor walk.
		n.heartbeats++
		n.fold(0x48, now, uint64(m.from))
		fs.gossip(n, uint64(m.from)<<8^uint64(n.id), gossipTTL)
	case msgRumor:
		n.rumors++
		n.fold(0x52, now, m.word)
		if m.ttl > 1 {
			fs.gossip(n, m.word*fnvPrime, int(m.ttl)-1)
		}
	case msgStealRequest:
		grant := n.queue / 2
		n.queue -= grant
		fs.send(n.id, int(m.from), int64(workGrantBytes+grant*64),
			msg{kind: msgGrant, word: uint64(grant), reqAt: m.reqAt})
	case msgGrant:
		fs.granted(n, int(m.from), int(m.word), m.reqAt)
	case msgDrain:
		n.queue += int(m.word)
		n.fold(0x44, now, m.word)
		if !n.busy {
			fs.pump(n)
		}
	}
}

// join boots node n at join time: it arrives with an empty queue and
// immediately pulls work through the steal path, and its heartbeat loop
// is armed with the usual jitter. A rejoin after an earlier membership
// (crashed slots are restarted via Restart, but a scripted preempt→join
// cycle lands here too) only re-enters the pump — the heartbeat loop from
// the first boot is still ticking, it must not be doubled.
func (fs *fleetSim) join(n *node) {
	now := fs.env.Now()
	n.joins++
	n.fold(0x4a, now, n.joins)
	fs.nodeSpan(n, obs.Span{Start: now, End: now, Kind: obs.KindMark, Name: "join", Arg: int64(n.joins)})
	if !n.booted {
		n.booted = true
		fs.env.AtArg(now+n.rng.jitter(heartbeatPeriod), fs.heartbeatFn, uint64(n.id))
	}
	if !n.busy {
		fs.pump(n)
	}
}

// drain is the pre-flip half of a preemption: the departing node pushes
// its whole queue to its ring successor while its sends are still
// admitted, then departs. Liveness is checked at the receiver on arrival —
// if the successor is itself dead or departed by then the batch is
// dropped, the same volatile-loss semantics as a crash.
func (fs *fleetSim) drain(n *node) {
	now := fs.env.Now()
	n.preempts++
	n.fold(0x50, now, n.preempts)
	batch := n.queue
	n.queue = 0
	fs.nodeSpan(n, obs.Span{Start: now, End: now, Kind: obs.KindMark, Name: "preempt", Arg: int64(batch)})
	if batch == 0 {
		return
	}
	n.drained += uint64(batch)
	fs.send(n.id, (n.id+1)%fs.cfg.Nodes, int64(drainBytes+batch*64), msg{kind: msgDrain, word: uint64(batch)})
}

// heartbeat is node id's heartbeat timer: send a heartbeat to the ring
// successor, then rearm with jitter. Dead nodes keep the timer running (a
// crash does not stop virtual time) but their sends are refused.
func (fs *fleetSim) heartbeat(id uint64) {
	n := &fs.nodes[id]
	fs.send(n.id, (n.id+1)%fs.cfg.Nodes, heartbeatBytes, msg{kind: msgHeartbeat})
	fs.env.AtArg(fs.env.Now()+n.rng.jitter(heartbeatPeriod), fs.heartbeatFn, id)
}

// gossip forwards a rumor to a random peer chosen by the forwarding node's
// own generator; each hop decrements ttl.
func (fs *fleetSim) gossip(n *node, rumor uint64, ttl int) {
	peer := n.rng.intn(fs.cfg.Nodes - 1)
	if peer >= n.id {
		peer++
	}
	fs.send(n.id, peer, rumorBytes, msg{kind: msgRumor, word: rumor, ttl: int32(ttl)})
}

func (fs *fleetSim) pumpArg(id uint64) { fs.pump(&fs.nodes[id]) }

// pump is n's work loop: process queued items one at a time with a
// generator-drawn service time; when the queue runs dry, steal half a
// random peer's queue.
func (fs *fleetSim) pump(n *node) {
	if n.queue == 0 {
		n.busy = false
		fs.steal(n)
		return
	}
	n.busy = true
	service := sim.Micros(20) + sim.Time(n.rng.next()%uint64(sim.Micros(80)))
	// A straggler window (gpu-slow on the node's device 0) stretches
	// service times while it lasts; factor 1 leaves the draw untouched.
	if fs.inj != nil {
		if f := fs.inj.GPUFactor(n.id, 0); f > 1 {
			service = sim.Time(float64(service) * f)
		}
	}
	fs.env.AtArg(fs.env.Now()+service, fs.serviceFn, uint64(n.id))
}

// serviceDone completes node id's current item (unless the node died
// meanwhile) and pumps the next one.
func (fs *fleetSim) serviceDone(id uint64) {
	n := &fs.nodes[id]
	if fs.alive(n.id) {
		n.queue--
		n.workDone++
		n.fold(0x57, fs.env.Now(), n.workDone)
	}
	fs.pump(n)
}

func (fs *fleetSim) stealArg(id uint64) { fs.steal(&fs.nodes[id]) }

// steal asks a random peer for half its queue (see deliver and granted).
func (fs *fleetSim) steal(n *node) {
	victim := n.rng.intn(fs.cfg.Nodes - 1)
	if victim >= n.id {
		victim++
	}
	fs.send(n.id, victim, workRequestBytes, msg{kind: msgStealRequest, reqAt: fs.env.Now()})
}

// granted takes a steal grant of items from victim at thief n; an empty
// grant backs off and retries.
func (fs *fleetSim) granted(n *node, victim, items int, reqAt sim.Time) {
	now := fs.env.Now()
	n.queue += items
	// The full request→grant round trip, recorded at grant delivery; Arg
	// 0 marks a failed attempt (empty victim).
	fs.nodeSpan(n, obs.Span{Start: reqAt, End: now, Kind: obs.KindSteal,
		Name: "steal", Arg: int64(items), Arg2: int64(victim)})
	if items > 0 {
		n.fold(0x53, now, uint64(items))
		if !n.busy {
			fs.pump(n)
		}
		return
	}
	fs.env.AtArg(now+sim.Millis(1)+n.rng.jitter(sim.Micros(500)), fs.stealFn, uint64(n.id))
}
