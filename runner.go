package rocket

import (
	"fmt"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/fleet"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

// Time is the simulation clock (nanoseconds of virtual time); see
// rocket/internal/sim for constructors (sim.Micros, sim.Millis, ...).
type Time = sim.Time

// FaultSchedule is a deterministic fault-injection schedule; see
// rocket/internal/fault.
type FaultSchedule = fault.Schedule

// FaultProbe is one timed health observation armed inside virtual time;
// see rocket/internal/fault.
type FaultProbe = fault.Probe

// ChaosConfig parameterizes a seeded fault storm whose Generate method
// samples a replayable FaultSchedule; see rocket/internal/fault.
type ChaosConfig = fault.ChaosConfig

// FleetConfig configures a fleet-protocol run; see rocket/internal/fleet.
type FleetConfig = fleet.Config

// FleetResult is a fleet run's deterministic summary.
type FleetResult = fleet.Result

// Elasticity parameterizes seeded membership churn for fleet runs: a
// join wave (instant/linear/exponential/wave arrivals with cold-start
// jitter) plus spot-style preemptions, all a pure function of the seed;
// see rocket/internal/fault.
type Elasticity = fault.Elasticity

// Autoscale is the elastic-capacity policy of queue runs: a slot pool
// that grows against queue depth and shrinks on idle timeout; see
// rocket/internal/sched.
type Autoscale = sched.Autoscale

// Preemption is one scheduled spot reclaim of an autoscaled slot.
type Preemption = sched.Preemption

// An Option configures a Runner; pass options to New.
type Option func(*Runner)

// Runner is the configured entry point of the redesigned API: a platform
// description plus run settings, built once with New and reused across
// runs. Unlike a *Cluster (which accumulates accounting and must not be
// reused), a Runner built from a topology constructs a fresh cluster for
// every Run, so the same Runner always produces the same Metrics for the
// same application and seed.
//
//	r := rocket.New(
//		rocket.WithHomogeneous(16, rocket.DAS5Node(rocket.TitanXMaxwell)),
//		rocket.WithDistCache(true),
//		rocket.WithSeed(1),
//	)
//	metrics, err := r.Run(app)
type Runner struct {
	cfg    Config // template; App and Cluster are filled per run
	topo   []NodeSpec
	fabric cluster.Config

	// explicit cluster (WithCluster): consumed by the first Run, because
	// clusters accumulate I/O and network accounting across runs.
	cluster     *Cluster
	clusterUsed bool

	queue   QueueConfig
	elastic *Elasticity
	err     error
}

// New builds a Runner from functional options. Option errors (an invalid
// topology, say) are deferred: they surface from the first Run or
// RunQueue call, so New itself never fails and chains cleanly.
func New(opts ...Option) *Runner {
	r := &Runner{fabric: cluster.DefaultConfig()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// WithTopology describes the platform as explicit per-node hardware
// specs; a fresh cluster is built from them for every Run.
func WithTopology(specs ...NodeSpec) Option {
	return func(r *Runner) {
		if len(specs) == 0 {
			r.fail(fmt.Errorf("rocket: WithTopology needs at least one node"))
			return
		}
		r.topo = append([]NodeSpec(nil), specs...)
	}
}

// WithHomogeneous describes a platform of n identical nodes.
func WithHomogeneous(n int, spec NodeSpec) Option {
	return func(r *Runner) {
		if n < 1 {
			r.fail(fmt.Errorf("rocket: WithHomogeneous needs n >= 1, got %d", n))
			return
		}
		specs := make([]NodeSpec, n)
		for i := range specs {
			specs[i] = spec
		}
		r.topo = specs
	}
}

// WithFabric overrides the network/storage fabric used when building
// clusters from a topology; the default is cluster.DefaultConfig().
func WithFabric(cfg cluster.Config) Option {
	return func(r *Runner) { r.fabric = cfg }
}

// WithCluster attaches an explicitly built platform. Because clusters
// accumulate I/O and network accounting, the attached cluster is consumed
// by the first Run; a second Run on the same Runner returns an error.
// Prefer WithTopology/WithHomogeneous, which rebuild per run.
func WithCluster(c *Cluster) Option {
	return func(r *Runner) {
		if c == nil {
			r.fail(fmt.Errorf("rocket: WithCluster(nil)"))
			return
		}
		r.cluster = c
	}
}

// WithSeed sets the seed driving all randomized behavior.
func WithSeed(seed uint64) Option {
	return func(r *Runner) {
		r.cfg.Seed = seed
		r.queue.Seed = seed
	}
}

// WithDistCache enables (or disables) the third-level distributed cache.
func WithDistCache(enabled bool) Option {
	return func(r *Runner) { r.cfg.DistCache = enabled }
}

// WithHops sets the distributed cache's h parameter (max candidates per
// lookup); the default 1 is the paper's evaluation setting.
func WithHops(h int) Option {
	return func(r *Runner) { r.cfg.Hops = h }
}

// WithDeviceSlots overrides the per-device cache capacity (0 derives it
// from device memory).
func WithDeviceSlots(n int) Option {
	return func(r *Runner) { r.cfg.DeviceSlots = n }
}

// WithHostSlots overrides the per-node host cache capacity (0 derives it
// from NodeSpec.HostCacheBytes; -1 disables the host cache).
func WithHostSlots(n int) Option {
	return func(r *Runner) { r.cfg.HostSlots = n }
}

// WithStealPolicy selects the work-stealing victim policy.
func WithStealPolicy(p core.StealPolicy) Option {
	return func(r *Runner) { r.cfg.StealPolicy = p }
}

// WithCollectResults stores comparison outputs in Metrics.Results
// (real-kernel runs).
func WithCollectResults(enabled bool) Option {
	return func(r *Runner) { r.cfg.CollectResults = enabled }
}

// WithThroughputWindow records per-device completed-pair counts bucketed
// by w (Fig. 14); zero disables.
func WithThroughputWindow(w Time) Option {
	return func(r *Runner) { r.cfg.ThroughputWindow = w }
}

// WithFaults injects a deterministic fault schedule into every run.
func WithFaults(s *FaultSchedule) Option {
	return func(r *Runner) { r.cfg.Faults = s }
}

// WithFaultProbes arms timed health observations inside virtual time:
// each probe reads its node's liveness at the given instant, after any
// fault events sharing the timestamp (scenario assertions are built on
// these). Probes apply to Run and RunFleet alike.
func WithFaultProbes(probes ...FaultProbe) Option {
	return func(r *Runner) {
		r.cfg.FaultProbes = append(r.cfg.FaultProbes, probes...)
	}
}

// WithStoreSnapshot attaches an immutable pair-store snapshot consulted
// by the incremental (delta) prefilter; pair with WithBaseItems and
// WithItemDigest.
func WithStoreSnapshot(s *PairStoreSnapshot) Option {
	return func(r *Runner) { r.cfg.Store = s }
}

// WithStoreBatch collects every computed pair result into b for a
// post-run merge into a pair store; requires WithItemDigest.
func WithStoreBatch(b *PairBatch) Option {
	return func(r *Runner) { r.cfg.StoreBatch = b }
}

// WithItemDigest wires the per-item content digest used for store keys;
// see PairDigestFunc.
func WithItemDigest(fn func(item int) PairDigest) Option {
	return func(r *Runner) { r.cfg.ItemDigest = fn }
}

// WithBaseItems declares the store-resident prefix of the data set: the
// run computes only the new-vs-all delta (see Config.BaseItems).
func WithBaseItems(n int) Option {
	return func(r *Runner) { r.cfg.BaseItems = n }
}

// WithPairStore attaches a shared pair store to queue runs (RunQueue);
// single runs consult snapshots instead (WithStoreSnapshot).
func WithPairStore(s *PairStore) Option {
	return func(r *Runner) { r.queue.Store = s }
}

// WithSpans attaches a flight recorder: Run, RunFleet, and RunQueue
// record virtual-time spans (GPU kernel/copy phases, job wait/run
// intervals, steal round trips, pairstore maintenance) into it, to be
// snapshotted and exported after the run (see NewSpanRecorder,
// ExportTrace). Nil — the default — keeps the observability layer
// entirely off. Spans are stamped in virtual time and exported in a
// canonical order, so recorded timelines are byte-identical across
// reruns.
func WithSpans(rec *SpanRecorder) Option {
	return func(r *Runner) {
		r.cfg.Spans = rec
		r.queue.Spans = rec
	}
}

// WithElasticity drives fleet runs (RunFleet) with seeded membership
// churn: nodes join along the configured arrival pattern and spot
// preemptions drain victims mid-run. Zero-valued Seed, Nodes, and
// Duration fields are filled from the Runner's seed, topology size, and
// fleet duration. Churn-free runs are unaffected.
func WithElasticity(e *Elasticity) Option {
	return func(r *Runner) { r.elastic = e }
}

// WithAutoscaler attaches an elastic-capacity policy to queue runs
// (RunQueue): the fleet starts at BootNodes, grows against queue depth,
// shrinks after IdleTimeout, and loses slots to scheduled Preemptions.
// Nil restores the fixed max-size fleet.
func WithAutoscaler(a *Autoscale) Option {
	return func(r *Runner) { r.queue.Elastic = a }
}

// WithQueuePolicy selects the placement order of queued jobs.
func WithQueuePolicy(p QueuePolicy) Option {
	return func(r *Runner) { r.queue.Policy = p }
}

// WithQueueConfig seeds the full queue configuration — policy, limits,
// retries, node specs, pre-loaded jobs — typically parsed from a
// manifest. Later options (WithSeed, WithQueuePolicy, WithPairStore)
// override the corresponding fields; RunQueue appends its arguments to
// cfg.Jobs.
func WithQueueConfig(cfg QueueConfig) Option {
	return func(r *Runner) { r.queue = cfg }
}

// WithConfig is the escape hatch for the long tail of run settings
// (EvictRandom, PairFilter, PrewarmHost, LeafPairs, ...): fn edits the
// underlying Config template directly. App and Cluster set here are
// ignored — Run fills them.
func WithConfig(fn func(*Config)) Option {
	return func(r *Runner) { fn(&r.cfg) }
}

func (r *Runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Topology returns the platform description: the per-node hardware
// specs a Run will execute on (derived from the attached cluster when
// one was passed explicitly). The slice is a copy.
func (r *Runner) Topology() []NodeSpec {
	if r.topo != nil {
		return append([]NodeSpec(nil), r.topo...)
	}
	if r.cluster != nil {
		specs := make([]NodeSpec, len(r.cluster.Nodes))
		for i, n := range r.cluster.Nodes {
			specs[i] = n.Spec
		}
		return specs
	}
	return nil
}

// Seed returns the configured seed.
func (r *Runner) Seed() uint64 { return r.cfg.Seed }

// platform yields the cluster for one run: a fresh build from the
// topology, or the explicitly attached cluster exactly once.
func (r *Runner) platform() (*Cluster, error) {
	if r.topo != nil {
		return cluster.New(r.topo, r.fabric)
	}
	if r.cluster != nil {
		if r.clusterUsed {
			return nil, fmt.Errorf("rocket: the cluster attached with WithCluster was already consumed by a previous Run; describe the platform with WithTopology or WithHomogeneous to rerun")
		}
		r.clusterUsed = true
		return r.cluster, nil
	}
	return nil, fmt.Errorf("rocket: no platform configured; pass WithTopology, WithHomogeneous, or WithCluster to New")
}

// Run executes one all-pairs application on the configured platform.
// Runners built from a topology are reusable: each call simulates a
// fresh cluster and is bit-identical for the same app and seed.
func (r *Runner) Run(app Application) (*Metrics, error) {
	if r.err != nil {
		return nil, r.err
	}
	if app == nil {
		return nil, fmt.Errorf("rocket: Run(nil application)")
	}
	c, err := r.platform()
	if err != nil {
		return nil, err
	}
	cfg := r.cfg
	cfg.App = app
	cfg.Cluster = c
	return core.Run(cfg)
}

// RunFleet executes the message-driven fleet workload (heartbeats,
// gossip, work-stealing), sized by the Runner's platform: one fleet node
// per topology spec, with the configured seed, fault schedule, and
// probes. fn, when non-nil, edits the derived fleet configuration before
// the run — duration, staggered startup, extra probes, chaos-generated
// schedules. Results are bit-identical for the same configuration and
// seed.
func (r *Runner) RunFleet(fn func(*FleetConfig)) (FleetResult, error) {
	if r.err != nil {
		return FleetResult{}, r.err
	}
	specs := r.Topology()
	if specs == nil {
		return FleetResult{}, fmt.Errorf("rocket: no platform configured; pass WithTopology, WithHomogeneous, or WithCluster to New")
	}
	cfg := fleet.DefaultConfig(len(specs))
	cfg.Seed = r.cfg.Seed
	cfg.NetLatency = r.fabric.NetLatency
	cfg.NetBandwidth = r.fabric.NetBandwidth
	cfg.Faults = r.cfg.Faults
	cfg.Probes = append([]FaultProbe(nil), r.cfg.FaultProbes...)
	gpus := make([]int, len(specs))
	for i, s := range specs {
		gpus[i] = len(s.GPUs)
		if gpus[i] < 1 {
			gpus[i] = 1
		}
	}
	cfg.GPUs = gpus
	cfg.Elastic = r.elastic
	cfg.Spans = r.cfg.Spans
	if fn != nil {
		fn(&cfg)
	}
	return fleet.Run(cfg)
}

// RunQueue schedules a queue of all-pairs jobs over one shared simulated
// cluster (see QueueConfig). The given jobs are appended to any jobs
// already present in the queue configuration (WithQueueConfig). The
// cluster size defaults to the configured topology when the queue
// configuration names none; queue clusters are homogeneous, so the first
// node's spec is used.
func (r *Runner) RunQueue(jobs ...QueueJob) (*QueueMetrics, error) {
	if r.err != nil {
		return nil, r.err
	}
	cfg := r.queue
	cfg.Jobs = append(append([]QueueJob(nil), cfg.Jobs...), jobs...)
	if cfg.Nodes == 0 && r.topo != nil {
		cfg.Nodes = len(r.topo)
		cfg.NodeSpec = r.topo[0]
	}
	return sched.Run(cfg)
}
