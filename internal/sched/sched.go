// Package sched implements rocketd, the multi-tenant job scheduler layered
// on top of the Rocket runtime. Where core.Run executes one all-pairs job
// to completion on a dedicated platform, sched admits a queue of
// heterogeneous jobs (mixed applications, sizes, and tenants) and runs
// them concurrently over one shared simulated cluster: each admitted job
// leases a partition of the cluster's nodes, executes on it through the
// unmodified Rocket runtime, and returns its nodes to the free pool when
// it completes, at which point the configured policy (FIFO,
// shortest-job-first, or fair-share across tenants) picks the next job.
//
// The scheduler is a two-level discrete-event simulation: the inner level
// is the per-job Rocket runtime (core.Run on the leased partition), whose
// virtual run time becomes the job's service time; the outer level is the
// fleet clock, which interleaves arrivals, placements, and completions of
// many jobs over the shared node pool. Inner simulations are independent,
// so they execute on parallel OS workers; all scheduling decisions depend
// only on virtual time, which keeps fleet results deterministic for a
// given seed regardless of host parallelism.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/gpu"
	"rocket/internal/obs"
	"rocket/internal/pairs"
	"rocket/internal/pairstore"
	"rocket/internal/sim"
)

// Job is one all-pairs workload submitted to the scheduler.
type Job struct {
	// ID identifies the job in reports. Empty IDs are assigned "job<i>".
	ID string
	// Tenant is the submitting principal, the unit of fair-share
	// accounting. Empty tenants are grouped under "default".
	Tenant string
	// App is the application to run (required).
	App core.Application
	// Nodes is the partition size the job requests from the shared
	// cluster; 0 requests a single node.
	Nodes int
	// Arrival is the virtual time at which the job enters the queue.
	Arrival sim.Time
	// Seed overrides the per-job seed derived from Config.Seed.
	Seed uint64
	// Faults injects a deterministic fault schedule into the job's first
	// attempt. A job aborted by partition loss (core.ErrPartitionLost) is
	// requeued up to Config.MaxRetries times; retries run fault-free,
	// modeling placement on fresh nodes.
	Faults *fault.Schedule

	// StoreRef, when non-empty, makes the job participate in the fleet's
	// shared pair store under this dataset namespace: results it
	// computes are merged back at completion, and with BaseItems > 0 the
	// delta planner serves the base region from the store instead of
	// recomputing it. The store snapshot a job consults is captured at
	// its placement and batches are merged at its completion — both
	// inside the deterministic virtual-time loop, so a served fleet and
	// its offline replay observe identical store states.
	StoreRef string
	// BaseItems is the delta plan's resident prefix: pairs with both
	// items below it are served from the store (see core.Config.BaseItems).
	BaseItems int
	// DatasetVersion is provenance recorded in the job's metrics: the
	// dataset version (item count) this job computes. 0 = unversioned.
	DatasetVersion int
	// Digest derives item content digests for store keys. When nil it
	// defaults to pairstore.DigestFunc(StoreRef, App.Name(), seed) with
	// the job's effective seed — correct whenever Seed is set explicitly
	// (dataset identity); jobs with derived seeds get non-colliding
	// digests and therefore no cross-job reuse unless Digest is given.
	Digest func(item int) pairstore.Digest
}

// Config configures one scheduler run.
type Config struct {
	// Jobs is the workload to schedule (required).
	Jobs []Job
	// Nodes is the size of the shared cluster (required).
	Nodes int
	// NodeSpec is the hardware of every node. The zero value defaults to
	// a DAS-5 node with one TitanX Maxwell.
	NodeSpec cluster.NodeSpec
	// Fabric configures network and storage; the zero value defaults to
	// cluster.DefaultConfig().
	Fabric cluster.Config
	// Policy selects the placement order; default PolicyFIFO.
	Policy Policy
	// MaxQueued is the admission limit: a job arriving while this many
	// jobs are already waiting is rejected (backpressure). 0 = unlimited.
	MaxQueued int
	// MaxRunning caps concurrently executing jobs in addition to the
	// node-pool limit. 0 = bounded only by free nodes.
	MaxRunning int
	// MaxRetries is how many times a job whose partition died under it
	// (core.ErrPartitionLost) is requeued before the failure aborts the
	// whole run. 0 = partition loss is fatal.
	MaxRetries int
	// KeepGoing records an inner runtime failure in the job's metrics
	// (JobMetrics.Failed) and releases its lease instead of aborting the
	// whole run. Online schedulers always run with KeepGoing, so batch
	// replays of a served arrival log must set it to reproduce the same
	// fleet metrics.
	KeepGoing bool
	// Workers is the number of OS threads executing inner simulations in
	// parallel; 0 defaults to GOMAXPROCS. It does not affect results.
	Workers int
	// Seed drives per-job seed derivation.
	Seed uint64
	// TimeScale is the online-mode bridge from wall-clock to virtual
	// time: a job submitted w wall-seconds after Start is assigned a
	// virtual arrival no earlier than TimeScale*w virtual seconds
	// (see Online). 0 disables the bridge: arrivals latch onto the
	// current virtual clock. Batch runs ignore it.
	TimeScale float64
	// Store is the fleet's shared pair store. Nil is fine even when jobs
	// carry StoreRefs: a fresh store is created at the first placement
	// that needs one (which is exactly what an offline replay of a
	// served log wants — the server also started empty). Pass a loaded
	// store to warm-start the fleet.
	Store *pairstore.Store
	// Elastic switches the node pool from a fixed fleet of Nodes to an
	// autoscaled one: Nodes becomes the capacity (slot space) and the
	// policy decides how much of it is active at any virtual instant.
	// Nil keeps the classic fixed fleet.
	Elastic *Autoscale
	// Spans, when non-nil, records job wait/run intervals and pairstore
	// seal/compaction instants into the flight recorder. Recording
	// happens only at the scheduler loop's deterministic points
	// (placement, completion, merge) — never from inner-simulation
	// goroutines — so traces replay byte-identically. Nil (the default)
	// adds one nil check per completion.
	Spans *obs.Recorder
}

// jobState tracks one job through the scheduler.
type jobState struct {
	job    Job
	id     string
	tenant string
	seed   uint64
	est    sim.Time
	lease  []int
	start  sim.Time
	end    sim.Time
	inner  *core.Metrics
	err    error
	done   chan struct{}
	reject bool
	// failed marks a job whose inner runtime failed under KeepGoing; the
	// fleet run continues and the failure is reported in JobMetrics.
	failed bool
	// attempt counts executions so far; retry marks a partition-lost
	// attempt whose lease release doubles as a requeue.
	attempt int
	retry   bool
	// storeSnap/storeBatch are the pair-store views of the current
	// attempt, captured at placement and merged at completion (both in
	// the scheduler loop, never from inner-sim goroutines).
	storeSnap  *pairstore.Snapshot
	storeBatch *pairstore.Batch
	// preempts are spot reclaims scheduled inside this attempt's lease,
	// expressed as crash events in the inner run's node indices and
	// relative time. Computed at placement; reclaims beyond the job's
	// completion are harmless (the inner runtime pins its completion
	// time before draining armed events).
	preempts []fault.Event
}

// resetForRetry returns the state to the queue for another attempt.
func (js *jobState) resetForRetry() {
	js.attempt++
	js.retry = false
	js.lease = nil
	js.inner = nil
	js.err = nil
	js.storeSnap = nil
	js.storeBatch = nil
	js.preempts = nil
	js.done = make(chan struct{})
}

// metrics is the job's outcome record, the one JobMetrics that both
// aggregate and Online.JobMetrics report.
func (js *jobState) metrics() JobMetrics {
	jm := JobMetrics{
		ID:             js.id,
		Tenant:         js.tenant,
		App:            js.job.App.Name(),
		Rejected:       js.reject,
		Retries:        js.attempt,
		Arrival:        js.job.Arrival,
		StoreRef:       js.job.StoreRef,
		DatasetVersion: js.job.DatasetVersion,
		BaseItems:      js.job.BaseItems,
	}
	if js.reject {
		return jm
	}
	jm.Nodes = js.lease
	jm.Failed = js.failed
	if js.failed && js.err != nil {
		jm.Error = js.err.Error()
	}
	jm.Start = js.start
	jm.End = js.end
	jm.Wait = js.start - js.job.Arrival
	jm.Runtime = js.end - js.start
	jm.Inner = js.inner
	return jm
}

// normalize validates cfg and fills in its defaults; Jobs is checked by
// Run, since online runs start without any.
func (cfg Config) normalize() (Config, error) {
	if cfg.Nodes < 1 {
		return cfg, fmt.Errorf("sched: Config.Nodes must be >= 1, got %d", cfg.Nodes)
	}
	if cfg.NodeSpec.Cores == 0 && cfg.NodeSpec.HostCacheBytes == 0 && len(cfg.NodeSpec.GPUs) == 0 {
		cfg.NodeSpec = cluster.NodeSpec{
			Cores:          16,
			HostCacheBytes: 40 * gpu.GiB,
			GPUs:           []gpu.Model{gpu.TitanXMaxwell},
		}
	}
	if err := cfg.NodeSpec.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Fabric == (cluster.Config{}) {
		cfg.Fabric = cluster.DefaultConfig()
	}
	if cfg.Policy < PolicyFIFO || cfg.Policy > PolicyFairShare {
		return cfg, fmt.Errorf("sched: unknown policy %d", cfg.Policy)
	}
	if cfg.MaxQueued < 0 || cfg.MaxRunning < 0 {
		return cfg, fmt.Errorf("sched: negative admission limits")
	}
	if cfg.MaxRetries < 0 {
		return cfg, fmt.Errorf("sched: negative MaxRetries")
	}
	if cfg.TimeScale < 0 {
		return cfg, fmt.Errorf("sched: negative TimeScale")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Elastic != nil {
		a, err := cfg.Elastic.normalize(cfg.Nodes)
		if err != nil {
			return cfg, err
		}
		cfg.Elastic = &a
	}
	return cfg, nil
}

// newState validates one job and builds its scheduler state. i is the
// submission index (which drives ID and seed derivation) and seen maps
// already-claimed IDs to their index.
func newState(cfg Config, j Job, i int, seen map[string]int) (*jobState, error) {
	if j.App == nil {
		return nil, fmt.Errorf("sched: job %d has no App", i)
	}
	if j.Nodes == 0 {
		j.Nodes = 1
	}
	if j.Nodes < 0 || j.Nodes > cfg.Nodes {
		return nil, fmt.Errorf("sched: job %d requests %d nodes; cluster has %d", i, j.Nodes, cfg.Nodes)
	}
	if j.Arrival < 0 {
		return nil, fmt.Errorf("sched: job %d has negative arrival %v", i, j.Arrival)
	}
	if j.BaseItems < 0 {
		return nil, fmt.Errorf("sched: job %d has negative BaseItems %d", i, j.BaseItems)
	}
	if j.BaseItems > 0 && j.StoreRef == "" {
		return nil, fmt.Errorf("sched: job %d has BaseItems without a StoreRef", i)
	}
	id := j.ID
	if id == "" {
		id = fmt.Sprintf("job%d", i)
	}
	if prev, dup := seen[id]; dup {
		return nil, fmt.Errorf("sched: jobs %d and %d share ID %q", prev, i, id)
	}
	seen[id] = i
	tenant := j.Tenant
	if tenant == "" {
		tenant = "default"
	}
	seed := j.Seed
	if seed == 0 {
		seed = cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
	}
	return &jobState{
		job:    j,
		id:     id,
		tenant: tenant,
		seed:   seed,
		est:    estimate(j.App, j.Nodes, len(cfg.NodeSpec.GPUs)),
		done:   make(chan struct{}),
	}, nil
}

// newStates validates the jobs and builds their scheduler state, in input
// order.
func newStates(cfg Config) ([]*jobState, error) {
	states := make([]*jobState, len(cfg.Jobs))
	seen := make(map[string]int, len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		js, err := newState(cfg, j, i, seen)
		if err != nil {
			return nil, err
		}
		states[i] = js
	}
	return states, nil
}

// estimate predicts a job's service time for shortest-job-first ordering:
// total pairs times a sampled mean comparison cost, divided by the
// partition's GPU count. It only needs to order jobs correctly, not to
// predict absolute run times.
func estimate(app core.Application, nodes, gpusPerNode int) sim.Time {
	n := app.NumItems()
	total := pairs.TotalPairs(n)
	step := n/8 + 1
	var sum sim.Time
	samples := 0
	for i := 0; i < n; i += step {
		for j := i + 1; j < n; j += step {
			sum += app.CompareTime(i, j)
			samples++
		}
	}
	if samples == 0 {
		return sim.Time(total)
	}
	mean := float64(sum) / float64(samples)
	return sim.Time(float64(total) * mean / float64(nodes*gpusPerNode))
}

// frontier feeds the scheduler loop its arrival stream. The batch frontier
// walks a pre-sorted job slice; the online frontier drains a submission
// inbox, assigning virtual arrival times as jobs are observed. Arrival
// times returned by due/next must be monotone non-decreasing, and due may
// never hand out a job whose arrival exceeds the clock it was called with.
type frontier interface {
	// due removes and returns every job with arrival <= clock, in
	// admission order.
	due(clock sim.Time) []*jobState
	// next reports the earliest known future arrival.
	next() (sim.Time, bool)
	// wait blocks until the frontier may have another arrival, reporting
	// whether one may still come; it is only called when the cluster is
	// idle and next() was empty. Batch frontiers never block.
	wait() bool
}

// sliceFrontier is the batch frontier: a slice sorted by arrival time,
// ties broken by submission order.
type sliceFrontier struct {
	arrivals []*jobState
	i        int
}

func (f *sliceFrontier) due(clock sim.Time) []*jobState {
	start := f.i
	for f.i < len(f.arrivals) && f.arrivals[f.i].job.Arrival <= clock {
		f.i++
	}
	return f.arrivals[start:f.i]
}

func (f *sliceFrontier) next() (sim.Time, bool) {
	if f.i < len(f.arrivals) {
		return f.arrivals[f.i].job.Arrival, true
	}
	return 0, false
}

func (f *sliceFrontier) wait() bool { return false }

// hook receives each job lifecycle event (EventQueued, EventRejected,
// EventStarted, EventRetrying, EventCompleted, EventFailed) from the loop
// goroutine, with the virtual time it happened at. The online scheduler
// publishes job status and the event stream through it; batch runs have
// none.
type hook func(event string, js *jobState, clock sim.Time)

// scheduler is one fleet run's mutable state; run drives it from a
// frontier until the frontier is exhausted and the cluster drains.
type scheduler struct {
	cfg     Config
	free    []int // free node IDs, ascending
	pending []*jobState
	running []*jobState
	clock   sim.Time
	usage   map[string]float64 // tenant -> completed node-seconds
	sem     chan struct{}
	hook    hook // nil in batch runs
	// store is the fleet's shared pair store, touched only from the loop
	// goroutine (snapshots at placement, merges at completion).
	store *pairstore.Store
	// pool tracks elastic slot lifecycles; nil for fixed fleets.
	pool *elasticPool
	// spans is the flight recorder (nil = off), written only from the
	// loop goroutine.
	spans *obs.Recorder
}

func newScheduler(cfg Config, h hook) *scheduler {
	// The free pool holds node IDs in ascending order; leases take the
	// lowest IDs so placements are deterministic and reported partitions
	// are stable. Under autoscaling only the boot set starts free.
	var free []int
	var pool *elasticPool
	if cfg.Elastic != nil {
		pool = newElasticPool(*cfg.Elastic, cfg.Nodes)
		free = pool.initialFree()
	} else {
		free = make([]int, cfg.Nodes)
		for i := range free {
			free[i] = i
		}
	}
	s := &scheduler{
		cfg:   cfg,
		free:  free,
		usage: make(map[string]float64),
		sem:   make(chan struct{}, cfg.Workers),
		hook:  h,
		store: cfg.Store,
		pool:  pool,
		spans: cfg.Spans,
	}
	s.attachStoreHooks()
	return s
}

// attachStoreHooks wires the pair store's maintenance hooks to the
// flight recorder. The store is only sealed/compacted from the loop
// goroutine (Merge/MaybeSeal at completion points), so the hooks may
// read s.clock: they fire at the deterministic virtual instant of the
// merge that triggered them.
func (s *scheduler) attachStoreHooks() {
	if s.spans == nil || s.store == nil {
		return
	}
	s.store.SetMaintenanceHooks(
		func(rows int) {
			s.spans.RecordInstant(0, obs.KindSeal, "store", "seal", s.clock, int64(rows))
		},
		func(inputs int) {
			s.spans.RecordInstant(0, obs.KindCompact, "store", "compact", s.clock, int64(inputs))
		},
	)
}

// notify passes one lifecycle event to the hook, stamped with the clock.
func (s *scheduler) notify(event string, js *jobState) {
	if s.hook != nil {
		s.hook(event, js, s.clock)
	}
}

// run schedules every job the frontier yields over the shared cluster,
// one virtual instant per iteration. All scheduling decisions depend only
// on virtual time and the admission order the frontier establishes, so a
// batch replay of an online run's arrival log takes exactly the same
// decisions.
func (s *scheduler) run(f frontier) error {
	for {
		s.admit(f)
		// Scale and place: the pool first catches up with the clock, then
		// placement and scale-up alternate; warm capacity is usable at this
		// same instant, so placement retries until neither makes progress.
		s.syncPool()
		s.place()
		for s.scaleUp() {
			s.place()
		}
		if more, err := s.advance(f); !more {
			return err
		}
		s.harvest()
	}
}

// admit queues the arrivals due by the clock, rejecting those that find
// MaxQueued jobs already waiting.
func (s *scheduler) admit(f frontier) {
	for _, js := range f.due(s.clock) {
		if s.cfg.MaxQueued > 0 && len(s.pending) >= s.cfg.MaxQueued {
			js.reject = true
			s.notify(EventRejected, js)
			continue
		}
		s.pending = append(s.pending, js)
		s.notify(EventQueued, js)
	}
}

// syncPool applies pool lifecycle events due by the scheduler clock:
// provisioning completions join the free pool, idle expiries and
// free-slot reclaims leave it. Both are retroactively exact, so placement
// sees the capacity that actually exists at this instant and the
// node-seconds bill is never distorted.
func (s *scheduler) syncPool() {
	if s.pool == nil {
		return
	}
	if ready := s.pool.ready(s.clock); len(ready) > 0 {
		s.free = append(s.free, ready...)
		sort.Ints(s.free)
	}
	if retired := s.pool.retire(s.clock); len(retired) > 0 {
		gone := make(map[int]bool, len(retired))
		for _, id := range retired {
			gone[id] = true
		}
		keep := s.free[:0]
		for _, id := range s.free {
			if !gone[id] {
				keep = append(keep, id)
			}
		}
		s.free = keep
	}
}

// scaleUp provisions capacity against the pending queue's unmet node
// demand. Returns true when warm (zero-delay) capacity joined the free
// pool, i.e. placement should be retried at this same instant.
func (s *scheduler) scaleUp() bool {
	if s.pool == nil || len(s.pending) == 0 {
		return false
	}
	demand := 0
	for _, js := range s.pending {
		demand += js.job.Nodes
	}
	warming := 0
	for _, sl := range s.pool.slots {
		if sl.state == slotProvisioning {
			warming++
		}
	}
	want := demand - len(s.free) - warming
	if want <= 0 {
		return false
	}
	freeNow := s.pool.provision(want, s.clock)
	if len(freeNow) == 0 {
		return false
	}
	s.free = append(s.free, freeNow...)
	sort.Ints(s.free)
	return true
}

// place lets the policy start pending jobs while nodes and the
// running-job budget allow. Jobs placed at the same instant execute their
// inner simulations in parallel.
func (s *scheduler) place() {
	for len(s.pending) > 0 {
		if s.cfg.MaxRunning > 0 && len(s.running) >= s.cfg.MaxRunning {
			return
		}
		i := pick(s.cfg.Policy, s.pending, s.running, len(s.free), s.clock, s.usage)
		if i < 0 {
			return
		}
		js := s.pending[i]
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		js.lease = append([]int(nil), s.free[:js.job.Nodes]...)
		s.free = s.free[js.job.Nodes:]
		js.start = s.clock
		if s.pool != nil {
			// Reclaims scheduled inside the lease become crash events at
			// the slot's partition-local index; the job drains through
			// steal-based harvest like any crash.
			for k, id := range js.lease {
				s.pool.lease(id)
				if at := s.pool.slots[id].preemptAt; at > s.clock {
					js.preempts = append(js.preempts,
						fault.Event{At: at - s.clock, Kind: fault.NodeCrash, Node: k})
				}
			}
		}
		if js.job.StoreRef != "" {
			// The store view is pinned here, at the deterministic
			// placement point: merges of jobs completing at or before this
			// clock already happened, later merges are invisible.
			if s.store == nil {
				s.store = pairstore.New()
				s.attachStoreHooks()
			}
			js.storeSnap = s.store.Snapshot()
			js.storeBatch = pairstore.NewBatch()
		}
		s.running = append(s.running, js)
		s.notify(EventStarted, js)
		go s.cfg.runInner(js, s.sem)
	}
}

// advance moves the clock to the next instant anything happens and
// reports whether the run goes on. With jobs running it joins their inner
// runs, which fixes their end times; otherwise it jumps to the next
// arrival or provisioning completion, or waits on the frontier.
func (s *scheduler) advance(f frontier) (bool, error) {
	next, ok := f.next()
	if s.pool != nil {
		// Never jump over a provisioning completion: queued jobs must be
		// placed the instant their capacity comes online.
		if rt, rok := s.pool.nextReady(); rok && rt > s.clock && (!ok || rt < next) {
			next, ok = rt, true
		}
	}
	if len(s.running) == 0 {
		if ok {
			s.clock = next
			return true, nil
		}
		if f.wait() {
			return true, nil
		}
		if len(s.pending) > 0 {
			return false, fmt.Errorf("sched: %d jobs stuck with an idle cluster", len(s.pending))
		}
		return false, nil
	}
	if err := s.join(); err != nil {
		return false, err
	}
	for _, js := range s.running {
		if !ok || js.end < next {
			next, ok = js.end, true
		}
	}
	s.clock = next
	return true, nil
}

// join waits for every running inner simulation and fixes its end time. A
// job whose partition died under it is marked for requeue (up to
// MaxRetries) at its abort time; any other failure is recorded under
// KeepGoing and aborts the run otherwise.
func (s *scheduler) join() error {
	for _, js := range s.running {
		<-js.done
		switch {
		case js.err == nil:
		case errors.Is(js.err, core.ErrPartitionLost) && js.attempt < s.cfg.MaxRetries:
			js.retry = true
		case s.cfg.KeepGoing:
			js.failed = true
		default:
			for _, r := range s.running {
				<-r.done
			}
			return fmt.Errorf("sched: job %s: %w", js.id, js.err)
		}
		js.end = js.start
		if js.inner != nil {
			js.end += js.inner.Runtime
		}
	}
	return nil
}

// harvest settles every job that ended by the clock: its lease returns to
// the pool, a completed job's results merge into the store, its spans are
// recorded, and an aborted attempt rejoins the queue.
func (s *scheduler) harvest() {
	keep := s.running[:0]
	for _, js := range s.running {
		if js.end > s.clock {
			keep = append(keep, js)
			continue
		}
		s.usage[js.tenant] += float64(len(js.lease)) * (js.end - js.start).Seconds()
		if s.pool != nil {
			s.free = append(s.free, s.pool.release(js.lease, js.end)...)
		} else {
			s.free = append(s.free, js.lease...)
		}
		if js.storeBatch != nil && !js.retry && !js.failed {
			// Completion is the deterministic merge point: the job's
			// emitted results become visible to every job placed from this
			// clock on. Background maintenance rides it: once the mutable
			// log crosses the auto-seal threshold it is promoted to a
			// sorted columnar segment (and tier merges cascade), which
			// depends only on merged-entry counts, not wall-clock.
			s.store.Merge(js.storeBatch)
			s.store.RecordServe(js.inner.StoreHits, js.inner.StoreMisses,
				js.inner.StoreReadBytes, js.inner.StoreWriteBytes)
			s.store.MaybeSeal()
		}
		s.record(js)
		switch {
		case js.retry:
			js.resetForRetry()
			s.pending = append(s.pending, js)
			s.notify(EventRetrying, js)
		case js.failed:
			s.notify(EventFailed, js)
		default:
			s.notify(EventCompleted, js)
		}
	}
	s.running = keep
	sort.Ints(s.free)
}

// record writes a settled attempt into the flight recorder: a retry mark,
// or the job's wait and run spans. Both are pure functions of arrival,
// placement and completion times, so the trace is independent of worker
// scheduling.
func (s *scheduler) record(js *jobState) {
	if s.spans == nil {
		return
	}
	if js.retry {
		s.spans.RecordInstant(0, obs.KindMark, "sched", js.id+"/retry", s.clock, int64(js.attempt+1))
		return
	}
	var pairs int64
	if js.inner != nil {
		pairs = int64(js.inner.Pairs)
	}
	s.spans.Record(0, obs.Span{Kind: obs.KindJobWait, Track: "sched",
		Name: js.id, Tenant: js.tenant,
		Start: js.job.Arrival, End: js.start})
	s.spans.Record(0, obs.Span{Kind: obs.KindJobRun, Track: "sched",
		Name: js.id, Tenant: js.tenant,
		Start: js.start, End: js.end,
		Arg: int64(len(js.lease)), Arg2: pairs})
}

// Run schedules every job of cfg over the shared cluster and returns the
// fleet metrics. Jobs that cannot be admitted (MaxQueued backpressure) are
// reported as rejected, not errors; an inner runtime failure aborts the
// whole run unless Config.KeepGoing records it per-job instead.
func Run(cfg Config) (*Metrics, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("sched: Config.Jobs is empty")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	states, err := newStates(cfg)
	if err != nil {
		return nil, err
	}

	// Arrival order: by arrival time, ties by submission order.
	arrivals := append([]*jobState(nil), states...)
	sort.SliceStable(arrivals, func(i, j int) bool {
		return arrivals[i].job.Arrival < arrivals[j].job.Arrival
	})

	s := newScheduler(cfg, nil)
	if err := s.run(&sliceFrontier{arrivals: arrivals}); err != nil {
		return nil, err
	}
	return aggregate(cfg, states, s.pool), nil
}

// runInner executes one job's Rocket runtime on a cluster the size of its
// lease. The semaphore bounds host parallelism; results depend only on
// the job's seed and partition, never on worker interleaving.
func (cfg Config) runInner(js *jobState, sem chan struct{}) {
	defer close(js.done)
	sem <- struct{}{}
	defer func() { <-sem }()

	specs := make([]cluster.NodeSpec, len(js.lease))
	for i := range specs {
		specs[i] = cfg.NodeSpec
	}
	cl, err := cluster.New(specs, cfg.Fabric)
	if err != nil {
		js.err = err
		return
	}
	ccfg := core.Config{
		App:       js.job.App,
		Cluster:   cl,
		Seed:      js.seed,
		DistCache: len(js.lease) > 1,
	}
	if js.job.StoreRef != "" {
		ccfg.BaseItems = js.job.BaseItems
		ccfg.Store = js.storeSnap
		ccfg.StoreBatch = js.storeBatch
		ccfg.ItemDigest = js.job.Digest
		if ccfg.ItemDigest == nil {
			ccfg.ItemDigest = pairstore.DigestFunc(js.job.StoreRef, js.job.App.Name(), js.seed)
		}
	}
	if js.attempt == 0 {
		// Retries model placement on fresh nodes and run fault-free.
		ccfg.Faults = js.job.Faults
	}
	if len(js.preempts) > 0 {
		// Spot reclaims follow the slots, not the attempt: every
		// placement onto a doomed slot crashes at the scheduled instant.
		merged := &fault.Schedule{}
		if !ccfg.Faults.Empty() {
			merged.Events = append(merged.Events, ccfg.Faults.Events...)
		}
		merged.Events = append(merged.Events, js.preempts...)
		ccfg.Faults = merged
	}
	js.inner, js.err = core.Run(ccfg)
}
