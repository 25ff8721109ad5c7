package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"rocket/internal/obs"
	"rocket/internal/sim"
)

// ErrShuttingDown is returned by Online.Submit once Shutdown has begun:
// the scheduler drains the jobs it already accepted but admits no more.
var ErrShuttingDown = fmt.Errorf("sched: scheduler is shutting down")

// JobStatus is one submission's position in the online lifecycle.
type JobStatus int

const (
	// StatusSubmitted: accepted, waiting for the scheduler loop to assign
	// its virtual arrival time.
	StatusSubmitted JobStatus = iota
	// StatusQueued: admitted to the pending queue (also after a
	// partition-loss requeue), waiting for nodes.
	StatusQueued
	// StatusRejected: refused admission by the MaxQueued limit.
	StatusRejected
	// StatusRunning: executing on its leased partition.
	StatusRunning
	// StatusDone: completed; metrics are available.
	StatusDone
	// StatusFailed: the inner runtime failed; Error holds the cause.
	StatusFailed
)

// String returns the status's wire name.
func (s JobStatus) String() string {
	switch s {
	case StatusSubmitted:
		return "submitted"
	case StatusQueued:
		return "queued"
	case StatusRejected:
		return "rejected"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Terminal reports whether the status is an endpoint of the lifecycle.
func (s JobStatus) Terminal() bool {
	return s == StatusRejected || s == StatusDone || s == StatusFailed
}

// MarshalJSON writes the wire name.
func (s JobStatus) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the wire name, so HTTP clients can decode JobInfo.
func (s *JobStatus) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, c := range []JobStatus{StatusSubmitted, StatusQueued, StatusRejected,
		StatusRunning, StatusDone, StatusFailed} {
		if c.String() == name {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("sched: unknown job status %q", name)
}

// JobInfo is a point-in-time snapshot of one submission, safe to read
// while the scheduler runs. Times are virtual nanoseconds; ArrivalNS is
// meaningful once the status leaves StatusSubmitted.
type JobInfo struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	App       string    `json:"app"`
	Status    JobStatus `json:"status"`
	WantNodes int       `json:"want_nodes"`
	Nodes     []int     `json:"nodes,omitempty"`
	Retries   int       `json:"retries,omitempty"`
	Error     string    `json:"error,omitempty"`
	ArrivalNS int64     `json:"arrival_ns"`
	StartNS   int64     `json:"start_ns"`
	EndNS     int64     `json:"end_ns"`
	// Pair-store provenance (omitted for storeless jobs).
	Store          string `json:"store,omitempty"`
	DatasetVersion int    `json:"dataset_version,omitempty"`
	BaseVersion    int    `json:"base_version,omitempty"`
}

// Event is one entry of the online scheduler's append-only event stream.
// Seq is the entry's index; ClockNS is the fleet's virtual clock when the
// event was recorded and Wall the host time (informational only — replay
// determinism rests solely on virtual time).
type Event struct {
	Seq     int       `json:"seq"`
	Type    string    `json:"type"`
	Job     string    `json:"job,omitempty"`
	ClockNS int64     `json:"clock_ns"`
	Wall    time.Time `json:"wall"`
	Detail  string    `json:"detail,omitempty"`
}

// Event types.
const (
	EventSubmitted = "submitted"
	EventQueued    = "queued"
	EventRejected  = "rejected"
	EventStarted   = "started"
	EventRetrying  = "retrying"
	EventCompleted = "completed"
	EventFailed    = "failed"
	EventDraining  = "draining"
	EventShutdown  = "shutdown"
)

// Counts summarizes the fleet for monitoring endpoints.
type Counts struct {
	Submitted int `json:"submitted"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	Retries   int `json:"retries"`
}

// onlineJob pairs a submission's scheduler state with the snapshot the
// query API serves. The snapshot is only written under Online.mu by the
// loop's lifecycle hook, so readers never race with the inner
// simulations mutating jobState.
type onlineJob struct {
	js       *jobState
	assigned bool // virtual arrival assigned (job is part of the log)
	info     JobInfo
}

// Online is the scheduler's online mode: instead of a batch job slice,
// the arrival frontier is fed from Submit calls while the fleet runs.
//
// The wall-clock to virtual-time bridge works as follows: submissions
// enter an inbox; whenever the scheduler loop observes the inbox (between
// placement waves, or immediately when idle) each job is assigned a
// virtual arrival time max(fleet clock, TimeScale * wall seconds since
// Start, previous arrival). Assigned arrivals are therefore monotone in
// submission order and never precede the clock that observed them — which
// makes the realized arrival log exactly replayable by the batch
// scheduler: Run over Log() with the same Config takes identical
// decisions and produces identical Metrics.
//
// Inner runtime failures never abort the fleet (KeepGoing is forced);
// they surface as StatusFailed.
type Online struct {
	cfg       Config
	wallStart time.Time

	mu          sync.Mutex
	cond        *sync.Cond // signals the loop: inbox append or shutdown
	inbox       []*onlineJob
	future      []*onlineJob // arrival assigned but still ahead of the clock
	all         []*onlineJob // submission order
	byID        map[string]*onlineJob
	seen        map[string]int
	lastArrival sim.Time
	clock       sim.Time
	closing     bool
	// events is a sliding window over the append-only stream: entries
	// older than eventCap are discarded (they are observability, not
	// state — the arrival log is what replay needs), so a long-running
	// daemon's memory stays bounded. eventsBase is the sequence number
	// of events[0].
	events     []Event
	eventsBase int
	wake       chan struct{} // closed and replaced on every event
	// Wait accounting for the monitoring endpoints: waits holds every
	// realized queue wait in virtual nanoseconds (unsorted; WaitStats
	// sorts a copy for exact quantiles), tenantWaits log-buckets the same
	// values per tenant for the histogram exposition, and depth tracks
	// the number of currently queued jobs incrementally so a gauge read
	// never scans the submission list.
	waits       []int64
	tenantWaits map[string]*obs.Histogram
	depth       int

	done   chan struct{} // loop exited; result/runErr valid
	result *Metrics
	runErr error
}

// StartOnline starts an online scheduler over a shared simulated cluster.
// cfg.Jobs must be empty: jobs enter through Submit. The returned Online
// accepts submissions until Shutdown.
func StartOnline(cfg Config) (*Online, error) {
	if len(cfg.Jobs) != 0 {
		return nil, fmt.Errorf("sched: online mode takes submissions, not Config.Jobs")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// A failed job must not take the service down with it.
	cfg.KeepGoing = true
	o := &Online{
		cfg:         cfg,
		wallStart:   time.Now(),
		byID:        make(map[string]*onlineJob),
		seen:        make(map[string]int),
		tenantWaits: make(map[string]*obs.Histogram),
		wake:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	o.cond = sync.NewCond(&o.mu)
	go o.loop()
	return o, nil
}

func (o *Online) loop() {
	sched := newScheduler(o.cfg, o.update)
	err := sched.run(o)
	o.mu.Lock()
	o.closing = true
	o.runErr = err
	if err == nil {
		states := make([]*jobState, len(o.all))
		for i, oj := range o.all {
			states[i] = oj.js
		}
		o.result = aggregate(o.cfg, states, sched.pool)
	}
	o.eventLocked(EventShutdown, "", "")
	o.mu.Unlock()
	close(o.done)
}

// Submit hands one job to the scheduler and returns its ID. Validation
// errors are synchronous; admission (or MaxQueued rejection) happens when
// the scheduler loop observes the job, visible through Job and Events.
// After Shutdown begins, Submit fails with ErrShuttingDown.
func (o *Online) Submit(j Job) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		return "", ErrShuttingDown
	}
	js, err := newState(o.cfg, j, len(o.all), o.seen)
	if err != nil {
		return "", err
	}
	oj := &onlineJob{
		js: js,
		info: JobInfo{
			ID:             js.id,
			Tenant:         js.tenant,
			App:            j.App.Name(),
			Status:         StatusSubmitted,
			WantNodes:      js.job.Nodes,
			Store:          j.StoreRef,
			DatasetVersion: j.DatasetVersion,
			BaseVersion:    j.BaseItems,
		},
	}
	o.all = append(o.all, oj)
	o.byID[js.id] = oj
	o.inbox = append(o.inbox, oj)
	o.eventLocked(EventSubmitted, js.id, "")
	o.cond.Broadcast()
	return js.id, nil
}

// Shutdown stops admission and drains: jobs already accepted (queued or
// running) complete, then the loop exits and the fleet metrics are
// returned. The context bounds only the wait — in-flight inner
// simulations cannot be interrupted; on deadline the drain continues in
// the background and a later Shutdown call can collect the result.
func (o *Online) Shutdown(ctx context.Context) (*Metrics, error) {
	o.mu.Lock()
	if !o.closing {
		o.closing = true
		o.eventLocked(EventDraining, "", "")
		o.cond.Broadcast()
	}
	o.mu.Unlock()
	select {
	case <-o.done:
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.result, o.runErr
	case <-ctx.Done():
		return nil, fmt.Errorf("sched: drain deadline exceeded: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (o *Online) Draining() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.closing
}

// Done is closed when the scheduler loop has exited.
func (o *Online) Done() <-chan struct{} { return o.done }

// Clock returns the fleet's virtual clock as last observed.
func (o *Online) Clock() sim.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.clock
}

// Job returns a snapshot of one submission.
func (o *Online) Job(id string) (JobInfo, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	oj, ok := o.byID[id]
	if !ok {
		return JobInfo{}, false
	}
	return oj.info, true
}

// Jobs returns snapshots of every submission, in submission order.
func (o *Online) Jobs() []JobInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	infos := make([]JobInfo, len(o.all))
	for i, oj := range o.all {
		infos[i] = oj.info
	}
	return infos
}

// JobMetrics returns one job's final metrics once its status is terminal:
// the same record the fleet metrics of Shutdown and of a replay carry.
func (o *Online) JobMetrics(id string) (JobMetrics, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	oj, ok := o.byID[id]
	if !ok || !oj.info.Status.Terminal() {
		return JobMetrics{}, false
	}
	return oj.js.metrics(), true
}

// Counts summarizes all submissions by status.
func (o *Online) Counts() Counts {
	o.mu.Lock()
	defer o.mu.Unlock()
	var c Counts
	for _, oj := range o.all {
		c.Retries += oj.info.Retries
		switch oj.info.Status {
		case StatusSubmitted:
			c.Submitted++
		case StatusQueued:
			c.Queued++
		case StatusRunning:
			c.Running++
		case StatusDone:
			c.Done++
		case StatusFailed:
			c.Failed++
		case StatusRejected:
			c.Rejected++
		}
	}
	return c
}

// WaitStats is the monitoring view of realized queue waits: one sample
// per placement (a retried job contributes one sample per start, each
// measured from its original arrival), all in virtual nanoseconds.
type WaitStats struct {
	// Depth is the number of currently queued jobs.
	Depth int
	// Count is the number of realized waits.
	Count int
	// P50NS and P99NS are the exact median and 99th-percentile waits,
	// computed from the raw samples (not the log-bucketed histograms).
	P50NS int64
	P99NS int64
	// Tenants holds an independent per-tenant wait histogram clone,
	// keyed by tenant name.
	Tenants map[string]*obs.Histogram
}

// WaitStats returns a consistent snapshot of the wait accounting.
func (o *Online) WaitStats() WaitStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	ws := WaitStats{Depth: o.depth, Count: len(o.waits)}
	if len(o.waits) > 0 {
		sorted := append([]int64(nil), o.waits...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ws.P50NS = sorted[len(sorted)/2]
		ws.P99NS = sorted[(len(sorted)*99)/100]
	}
	if len(o.tenantWaits) > 0 {
		ws.Tenants = make(map[string]*obs.Histogram, len(o.tenantWaits))
		for tenant, h := range o.tenantWaits {
			ws.Tenants[tenant] = h.Clone()
		}
	}
	return ws
}

// eventCap bounds the retained event window (a var so tests can shrink
// it). At the default, the window is a few MB at most.
var eventCap = 1 << 16

// SetEventCap replaces the bound on the retained event window and returns
// a function that puts the old one back. It exists for tests, here and in
// the packages that follow the stream, which need the window to slide
// after a handful of jobs; call it while no Online is running.
func SetEventCap(n int) (restore func()) {
	old := eventCap
	eventCap = n
	return func() { eventCap = old }
}

// EventsSince returns a copy of the event stream from sequence number i
// on, plus a channel that is closed when further events are appended.
// Events that have already slid out of the retention window are skipped
// (a subscriber that lags by more than eventCap events loses the gap).
func (o *Online) EventsSince(i int) ([]Event, <-chan struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i -= o.eventsBase
	if i < 0 {
		i = 0
	}
	if i > len(o.events) {
		i = len(o.events)
	}
	return append([]Event(nil), o.events[i:]...), o.wake
}

// Log returns the replayable arrival log: every submission whose virtual
// arrival has been assigned (always a prefix of the submission order;
// after Shutdown, all of them), with IDs, tenants, seeds, and arrival
// times made explicit so the log is self-contained.
func (o *Online) Log() []Job {
	o.mu.Lock()
	defer o.mu.Unlock()
	var jobs []Job
	for _, oj := range o.all {
		if !oj.assigned {
			break
		}
		j := oj.js.job // copy; Arrival was assigned in due
		j.ID = oj.js.id
		j.Tenant = oj.js.tenant
		j.Seed = oj.js.seed
		jobs = append(jobs, j)
	}
	return jobs
}

// ReplayConfig returns a batch Config that replays the arrival log:
// Run(o.ReplayConfig()) takes exactly the scheduling decisions this
// online run took and produces identical Metrics.
func (o *Online) ReplayConfig() Config {
	cfg := o.cfg
	cfg.Jobs = o.Log()
	cfg.Workers = 0 // host parallelism of the replay is the replayer's choice
	return cfg
}

// wallVirtual maps elapsed wall time onto the virtual axis (TimeScale
// virtual seconds per wall second); 0 when the bridge is disabled.
func (o *Online) wallVirtual() sim.Time {
	if o.cfg.TimeScale <= 0 {
		return 0
	}
	return sim.Time(o.cfg.TimeScale * float64(time.Since(o.wallStart)))
}

// eventLocked appends to the event stream and wakes subscribers; callers
// hold o.mu. When the window exceeds eventCap, the oldest quarter is
// dropped in one batch to amortize the copy.
func (o *Online) eventLocked(typ, job, detail string) {
	o.events = append(o.events, Event{
		Seq:     o.eventsBase + len(o.events),
		Type:    typ,
		Job:     job,
		ClockNS: int64(o.clock),
		Wall:    time.Now(),
		Detail:  detail,
	})
	if len(o.events) > eventCap {
		drop := eventCap / 4
		if drop < 1 {
			drop = 1
		}
		o.events = append(o.events[:0], o.events[drop:]...)
		o.eventsBase += drop
	}
	close(o.wake)
	o.wake = make(chan struct{})
}

// --- frontier (called from the scheduler loop) ---

// due flushes future-dated arrivals that have come due and drains the
// inbox, assigning each submission its virtual arrival time.
func (o *Online) due(clock sim.Time) []*jobState {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock = clock
	var out []*jobState
	for len(o.future) > 0 && o.future[0].js.job.Arrival <= clock {
		out = append(out, o.future[0].js)
		o.future = o.future[1:]
	}
	if len(o.inbox) == 0 {
		return out
	}
	wall := o.wallVirtual()
	for _, oj := range o.inbox {
		arr := clock
		if wall > arr {
			arr = wall
		}
		if o.lastArrival > arr {
			arr = o.lastArrival
		}
		oj.js.job.Arrival = arr
		o.lastArrival = arr
		oj.assigned = true
		oj.info.ArrivalNS = int64(arr)
		if arr <= clock {
			out = append(out, oj.js)
		} else {
			o.future = append(o.future, oj)
		}
	}
	o.inbox = o.inbox[:0]
	return out
}

func (o *Online) next() (sim.Time, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.future) > 0 {
		return o.future[0].js.job.Arrival, true
	}
	return 0, false
}

// wait blocks the idle scheduler loop until a submission or shutdown.
func (o *Online) wait() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if len(o.inbox) > 0 {
			return true
		}
		if o.closing {
			return false
		}
		o.cond.Wait()
	}
}

// update is the scheduler's lifecycle hook: it moves one job's snapshot
// and the wait accounting to the event's status, then records the event.
func (o *Online) update(event string, js *jobState, clock sim.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock = clock
	info := &o.byID[js.id].info
	switch event {
	case EventQueued:
		info.Status = StatusQueued
		o.depth++
	case EventRejected:
		info.Status = StatusRejected
	case EventStarted:
		info.Status = StatusRunning
		info.Nodes = append([]int(nil), js.lease...)
		info.StartNS = int64(js.start)
		o.depth--
		wait := int64(js.start - js.job.Arrival)
		o.waits = append(o.waits, wait)
		h := o.tenantWaits[js.tenant]
		if h == nil {
			h = &obs.Histogram{}
			o.tenantWaits[js.tenant] = h
		}
		h.Observe(wait)
	case EventRetrying:
		info.Status = StatusQueued
		info.Nodes = nil
		info.Retries = js.attempt
		o.depth++
	case EventCompleted, EventFailed:
		info.Status = StatusDone
		if js.failed {
			info.Status = StatusFailed
			if js.err != nil {
				info.Error = js.err.Error()
			}
		}
		info.EndNS = int64(js.end)
		info.Retries = js.attempt
	}
	o.eventLocked(event, js.id, "")
}
