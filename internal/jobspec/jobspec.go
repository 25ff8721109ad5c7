// Package jobspec is the shared wire schema for describing all-pairs jobs
// and fleet manifests outside the process: `rocket queue`'s job
// manifest, rocketd's HTTP job submissions, and the arrival logs rocketd
// records for offline replay are all this one format, so a log served
// online is literally a manifest the batch scheduler can re-run.
package jobspec

import (
	"encoding/json"
	"fmt"
	"sort"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/apps/phylo"
	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/pairstore"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

// Fault is one scheduled fault event of a job's first attempt: the wire
// form of fault.Event, whose JSON bytes are a contract with every client.
// Node and GPU indices are relative to the job's leased partition.
type Fault struct {
	// Kind is a fault.EventKind name: "crash", "restart", "gpu-slow",
	// "link-down", "link-up", or "link-degrade". The fleet-only kinds
	// ("join", "preempt") are refused: jobs run on the all-pairs runtime.
	Kind string `json:"kind"`
	// AtMS is the event time in virtual milliseconds from job start.
	AtMS float64 `json:"at_ms"`
	// Node targets crash/restart/gpu-slow.
	Node int `json:"node,omitempty"`
	// GPU is the device index within Node (gpu-slow).
	GPU int `json:"gpu,omitempty"`
	// Factor is the gpu-slow multiplier (>= 1; 1 restores).
	Factor float64 `json:"factor,omitempty"`
	// A and B are the link endpoints (link-down/up/degrade).
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// LatencyFactor and BandwidthFactor are link-degrade multipliers.
	LatencyFactor   float64 `json:"latency_factor,omitempty"`
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
}

// fleetOnly refuses the kinds the all-pairs runtime has no hook for.
func fleetOnly(k fault.EventKind) error {
	if k.FleetOnly() {
		return fmt.Errorf("fault kind %q is fleet-only", k)
	}
	return nil
}

// event converts the wire record to a canonical schedule event.
func (f Fault) event() (fault.Event, error) {
	k, err := fault.ParseKind(f.Kind)
	if err == nil {
		err = fleetOnly(k)
	}
	return fault.Event{
		At: sim.Millis(f.AtMS), Kind: k,
		Node: f.Node, GPU: f.GPU, Factor: f.Factor,
		A: f.A, B: f.B, LatencyFactor: f.LatencyFactor, BandwidthFactor: f.BandwidthFactor,
	}.Canonical(), err
}

// FaultsFromSchedule converts a compiled fault schedule back to the wire
// format, preserving order. It is the inverse of Fault.event (round-trip
// exact: AtMS = At / 1ms and sim.Millis undoes it), letting a scenario
// file's compiled chaos or event section ride along on a job submission
// — `rocket load -scenario` uses it so HTTP load tests and the scenario
// harness share one fault vocabulary. A fleet-only event is an error.
func FaultsFromSchedule(s *fault.Schedule) ([]Fault, error) {
	if s.Empty() {
		return nil, nil
	}
	out := make([]Fault, 0, len(s.Events))
	for i, ev := range s.Events {
		if err := fleetOnly(ev.Kind); err != nil {
			return nil, fmt.Errorf("fault event %d: %w", i, err)
		}
		ev = ev.Canonical()
		out = append(out, Fault{
			Kind: ev.Kind.String(), AtMS: float64(ev.At) / 1e6,
			Node: ev.Node, GPU: ev.GPU, Factor: ev.Factor,
			A: ev.A, B: ev.B, LatencyFactor: ev.LatencyFactor, BandwidthFactor: ev.BandwidthFactor,
		})
	}
	return out, nil
}

// Spec describes one job. App seeds and job seeds are derived from the
// manifest seed and submission index when left zero, exactly as the
// scheduler does, so a spec round-trips through a served arrival log.
type Spec struct {
	ID     string `json:"id,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// App is "forensics", "microscopy", or "bioinformatics"/"phylo".
	App string `json:"app"`
	// Items is the data-set size n (>= 2).
	Items int `json:"items"`
	// Nodes is the requested partition width; 0 = one node.
	Nodes int `json:"nodes,omitempty"`
	// ArrivalNS is the exact virtual arrival in nanoseconds; it wins over
	// ArrivalMS. Arrival logs use it so replays are bit-exact.
	ArrivalNS int64 `json:"arrival_ns,omitempty"`
	// ArrivalMS is the human-friendly arrival in milliseconds.
	ArrivalMS float64 `json:"arrival_ms,omitempty"`
	// Seed seeds both the app's data and the job; 0 derives both.
	Seed uint64 `json:"seed,omitempty"`
	// Faults optionally injects a deterministic fault schedule into the
	// job's first attempt.
	Faults []Fault `json:"faults,omitempty"`

	// Store, when non-empty, makes the job participate in the fleet's
	// shared pair store under this dataset namespace: results it
	// computes are merged back, and pairs already resident are served
	// instead of recomputed (see BaseVersion). Dataset versions are item
	// counts — an append-only dataset's length is its version.
	Store string `json:"store,omitempty"`
	// DatasetVersion is the dataset version (item count) this job
	// computes; provenance recorded in the job's metrics. Normally
	// equals Items.
	DatasetVersion int `json:"dataset_version,omitempty"`
	// BaseVersion is the dataset version already covered by the store:
	// the delta planner serves all pairs among the first BaseVersion
	// items from the store and computes only the new-vs-all set.
	// Requires Store. 0 means a full (cold) computation.
	BaseVersion int `json:"base_version,omitempty"`
}

// Apps lists the known application names.
func Apps() []string { return []string{"forensics", "microscopy", "bioinformatics"} }

// BuildApp constructs the spec's application with the given seed.
func (s Spec) BuildApp(seed uint64) (core.Application, error) {
	if s.Items < 2 {
		return nil, fmt.Errorf("job %q: items must be >= 2, got %d", s.ID, s.Items)
	}
	switch s.App {
	case "forensics":
		return forensics.New(forensics.Params{N: s.Items, Seed: seed}), nil
	case "microscopy":
		return microscopy.New(microscopy.Params{N: s.Items, Seed: seed}), nil
	case "bioinformatics", "phylo":
		return phylo.New(phylo.Params{N: s.Items, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("job %q: unknown app %q (known: forensics, microscopy, bioinformatics)", s.ID, s.App)
	}
}

// Arrival returns the spec's virtual arrival time.
func (s Spec) Arrival() sim.Time {
	if s.ArrivalNS != 0 {
		return sim.Time(s.ArrivalNS)
	}
	return sim.Millis(s.ArrivalMS)
}

// Job builds the scheduler job. index is the spec's position in its
// manifest (or submission order), manifestSeed the fleet seed; both only
// matter when the spec leaves Seed zero.
func (s Spec) Job(index int, manifestSeed uint64) (sched.Job, error) {
	appSeed := s.Seed
	if appSeed == 0 {
		appSeed = manifestSeed + uint64(index)
	}
	app, err := s.BuildApp(appSeed)
	if err != nil {
		return sched.Job{}, err
	}
	j := sched.Job{
		ID:      s.ID,
		Tenant:  s.Tenant,
		App:     app,
		Nodes:   s.Nodes,
		Arrival: s.Arrival(),
		Seed:    s.Seed,
	}
	if s.BaseVersion < 0 {
		return sched.Job{}, fmt.Errorf("job %q: negative base_version %d", s.ID, s.BaseVersion)
	}
	if s.BaseVersion > s.Items {
		return sched.Job{}, fmt.Errorf("job %q: base_version %d exceeds items %d", s.ID, s.BaseVersion, s.Items)
	}
	if s.BaseVersion > 0 && s.Store == "" {
		return sched.Job{}, fmt.Errorf("job %q: base_version requires a store", s.ID)
	}
	if s.Store != "" {
		j.StoreRef = s.Store
		j.BaseItems = s.BaseVersion
		j.DatasetVersion = s.DatasetVersion
		if j.DatasetVersion == 0 {
			j.DatasetVersion = s.Items
		}
		// Digests address the dataset's content: the lineage is (store
		// namespace, canonical app name, app seed), so two jobs over the
		// same (possibly grown) dataset share keys while different
		// datasets never collide. The app seed — not the sched-derived
		// run seed — is what identifies the data.
		j.Digest = pairstore.DigestFunc(s.Store, app.Name(), appSeed)
	}
	if len(s.Faults) > 0 {
		sch := &fault.Schedule{Events: make([]fault.Event, len(s.Faults))}
		for i, f := range s.Faults {
			ev, err := f.event()
			if err != nil {
				return sched.Job{}, fmt.Errorf("job %q: %w", s.ID, err)
			}
			sch.Events[i] = ev
		}
		j.Faults = sch
	}
	return j, nil
}

// Manifest is a fleet description: the shared cluster, the policy, and
// the jobs. It doubles as rocketd's replayable arrival-log format
// (KeepGoing is set there so a failed served job replays as a recorded
// failure instead of aborting the batch run).
type Manifest struct {
	Nodes      int    `json:"nodes"`
	Policy     string `json:"policy,omitempty"`
	MaxQueued  int    `json:"max_queued,omitempty"`
	MaxRunning int    `json:"max_running,omitempty"`
	MaxRetries int    `json:"max_retries,omitempty"`
	KeepGoing  bool   `json:"keep_going,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Jobs       []Spec `json:"jobs"`
}

// Parse decodes a manifest from JSON.
func Parse(raw []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// JSON encodes the manifest, indented, with a trailing newline.
func (m Manifest) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// arrivalsOrdered reports whether the jobs are in non-decreasing
// arrival order. Logs recorded by a rocketd server always are (the
// online scheduler assigns monotone arrivals in submission order);
// hand-edited or merged logs may not be.
func (m Manifest) arrivalsOrdered() bool {
	for i := 1; i < len(m.Jobs); i++ {
		if m.Jobs[i].Arrival() < m.Jobs[i-1].Arrival() {
			return false
		}
	}
	return true
}

// Normalize stable-sorts the jobs by arrival time (ties keep file
// order) and reports whether anything moved. This matters for replay
// fidelity: submission indices drive derived IDs and seeds, and the
// batch scheduler admits in arrival order — so an out-of-order log
// would silently derive different jobs than its sorted equivalent.
// After Normalize, any permutation of the same entries replays
// identically. `rocket queue -replay` normalizes (with a warning) instead
// of silently producing a divergent replay.
func (m *Manifest) Normalize() bool {
	if m.arrivalsOrdered() {
		return false
	}
	sort.SliceStable(m.Jobs, func(i, j int) bool {
		return m.Jobs[i].Arrival() < m.Jobs[j].Arrival()
	})
	return true
}

// Config builds the batch scheduler configuration: apps are constructed
// and every job is materialized in manifest order.
func (m Manifest) Config() (sched.Config, error) {
	pol := sched.PolicyFIFO
	if m.Policy != "" {
		var err error
		pol, err = sched.ParsePolicy(m.Policy)
		if err != nil {
			return sched.Config{}, err
		}
	}
	jobs := make([]sched.Job, len(m.Jobs))
	for i, s := range m.Jobs {
		j, err := s.Job(i, m.Seed)
		if err != nil {
			return sched.Config{}, err
		}
		jobs[i] = j
	}
	return sched.Config{
		Jobs:       jobs,
		Nodes:      m.Nodes,
		Policy:     pol,
		MaxQueued:  m.MaxQueued,
		MaxRunning: m.MaxRunning,
		MaxRetries: m.MaxRetries,
		KeepGoing:  m.KeepGoing,
		Seed:       m.Seed,
	}, nil
}
