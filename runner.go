package rocket

import (
	"errors"
	"fmt"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/sim"
)

// Time is the simulation clock (nanoseconds of virtual time); see
// rocket/internal/sim for constructors (sim.Micros, sim.Millis, ...).
type Time = sim.Time

// An Option configures a Runner; pass options to New.
type Option func(*Runner)

// Runner is the configured entry point of the API: a platform
// description plus run settings, built once with New and reused across
// runs. A Runner constructs a fresh cluster from its topology for every
// Run, so the same Runner always produces the same Metrics for the same
// application and seed.
//
//	r := rocket.New(
//		rocket.WithHomogeneous(16, rocket.DAS5Node(rocket.TitanXMaxwell)),
//		rocket.WithDistCache(true),
//		rocket.WithSeed(1),
//	)
//	metrics, err := r.Run(app)
type Runner struct {
	cfg  core.Config // template; App and Cluster are filled per run
	topo []NodeSpec
	err  error
}

// New builds a Runner from functional options. Option errors (an invalid
// topology, say) are deferred: they surface from the first Run call, so
// New itself never fails and chains cleanly.
func New(opts ...Option) *Runner {
	r := &Runner{}
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

// WithSeed sets the seed driving all randomized behavior.
func WithSeed(seed uint64) Option {
	return func(r *Runner) { r.cfg.Seed = seed }
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

// WithCollectResults stores every computed pair in Metrics.Results, with
// its comparison output (nil for cost-model applications).
func WithCollectResults(enabled bool) Option {
	return func(r *Runner) { r.cfg.CollectResults = enabled }
}

// WithThroughputWindow records per-device completed-pair counts bucketed
// by w (Fig. 14); zero disables.
func WithThroughputWindow(w Time) Option {
	return func(r *Runner) { r.cfg.ThroughputWindow = w }
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
// run computes only the new-vs-all delta (see core.Config.BaseItems).
func WithBaseItems(n int) Option {
	return func(r *Runner) { r.cfg.BaseItems = n }
}

// WithSpans attaches a flight recorder: Run records every task interval
// of the pipeline into it as a virtual-time span, to be snapshotted and
// exported after the run (see NewSpanRecorder, ExportTrace). Nil — the
// default — keeps the observability layer entirely off. Spans are
// stamped in virtual time and exported in a canonical order, so recorded
// timelines are byte-identical across reruns.
func WithSpans(rec *SpanRecorder) Option {
	return func(r *Runner) { r.cfg.Spans = rec }
}

var errNoPlatform = errors.New("rocket: no platform configured; pass WithTopology or WithHomogeneous to New")

func (r *Runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Run executes one all-pairs application on the configured platform.
// Runners are reusable: each call simulates a fresh cluster and is
// bit-identical for the same app and seed.
func (r *Runner) Run(app Application) (*Metrics, error) {
	if r.err != nil {
		return nil, r.err
	}
	if app == nil {
		return nil, fmt.Errorf("rocket: Run(nil application)")
	}
	if r.topo == nil {
		return nil, errNoPlatform
	}
	c, err := cluster.New(r.topo)
	if err != nil {
		return nil, err
	}
	cfg := r.cfg
	cfg.App = app
	cfg.Cluster = c
	return core.Run(cfg)
}
