// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment builds the appropriate scaled workload
// and platform, executes the Rocket runtime on the simulated cluster, and
// renders the same rows or series the paper reports. `rocket experiments`
// prints them; TestExperimentsGolden pins each one's output sha256, event
// counts and allocations.
//
// Workload scale: the forensics and bioinformatics data sets are divided
// by Options.Scale (default 10). Cache capacities are divided alongside,
// preserving every capacity ratio and therefore the data-reuse behaviour
// R; per-item costs (parse and pre-process durations, file sizes) are
// also divided, preserving the balance between the quadratic comparison
// work (which shrinks by scale^2 through the pair count) and the linear
// per-item work (n/scale items, each 1/scale as expensive) — so modeled
// efficiency, thread-class ratios, and I/O rates all match paper scale.
// The microscopy data set is small (n = 256) and always runs at paper
// scale. EXPERIMENTS.md records the scale used for the reported numbers.
package experiments

import (
	"fmt"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/gpu"
	"rocket/internal/model"
	"rocket/internal/obs"
	"rocket/internal/sim"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/apps/phylo"
)

// Options control workload scaling and seeding for all experiments.
type Options struct {
	// Scale divides the forensics/bioinformatics data-set sizes and cache
	// capacities. 1 reproduces paper scale (slow); 0 defaults to 10.
	Scale int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the size of the pool sweep experiments run their
	// independent points on (each point is its own simulation Env).
	// Workers cannot affect any reported number: outputs are assembled in
	// point order, so every experiment's rendering is byte-identical at
	// every pool size. 0 or 1 runs sequentially.
	Workers int
	// Trace attaches a flight recorder to every core run the experiment
	// performs (`rocket experiments -trace`). Recording must not change any
	// reported number: TestExperimentsWorkerAndTraceInvariance compares every
	// experiment's output sha256 with and without it. Its time cost is
	// bench/'s to measure (obs.spans_overhead_frac).
	Trace bool
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 10
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Setup is one application prepared for execution: the cost-model app,
// the paper's cache capacities (scaled), and the model constants.
type Setup struct {
	Name  string
	App   core.Application
	Costs model.Costs
	// DevSlots and HostSlots are per-level capacities scaled from
	// Table 1 (291/1050 forensics, 81/280 bioinformatics, 256/256
	// microscopy).
	DevSlots  int
	HostSlots int
	Seed      uint64
	// Trace attaches a fresh flight recorder to each run (Options.Trace):
	// the instrumentation overhead is real, the recording is discarded.
	Trace bool
}

type meanCoster interface {
	MeanCosts() (parse, pre, cmp, post sim.Time, fileBytes float64)
}

func costsOf(a meanCoster) model.Costs {
	parse, pre, cmp, post, fb := a.MeanCosts()
	return model.Costs{Parse: parse, Preprocess: pre, Compare: cmp, Post: post, FileBytes: fb}
}

func scaleSlots(paper, scale int) int {
	s := paper / scale
	if s < 4 {
		s = 4
	}
	return s
}

// scaledApp divides per-item costs (parse and pre-process durations, file
// size, and the item/slot size — and with it PCIe and distributed-cache
// transfer times) by Div while leaving per-pair costs untouched; see the
// package comment for why this preserves the paper-scale balance.
type scaledApp struct {
	core.Application
	Div int64
}

// ItemSize implements core.Application.
func (s scaledApp) ItemSize() int64 {
	size := s.Application.ItemSize() / s.Div
	if size < 1 {
		size = 1
	}
	return size
}

// ParseTime implements core.Application.
func (s scaledApp) ParseTime(item int) sim.Time {
	return s.Application.ParseTime(item) / sim.Time(s.Div)
}

// PreprocessTime implements core.Application.
func (s scaledApp) PreprocessTime(item int) sim.Time {
	return s.Application.PreprocessTime(item) / sim.Time(s.Div)
}

// FileSize implements core.Application.
func (s scaledApp) FileSize(item int) int64 {
	size := s.Application.FileSize(item) / s.Div
	if size < 1 {
		size = 1
	}
	return size
}

// scaleCosts divides the linear-work model constants to match scaledApp.
func scaleCosts(c model.Costs, div int64) model.Costs {
	c.Parse /= sim.Time(div)
	c.Preprocess /= sim.Time(div)
	c.FileBytes /= float64(div)
	return c
}

// ForensicsSetup prepares the digital-forensics workload.
func ForensicsSetup(o Options) Setup {
	o = o.normalized()
	app := forensics.New(forensics.Params{N: forensics.DefaultN / o.Scale, Seed: o.Seed})
	return Setup{
		Name:      app.Name(),
		App:       scaledApp{Application: app, Div: int64(o.Scale)},
		Costs:     scaleCosts(costsOf(app), int64(o.Scale)),
		DevSlots:  scaleSlots(291, o.Scale),
		HostSlots: scaleSlots(1050, o.Scale),
		Seed:      o.Seed,
		Trace:     o.Trace,
	}
}

// PhyloSetup prepares the bioinformatics workload (DAS-5 data set).
func PhyloSetup(o Options) Setup {
	o = o.normalized()
	app := phylo.New(phylo.Params{N: phylo.DefaultN / o.Scale, Seed: o.Seed})
	return Setup{
		Name:      app.Name(),
		App:       scaledApp{Application: app, Div: int64(o.Scale)},
		Costs:     scaleCosts(costsOf(app), int64(o.Scale)),
		DevSlots:  scaleSlots(81, o.Scale),
		HostSlots: scaleSlots(280, o.Scale),
		Seed:      o.Seed,
		Trace:     o.Trace,
	}
}

// cartesiusPhyloSetup prepares the §6.6 UniProt workload (6818 proteomes)
// with the Cartesius per-node capacities (80 GiB host cache = 561 slots).
func cartesiusPhyloSetup(o Options) Setup {
	o = o.normalized()
	app := phylo.New(phylo.Params{N: phylo.CartesiusN / o.Scale, Seed: o.Seed})
	return Setup{
		Name:      app.Name() + "-cartesius",
		App:       scaledApp{Application: app, Div: int64(o.Scale)},
		Costs:     scaleCosts(costsOf(app), int64(o.Scale)),
		DevSlots:  scaleSlots(82, o.Scale),  // 11 GiB K40m / 145.8 MB
		HostSlots: scaleSlots(561, o.Scale), // 80 GiB / 145.8 MB
		Seed:      o.Seed,
		Trace:     o.Trace,
	}
}

// microscopySetup prepares the localization-microscopy workload. It always
// runs at paper scale: the data set is tiny and cache capacity is never
// the bottleneck (Table 1: 256 slots at both levels).
func microscopySetup(o Options) Setup {
	o = o.normalized()
	app := microscopy.New(microscopy.Params{N: microscopy.DefaultN, Seed: o.Seed})
	return Setup{
		Name:      app.Name(),
		App:       app,
		Costs:     costsOf(app),
		DevSlots:  256,
		HostSlots: 256,
		Seed:      o.Seed,
		Trace:     o.Trace,
	}
}

// AllSetups returns the three applications in paper order.
func AllSetups(o Options) []Setup {
	return []Setup{ForensicsSetup(o), PhyloSetup(o), microscopySetup(o)}
}

// SetupByName returns the named setup ("forensics", "bioinformatics",
// "microscopy", or "bioinformatics-cartesius").
func SetupByName(name string, o Options) (Setup, error) {
	for _, s := range AllSetups(o) {
		if s.Name == name {
			return s, nil
		}
	}
	if s := cartesiusPhyloSetup(o); s.Name == name {
		return s, nil
	}
	return Setup{}, fmt.Errorf("experiments: unknown application %q", name)
}

// das5 builds a homogeneous DAS-5 platform with one TitanX Maxwell per
// node (the §6.3/6.4 configuration).
func das5(nodes int) (*cluster.Cluster, error) {
	specs := make([]cluster.NodeSpec, nodes)
	for i := range specs {
		specs[i] = cluster.NodeSpec{
			Cores:          16,
			HostCacheBytes: 40 * gpu.GiB,
			GPUs:           []gpu.Model{gpu.TitanXMaxwell},
		}
	}
	return cluster.New(specs, cluster.DefaultConfig())
}

// cartesius builds the §6.6 platform: nodes with two K40m GPUs each.
func cartesius(nodes int) (*cluster.Cluster, error) {
	specs := make([]cluster.NodeSpec, nodes)
	for i := range specs {
		specs[i] = cluster.NodeSpec{
			Cores:          16,
			HostCacheBytes: 80 * gpu.GiB,
			GPUs:           []gpu.Model{gpu.K40m, gpu.K40m},
		}
	}
	return cluster.New(specs, cluster.DefaultConfig())
}

// clusterFromSpecs builds a platform with default fabric characteristics.
func clusterFromSpecs(specs []cluster.NodeSpec) (*cluster.Cluster, error) {
	return cluster.New(specs, cluster.DefaultConfig())
}

// heterogeneousNodes returns the §6.5 mixed platform specs (nodes I-IV).
func heterogeneousNodes() []cluster.NodeSpec {
	mk := func(models ...gpu.Model) cluster.NodeSpec {
		return cluster.NodeSpec{Cores: 16, HostCacheBytes: 40 * gpu.GiB, GPUs: models}
	}
	return []cluster.NodeSpec{
		mk(gpu.K20m),                       // node I
		mk(gpu.GTX980, gpu.TitanXPascal),   // node II
		mk(gpu.RTX2080Ti, gpu.RTX2080Ti),   // node III
		mk(gpu.GTXTitan, gpu.TitanXPascal), // node IV
	}
}

// run executes the setup on a platform with optional config tweaks.
func (s Setup) run(cl *cluster.Cluster, mutate func(*core.Config)) (*core.Metrics, error) {
	cfg := core.Config{
		App:         s.App,
		Cluster:     cl,
		DeviceSlots: s.DevSlots,
		HostSlots:   s.HostSlots,
		Seed:        s.Seed,
	}
	if s.Trace {
		// A fresh recorder per run: full instrumentation cost, nothing
		// shared across concurrent sweep points, recording discarded.
		cfg.Spans = obs.New(1, 0)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Run(cfg)
}

// runDAS5 executes the setup on an n-node DAS-5 platform.
func (s Setup) runDAS5(nodes int, mutate func(*core.Config)) (*core.Metrics, error) {
	cl, err := das5(nodes)
	if err != nil {
		return nil, err
	}
	return s.run(cl, mutate)
}

// Efficiency evaluates equation (5) for a run on a platform with the
// given total relative GPU speed.
func (s Setup) Efficiency(m *core.Metrics, totalSpeed float64) float64 {
	return model.Efficiency(s.Costs, s.App.NumItems(), totalSpeed, m.Runtime)
}
