package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rocket"
	"rocket/internal/core"
	"rocket/internal/experiments"
)

// pairsNodes is the platform of both pairs workloads: the paper's 16
// DAS-5 nodes with one TitanX Maxwell each (relative speed 1 apiece, so
// the platform's total speed in eq. (5) is the node count).
const pairsNodes = 16

// pairsSpec is what tells pairs_reuse from pairs_thrash.
type pairsSpec struct {
	app func(experiments.Options) experiments.Setup
	// scale divides the paper's data set for the timed runs, warmScale
	// for the discarded warm-up, smokeScale for -smoke.
	scale, warmScale, smokeScale int
	// slots picks the cache capacities and the hop count.
	slots func(s experiments.Setup) []rocket.Option
	// spans adds the flight-recorder overhead measurement to the traced
	// run.
	spans bool
}

var pairsReuse = pairsSpec{
	app:   experiments.ForensicsSetup,
	scale: 3, warmScale: 12, smokeScale: 40,
	slots: func(s experiments.Setup) []rocket.Option {
		return []rocket.Option{rocket.WithDeviceSlots(s.DevSlots), rocket.WithHostSlots(s.HostSlots)}
	},
	spans: true,
}

var pairsThrash = pairsSpec{
	app:   experiments.PhyloSetup,
	scale: 2, warmScale: 8, smokeScale: 25,
	slots: func(experiments.Setup) []rocket.Option {
		return []rocket.Option{rocket.WithDeviceSlots(4), rocket.WithHostSlots(8), rocket.WithHops(3)}
	},
}

type pairsInst struct {
	spec   pairsSpec
	setup  experiments.Setup
	runner func(extra ...rocket.Option) *rocket.Runner
}

func setupPairsReuse(c *config) (instance, error)  { return setupPairs(c, pairsReuse) }
func setupPairsThrash(c *config) (instance, error) { return setupPairs(c, pairsThrash) }

func setupPairs(c *config, spec pairsSpec) (instance, error) {
	build := func(scale int) (experiments.Setup, func(extra ...rocket.Option) *rocket.Runner) {
		s := spec.app(experiments.Options{Scale: scale, Seed: c.seed})
		return s, func(extra ...rocket.Option) *rocket.Runner {
			opts := []rocket.Option{
				rocket.WithHomogeneous(pairsNodes, rocket.DAS5Node(rocket.TitanXMaxwell)),
				rocket.WithDistCache(true),
				rocket.WithSeed(c.seed),
			}
			opts = append(opts, spec.slots(s)...)
			return rocket.New(append(opts, extra...)...)
		}
	}
	scale := spec.scale
	if c.smoke {
		scale = spec.smokeScale
	} else {
		// The discarded warm-up: the same call on a smaller data set, so
		// code paths and the heap are warm before the first timed run.
		ws, wr := build(spec.warmScale)
		if _, err := wr().Run(ws.App); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s, runner := build(scale)
	return &pairsInst{spec: spec, setup: s, runner: runner}, nil
}

func (p *pairsInst) close() {}

// pairsIter is one timed Run.
type pairsIter struct {
	wall   float64
	m      *core.Metrics
	digest string
}

func summaryDigest(m *core.Metrics) string {
	buf, err := json.Marshal(m.Summary())
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// runIters times Runs for a time box and checks each: every pair
// compared exactly once, every iteration's output identical.
func (p *pairsInst) runIters(r *result, tr *tracer, seconds float64, min int) ([]pairsIter, error) {
	n := p.setup.App.NumItems()
	want := uint64(n) * uint64(n-1) / 2
	var iters []pairsIter
	_, err := iterate(seconds, min, func(i int) error {
		op := len(iters)
		root := tr.begin("iteration", "loadgen", -1, op)
		call := tr.begin("rocket.Runner.Run", "core", root, op)
		start := time.Now()
		m, err := p.runner().Run(p.setup.App)
		wall := time.Since(start).Seconds()
		tr.end(call)
		if err != nil {
			return err
		}
		check := tr.begin("check", "loadgen", root, op)
		it := pairsIter{wall: wall, m: m, digest: summaryDigest(m)}
		r.check(m.Pairs == want, "iteration %d compared %d pairs, want %d", i, m.Pairs, want)
		if len(iters) > 0 {
			r.check(it.digest == iters[0].digest, "iteration %d output differs from iteration 0", i)
		}
		tr.end(check)
		tr.end(root)
		iters = append(iters, it)
		return nil
	})
	return iters, err
}

func pairsPerSecond(iters []pairsIter) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = float64(it.m.Pairs) / it.wall
	}
	return out
}

func (p *pairsInst) measure(c *config, r *result) error {
	seconds, min := c.seconds, 2
	if c.traced() {
		// Half the box untraced for the baseline, half traced.
		seconds, min = c.seconds/2, 1
	}
	if c.smoke {
		seconds, min = 0, 1
	}
	mt := startMeter()
	plain, err := p.runIters(r, nil, seconds, min)
	if err != nil {
		return err
	}
	d := mt.stop()
	r.Counts["iterations"] = len(plain)
	last := plain[len(plain)-1].m
	pairs := float64(last.Pairs)

	r.timing("pairs_per_s", pairsPerSecond(plain))
	r.set("work_per_s", r.Values["pairs_per_s"])
	walls := make([]float64, len(plain))
	for i, it := range plain {
		walls[i] = it.wall * 1e3
	}
	r.timing("op_ms", walls)
	r.set("cpu_us_per_work", 1e6*d.cpu/(pairs*float64(len(plain))))
	r.set("model_efficiency", p.setup.Efficiency(last, pairsNodes))
	r.Digest = plain[0].digest
	r.Counts["items"] = p.setup.App.NumItems()
	r.Counts["pairs"] = int(last.Pairs)

	if !c.traced() {
		return nil
	}
	var traced []pairsIter
	d, err = profiled(r, func() (err error) {
		traced, err = p.runIters(r, c.tr, seconds, min)
		return err
	})
	if err != nil {
		return err
	}
	r.Counts["traced_iterations"] = len(traced)
	for i, it := range traced {
		r.check(it.digest == plain[0].digest, "traced iteration %d output differs from the untraced run", i)
	}
	tracedRate := median(pairsPerSecond(traced))
	r.set("trace_overhead_frac", overhead(r.Values["pairs_per_s"], tracedRate, true))

	m := traced[len(traced)-1].m
	done := pairs * float64(len(traced))
	r.set("sim.events_per_pair", float64(m.Events)/pairs)
	r.set("sim.events_per_s", float64(m.Events)*tracedRate/pairs)
	r.set("core.allocs_per_pair", d.mallocs/done)
	r.set("core.alloc_bytes_per_pair", d.bytes/done)
	r.set("core.loads_R", m.R)
	steals := float64(m.LocalSteals + m.RemoteSteals)
	r.set("core.steal_success_frac", ratio(steals, steals+float64(m.FailedSteals)))
	r.set("core.virtual_runtime_s", m.Runtime.Seconds())
	dev, host := m.DevCache, m.HostCache
	r.set("cache.dev_hit_frac", ratio(float64(dev.Hits+dev.WaitHits), float64(dev.Hits+dev.WaitHits+dev.Misses)))
	r.set("cache.host_hit_frac", ratio(float64(host.Hits+host.WaitHits), float64(host.Hits+host.WaitHits+host.Misses)))
	r.set("cache.evictions_per_pair", float64(dev.Evictions+host.Evictions)/pairs)
	r.set("cache.stalls_per_pair", float64(dev.Stalls+host.Stalls)/pairs)
	var dhtHits uint64
	for _, h := range m.DHT.HitAtHop {
		dhtHits += h
	}
	r.set("dht.requests_per_pair", float64(m.DHT.Requests)/pairs)
	r.set("dht.hit_frac", ratio(float64(dhtHits), float64(m.DHT.Requests)))
	if len(m.DHT.HitAtHop) > 0 {
		r.set("dht.hop1_frac", ratio(float64(m.DHT.HitAtHop[0]), float64(dhtHits)))
	}
	r.set("cluster.net_bytes_per_pair", float64(m.NetBytes)/pairs)
	r.set("cluster.io_bytes_per_pair", float64(m.IOBytes)/pairs)

	if p.spec.spans && !c.smoke {
		return p.measureSpans(c, r, plain[0].digest)
	}
	return nil
}

// measureSpans prices the flight recorder: one Run with spans recorded
// against the untraced median, then the export of what it recorded.
func (p *pairsInst) measureSpans(c *config, r *result, want string) error {
	rec := rocket.NewSpanRecorder(1, 0)
	op := r.Counts["iterations"] + r.Counts["traced_iterations"]
	root := c.tr.begin("iteration with spans", "loadgen", -1, op)
	call := c.tr.begin("rocket.Runner.Run", "core", root, op)
	start := time.Now()
	m, err := p.runner(rocket.WithSpans(rec)).Run(p.setup.App)
	wall := time.Since(start).Seconds()
	c.tr.end(call)
	if err != nil {
		return err
	}
	r.check(summaryDigest(m) == want, "the run with spans recorded differs from the run without")
	r.set("obs.spans_overhead_frac", overhead(r.Values["pairs_per_s"], float64(m.Pairs)/wall, true))

	export := c.tr.begin("rocket.ExportTrace", "obs", root, op)
	start = time.Now()
	snap := rec.Snapshot()
	err = rocket.ExportTrace(io.Discard, snap, rocket.TraceExportOptions{})
	took := time.Since(start)
	c.tr.end(export)
	c.tr.end(root)
	if err != nil {
		return err
	}
	r.set("obs.export_ns_per_span", ratio(float64(took.Nanoseconds()), float64(len(snap.Spans))))
	r.Counts["spans_exported"] = len(snap.Spans)
	return nil
}
