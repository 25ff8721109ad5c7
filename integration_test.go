package rocket_test

// Integration tests: end-to-end runs through the public API asserting the
// paper's qualitative results (the shapes EXPERIMENTS.md reports) and the
// cross-module accounting identities that tie the cache hierarchy, the
// distributed cache, and the load pipeline together.

import (
	"strings"
	"testing"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/phylo"
	"rocket/internal/core"
	"rocket/internal/experiments"
)

// tinyOptions keeps integration runs fast.
var tinyOptions = experiments.Options{Scale: 25, Seed: 1}

func runForensics(t *testing.T, nodes int, mutate func(*core.Config)) *rocket.Metrics {
	t.Helper()
	app := forensics.New(forensics.Params{N: 200, Seed: 1})
	opts := []rocket.Option{
		rocket.WithHomogeneous(nodes, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(1),
		rocket.WithDeviceSlots(12),
		rocket.WithHostSlots(42),
	}
	if mutate != nil {
		opts = append(opts, rocket.WithConfig(mutate))
	}
	m, err := rocket.New(opts...).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIntegrationSuperLinearSpeedupWithDistCache(t *testing.T) {
	one := runForensics(t, 1, nil)
	eight := runForensics(t, 8, func(c *core.Config) { c.DistCache = true })
	speedup := float64(one.Runtime) / float64(eight.Runtime)
	if speedup <= 8 {
		t.Errorf("speedup with distributed cache = %.2fx on 8 nodes, expected super-linear (> 8x)", speedup)
	}
	eightOff := runForensics(t, 8, nil)
	speedupOff := float64(one.Runtime) / float64(eightOff.Runtime)
	if speedupOff >= speedup {
		t.Errorf("speedup without distributed cache (%.2fx) not below with (%.2fx)", speedupOff, speedup)
	}
}

func TestIntegrationDistCacheLowersRAndIO(t *testing.T) {
	on := runForensics(t, 8, func(c *core.Config) { c.DistCache = true })
	off := runForensics(t, 8, nil)
	if on.R >= off.R {
		t.Errorf("R with cache %.2f >= without %.2f", on.R, off.R)
	}
	if on.IOBytes >= off.IOBytes {
		t.Errorf("IO bytes with cache %d >= without %d", on.IOBytes, off.IOBytes)
	}
}

func TestIntegrationRMonotonicInCacheSize(t *testing.T) {
	var prev float64
	for i, host := range []int{10, 20, 42, 84} {
		host := host
		m := runForensics(t, 1, func(c *core.Config) { c.HostSlots = host })
		if i > 0 && m.R > prev+0.01 {
			t.Errorf("R grew with larger cache: %.2f (host=%d) after %.2f", m.R, host, prev)
		}
		prev = m.R
	}
}

// The accounting identities that tie the levels together: every load is a
// device miss that also missed the host; with the distributed cache on,
// every host miss issues exactly one DHT request, and every DHT miss
// becomes a load.
func TestIntegrationAccountingIdentities(t *testing.T) {
	m := runForensics(t, 4, func(c *core.Config) { c.DistCache = true })
	if m.DHT.Requests != m.HostCache.Misses {
		t.Errorf("DHT requests %d != host misses %d", m.DHT.Requests, m.HostCache.Misses)
	}
	if m.Loads != m.DHT.Misses {
		t.Errorf("loads %d != DHT misses %d", m.Loads, m.DHT.Misses)
	}
	var dhtHits uint64
	for _, h := range m.DHT.HitAtHop {
		dhtHits += h
	}
	if dhtHits+m.DHT.Misses != m.DHT.Requests {
		t.Errorf("DHT outcomes %d+%d != requests %d", dhtHits, m.DHT.Misses, m.DHT.Requests)
	}
	if m.HostCache.Misses > m.DevCache.Misses {
		t.Errorf("host misses %d > device misses %d (host is only consulted on device miss)",
			m.HostCache.Misses, m.DevCache.Misses)
	}
	if m.Phases.Count(core.PhaseCompare) != m.Pairs {
		t.Errorf("compare kernels %d != pairs %d", m.Phases.Count(core.PhaseCompare), m.Pairs)
	}
	if m.Phases.Count(core.PhaseIO) != m.Loads {
		t.Errorf("IO tasks %d != loads %d", m.Phases.Count(core.PhaseIO), m.Loads)
	}
}

func TestIntegrationNoDistCacheNoDHTTraffic(t *testing.T) {
	m := runForensics(t, 4, nil)
	if m.DHT.Requests != 0 {
		t.Errorf("DHT requests %d with distributed cache disabled", m.DHT.Requests)
	}
	// Loads equal host misses exactly: every host miss goes straight to
	// the load pipeline.
	if m.Loads != m.HostCache.Misses {
		t.Errorf("loads %d != host misses %d", m.Loads, m.HostCache.Misses)
	}
}

func TestIntegrationRuntimeNeverBeatsModelBound(t *testing.T) {
	for _, s := range experiments.AllSetups(tinyOptions) {
		s := s
		m, err := rocket.New(
			rocket.WithHomogeneous(1, rocket.DAS5Node(rocket.TitanXMaxwell)),
			rocket.WithSeed(1),
			rocket.WithDeviceSlots(s.DevSlots),
			rocket.WithHostSlots(s.HostSlots),
		).Run(s.App)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// Allow ~3% sampling slack: Tmin uses distribution means.
		if eff := experimentEfficiency(s, m); eff > 1.03 {
			t.Errorf("%s: efficiency %.3f beats the model lower bound", s.Name, eff)
		}
	}
}

func experimentEfficiency(s experiments.Setup, m *rocket.Metrics) float64 {
	return s.Efficiency(m, 1)
}

func TestIntegrationHeterogeneousBalance(t *testing.T) {
	app := phylo.New(phylo.Params{N: 120, Seed: 2})
	m, err := rocket.New(
		rocket.WithTopology(rocket.PaperTopology()...),
		rocket.WithSeed(1),
		rocket.WithDistCache(true),
		rocket.WithDeviceSlots(20),
		rocket.WithHostSlots(60),
		rocket.WithThroughputWindow(1e9), // 1s buckets
	).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	pairsOf := func(id string) float64 {
		ts := m.DeviceThroughput[id]
		if ts == nil {
			return 0
		}
		var total float64
		for _, v := range ts.Buckets {
			total += v
		}
		return total
	}
	k20m := pairsOf("node0/gpu0") // speed 0.45
	rtx := pairsOf("node2/gpu0")  // speed 2.05
	if rtx <= k20m {
		t.Errorf("RTX2080Ti (%v pairs) should out-process K20m (%v pairs)", rtx, k20m)
	}
}

func TestIntegrationExperimentOutputsDeterministic(t *testing.T) {
	for _, id := range []string{"fig8", "fig11"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Run(tinyOptions)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(tinyOptions)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s output differs across identical runs", id)
		}
	}
}

func TestIntegrationRockettraceStyleRun(t *testing.T) {
	// Mirror what cmd/rockettrace does and check timeline rendering.
	s := experiments.ForensicsSetup(experiments.Options{Scale: 100, Seed: 1})
	rec := rocket.NewSpanRecorder(1, 0)
	_, err := rocket.New(
		rocket.WithHomogeneous(1, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(1),
		rocket.WithDeviceSlots(s.DevSlots),
		rocket.WithHostSlots(s.HostSlots),
		rocket.WithSpans(rec),
	).Run(s.App)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.Snapshot().WriteTimeline(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"parse", "compare", "io"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q tasks:\n%s", want, out[:min(len(out), 500)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
