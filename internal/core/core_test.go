package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"rocket/internal/cluster"
	"rocket/internal/gpu"
	"rocket/internal/obs"
	"rocket/internal/pairs"
	"rocket/internal/sim"
)

// testApp is a synthetic application with uniform costs.
type testApp struct {
	n          int
	itemSize   int64
	fileSize   int64
	resultSize int64
	parse      sim.Time
	pre        sim.Time
	cmp        sim.Time
	post       sim.Time
}

func (a *testApp) Name() string                      { return "test" }
func (a *testApp) NumItems() int                     { return a.n }
func (a *testApp) FileSize(int) int64                { return a.fileSize }
func (a *testApp) ItemSize() int64                   { return a.itemSize }
func (a *testApp) ResultSize() int64                 { return a.resultSize }
func (a *testApp) ParseTime(int) sim.Time            { return a.parse }
func (a *testApp) PreprocessTime(int) sim.Time       { return a.pre }
func (a *testApp) CompareTime(int, int) sim.Time     { return a.cmp }
func (a *testApp) PostprocessTime(int, int) sim.Time { return a.post }

func defaultTestApp(n int) *testApp {
	return &testApp{
		n:          n,
		itemSize:   1 << 20, // 1 MiB
		fileSize:   100 << 10,
		resultSize: 64,
		parse:      sim.Millis(5),
		pre:        sim.Millis(1),
		cmp:        sim.Millis(1),
		post:       0,
	}
}

// computeApp extends testApp with real kernels.
type computeApp struct {
	testApp
	failLoad    int // item whose load fails (-1 = none)
	failCompare int // left item whose compare fails (-1 = none)
}

func (a *computeApp) LoadItem(item int) (interface{}, error) {
	if item == a.failLoad {
		return nil, errors.New("injected load failure")
	}
	return item * 10, nil
}

func (a *computeApp) ComparePair(i, j int, x, y interface{}) (interface{}, error) {
	if i == a.failCompare {
		return nil, errors.New("injected compare failure")
	}
	return x.(int) + y.(int), nil
}

func newCluster(t testing.TB, nodes int, models ...gpu.Model) *cluster.Cluster {
	t.Helper()
	if len(models) == 0 {
		models = []gpu.Model{gpu.TitanXMaxwell}
	}
	spec := cluster.NodeSpec{Cores: 16, HostCacheBytes: 2 << 30, GPUs: models}
	specs := make([]cluster.NodeSpec, nodes)
	for i := range specs {
		specs[i] = spec
	}
	c, err := cluster.New(specs, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	app := defaultTestApp(8)
	cl := newCluster(t, 1)
	cases := []Config{
		{},
		{App: app},
		{Cluster: cl},
		{App: defaultTestApp(1), Cluster: cl},
		{App: app, Cluster: cl, Hops: -1},
		{App: app, Cluster: cl, LeafPairs: -3},
		{App: app, Cluster: cl, StealBackoff: -1},
		{App: app, Cluster: cl, DeviceSlots: -1},
		{App: app, Cluster: cl, HostSlots: -2},
		{App: &testApp{n: 4, itemSize: 0}, Cluster: cl},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSingleNodeCompletesAllPairs(t *testing.T) {
	app := defaultTestApp(32)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatalf("pairs = %d, want %d", m.Pairs, pairs.TotalPairs(32))
	}
	if m.Runtime <= 0 {
		t.Fatal("zero runtime")
	}
	if m.R < 1 {
		t.Fatalf("R = %v < 1", m.R)
	}
	if m.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestPerfectReuseWhenEverythingFits(t *testing.T) {
	app := defaultTestApp(16)
	// 2 GiB host cache and 11 GiB device memory hold all 16 MiB of items.
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Loads != 16 {
		t.Fatalf("loads = %d, want 16 (R = 1)", m.Loads)
	}
	if m.R != 1 {
		t.Fatalf("R = %v, want 1", m.R)
	}
	if m.IOReads != 16 {
		t.Fatalf("IO reads = %d, want 16", m.IOReads)
	}
}

func TestSmallCacheIncreasesLoads(t *testing.T) {
	app := defaultTestApp(24)
	big, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(Config{
		App: app, Cluster: newCluster(t, 1), Seed: 1,
		DeviceSlots: 4, HostSlots: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.Loads <= big.Loads {
		t.Fatalf("small cache loads %d <= big cache loads %d", small.Loads, big.Loads)
	}
	if small.Pairs != big.Pairs {
		t.Fatalf("pair counts differ: %d vs %d", small.Pairs, big.Pairs)
	}
}

func TestHostCacheDisabled(t *testing.T) {
	app := defaultTestApp(12)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1, HostSlots: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.HostSlots != 0 {
		t.Fatalf("host slots = %d, want 0", m.HostSlots)
	}
	if m.HostCache.Hits+m.HostCache.Misses != 0 {
		t.Fatal("disabled host cache saw traffic")
	}
	if m.Pairs != uint64(pairs.TotalPairs(12)) {
		t.Fatal("pairs incomplete")
	}
}

func TestMultiNodeSpeedup(t *testing.T) {
	app := defaultTestApp(48)
	one, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{App: app, Cluster: newCluster(t, 4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Runtime) / float64(four.Runtime)
	if speedup < 2.5 {
		t.Fatalf("speedup on 4 nodes = %.2f, want > 2.5", speedup)
	}
	if four.RemoteSteals == 0 {
		t.Fatal("no remote steals on 4 nodes")
	}
}

func TestDistributedCacheReducesLoads(t *testing.T) {
	app := defaultTestApp(64)
	base := Config{
		App: app, Seed: 1,
		DeviceSlots: 8, HostSlots: 12,
	}
	without := base
	without.Cluster = newCluster(t, 4)
	mOff, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	with := base
	with.Cluster = newCluster(t, 4)
	with.DistCache = true
	mOn, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	if mOn.Loads >= mOff.Loads {
		t.Fatalf("dist cache did not reduce loads: %d (on) vs %d (off)", mOn.Loads, mOff.Loads)
	}
	if mOn.DHT.Requests == 0 {
		t.Fatal("no DHT requests recorded")
	}
	var hits uint64
	for _, h := range mOn.DHT.HitAtHop {
		hits += h
	}
	if hits == 0 {
		t.Fatal("no DHT hits recorded")
	}
	if mOn.IOBytes >= mOff.IOBytes {
		t.Fatalf("dist cache did not reduce I/O: %d vs %d", mOn.IOBytes, mOff.IOBytes)
	}
}

func TestRealComputeCollectsResults(t *testing.T) {
	app := &computeApp{testApp: *defaultTestApp(10), failLoad: -1, failCompare: -1}
	m, err := Run(Config{App: app, Cluster: newCluster(t, 2), Seed: 1, CollectResults: true, DistCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != int(pairs.TotalPairs(10)) {
		t.Fatalf("results = %d, want %d", len(m.Results), pairs.TotalPairs(10))
	}
	seen := map[[2]int]bool{}
	for _, r := range m.Results {
		if r.I >= r.J {
			t.Fatalf("bad pair (%d, %d)", r.I, r.J)
		}
		if seen[[2]int{r.I, r.J}] {
			t.Fatalf("duplicate pair (%d, %d)", r.I, r.J)
		}
		seen[[2]int{r.I, r.J}] = true
		if want := r.I*10 + r.J*10; r.Value.(int) != want {
			t.Fatalf("result (%d, %d) = %v, want %d", r.I, r.J, r.Value, want)
		}
	}
}

func TestLoadFailurePropagates(t *testing.T) {
	app := &computeApp{testApp: *defaultTestApp(10), failLoad: 3, failCompare: -1}
	_, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected load failure") {
		t.Fatalf("err = %v, want injected load failure", err)
	}
}

func TestCompareFailurePropagates(t *testing.T) {
	app := &computeApp{testApp: *defaultTestApp(10), failLoad: -1, failCompare: 2}
	_, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected compare failure") {
		t.Fatalf("err = %v, want injected compare failure", err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Metrics {
		app := defaultTestApp(40)
		m, err := Run(Config{
			App: app, Cluster: newCluster(t, 3), Seed: 7,
			DeviceSlots: 10, HostSlots: 16, DistCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	if a.Runtime != b.Runtime {
		t.Fatalf("run times differ: %v vs %v", a.Runtime, b.Runtime)
	}
	if a.Loads != b.Loads || a.RemoteSteals != b.RemoteSteals || a.NetBytes != b.NetBytes {
		t.Fatalf("metrics differ: %+v vs %+v", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) *Metrics {
		app := defaultTestApp(40)
		m, err := Run(Config{App: app, Cluster: newCluster(t, 3), Seed: seed, DeviceSlots: 10, HostSlots: 16})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(2)
	// Different victim choices should shift at least some accounting.
	if a.Runtime == b.Runtime && a.RemoteSteals == b.RemoteSteals && a.Loads == b.Loads {
		t.Log("warning: seeds produced identical runs (possible but unlikely)")
	}
}

func TestHeterogeneousFasterGPUDoesMoreWork(t *testing.T) {
	app := defaultTestApp(64)
	app.parse = sim.Millis(1)
	cl := newCluster(t, 1, gpu.K20m, gpu.RTX2080Ti)
	m, err := Run(Config{
		App: app, Cluster: cl, Seed: 1,
		ThroughputWindow: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := m.DeviceThroughput["node0/gpu0"]
	fast := m.DeviceThroughput["node0/gpu1"]
	if slow == nil || fast == nil {
		t.Fatalf("missing throughput series: %v", m.DeviceIDs)
	}
	var slowPairs, fastPairs float64
	for _, v := range slow.Buckets {
		slowPairs += v
	}
	for _, v := range fast.Buckets {
		fastPairs += v
	}
	if fastPairs <= slowPairs {
		t.Fatalf("RTX2080Ti did %v pairs, K20m did %v; want faster GPU to do more", fastPairs, slowPairs)
	}
	if slowPairs+fastPairs != float64(pairs.TotalPairs(64)) {
		t.Fatalf("throughput series total %v != %d", slowPairs+fastPairs, pairs.TotalPairs(64))
	}
}

// TestSpansRecordPipeline: with a recorder attached every task interval
// lands in it as one span, and the always-on phase table agrees with what
// the run did.
func TestSpansRecordPipeline(t *testing.T) {
	app := defaultTestApp(8)
	rec := obs.New(1, 0)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	var tasks uint64
	for p := Phase(0); p < numPhases; p++ {
		tasks += m.Phases.Count(p)
	}
	if snap := rec.Snapshot(); tasks == 0 || snap.Recorded != tasks || snap.Dropped != 0 {
		t.Fatalf("recorded %d spans (%d dropped) for %d tasks", snap.Recorded, snap.Dropped, tasks)
	}
	if m.Phases.Count(PhaseCompare) != m.Pairs {
		t.Fatalf("compare tasks %d != pairs %d", m.Phases.Count(PhaseCompare), m.Pairs)
	}
	if m.Phases.Count(PhaseIO) != m.Loads {
		t.Fatalf("io tasks %d != loads %d", m.Phases.Count(PhaseIO), m.Loads)
	}
	if m.Phases.Busy(ClassCPU) == 0 {
		t.Fatal("no CPU busy time")
	}
}

func TestGPUBusyMatchesModel(t *testing.T) {
	app := defaultTestApp(16)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With perfect reuse: n preprocess kernels + C(n,2) comparisons.
	want := sim.Time(16)*app.pre + sim.Time(pairs.TotalPairs(16))*app.cmp
	if got := m.Phases.Busy(ClassGPU); got != want {
		t.Fatalf("GPU busy = %v, want %v", got, want)
	}
}

func TestStealFlatPolicyRuns(t *testing.T) {
	app := defaultTestApp(32)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 3), Seed: 1, StealPolicy: StealFlat})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(32)) {
		t.Fatal("flat policy lost pairs")
	}
}

func TestJobLimitDerivation(t *testing.T) {
	cfg := Config{}
	if got := cfg.jobLimitFor(20, 100, 2); got != 19 {
		t.Errorf("limit = %d, want 19 (dev bound)", got)
	}
	if got := cfg.jobLimitFor(1000, 8, 2); got != 3 {
		t.Errorf("limit = %d, want 3 (host bound)", got)
	}
	if got := cfg.jobLimitFor(1000, 0, 2); got != 48 {
		t.Errorf("limit = %d, want 48 (per-device default)", got)
	}
	cfg.ConcurrentJobs = 5
	if got := cfg.jobLimitFor(1000, 1000, 2); got != 5 {
		t.Errorf("limit = %d, want 5 (explicit)", got)
	}
	if got := cfg.jobLimitFor(2, 2, 1); got != 1 {
		t.Errorf("limit = %d, want 1 (floor)", got)
	}
}

func TestTwoItemsMinimalRun(t *testing.T) {
	app := defaultTestApp(2)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != 1 || m.Loads != 2 {
		t.Fatalf("pairs=%d loads=%d", m.Pairs, m.Loads)
	}
}

// Property: for random small configurations, the runtime completes all
// pairs with R >= 1, and loads never exceed what a cache-less system would
// perform (2 loads per pair).
func TestQuickRuntimeInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, nodesRaw, devRaw, hostRaw, leafRaw uint8) bool {
		n := int(nRaw%20) + 4
		nodes := int(nodesRaw%3) + 1
		devSlots := int(devRaw%8)*2 + 4
		hostSlots := int(hostRaw%10)*2 + 4
		leaf := int64(leafRaw%30) + 1
		app := defaultTestApp(n)
		app.parse = sim.Micros(100)
		app.cmp = sim.Micros(50)
		m, err := Run(Config{
			App:         app,
			Cluster:     newCluster(t, nodes),
			Seed:        seed,
			DeviceSlots: devSlots,
			HostSlots:   hostSlots,
			DistCache:   nodes > 1 && seed%2 == 0,
			LeafPairs:   leaf,
		})
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		if m.Pairs != uint64(pairs.TotalPairs(n)) {
			return false
		}
		if m.Loads < uint64(n) {
			return false // every item must be loaded at least once
		}
		if m.Loads > 2*m.Pairs {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRuntimeSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app := defaultTestApp(32)
		_, err := Run(Config{App: app, Cluster: newCluster(b, 2), Seed: 1, DistCache: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleRun() {
	app := &testApp{
		n: 4, itemSize: 1 << 20, fileSize: 1 << 10, resultSize: 8,
		parse: sim.Millis(2), pre: sim.Millis(1), cmp: sim.Millis(1),
	}
	spec := cluster.NodeSpec{Cores: 4, HostCacheBytes: 1 << 30, GPUs: []gpu.Model{gpu.TitanXMaxwell}}
	cl, _ := cluster.New([]cluster.NodeSpec{spec}, cluster.DefaultConfig())
	m, err := Run(Config{App: app, Cluster: cl, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("pairs=%d loads=%d R=%.1f\n", m.Pairs, m.Loads, m.R)
	// Output: pairs=6 loads=4 R=1.0
}

func TestCacheAwareStealPolicy(t *testing.T) {
	app := defaultTestApp(48)
	m, err := Run(Config{
		App: app, Cluster: newCluster(t, 4), Seed: 1,
		StealPolicy: StealCacheAware,
		DeviceSlots: 12, HostSlots: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != uint64(pairs.TotalPairs(48)) {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	if m.RemoteSteals == 0 {
		t.Fatal("cache-aware run had no remote steals")
	}
}

func TestPairFilter(t *testing.T) {
	app := defaultTestApp(20)
	even := func(i, j int) bool { return (i+j)%2 == 0 }
	var want uint64
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if even(i, j) {
				want++
			}
		}
	}
	capp := &computeApp{testApp: *app, failLoad: -1, failCompare: -1}
	m, err := Run(Config{
		App: capp, Cluster: newCluster(t, 2), Seed: 1,
		PairFilter: even, CollectResults: true, DistCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != want {
		t.Fatalf("pairs = %d, want %d", m.Pairs, want)
	}
	for _, r := range m.Results {
		if !even(r.I, r.J) {
			t.Fatalf("filtered pair (%d, %d) was computed", r.I, r.J)
		}
	}
}

func TestPairFilterRejectsAll(t *testing.T) {
	app := defaultTestApp(10)
	m, err := Run(Config{
		App: app, Cluster: newCluster(t, 1), Seed: 1,
		PairFilter: func(int, int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != 0 || m.Loads != 0 {
		t.Fatalf("pairs=%d loads=%d, want 0/0", m.Pairs, m.Loads)
	}
}

func TestPrewarmEliminatesLoads(t *testing.T) {
	app := defaultTestApp(16)
	cold, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(Config{App: app, Cluster: newCluster(t, 1), Seed: 1, PrewarmHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Loads != 0 {
		t.Fatalf("fully prewarmed run performed %d loads", warm.Loads)
	}
	if warm.Runtime >= cold.Runtime {
		t.Fatalf("prewarmed run (%v) not faster than cold (%v)", warm.Runtime, cold.Runtime)
	}
	if warm.Pairs != cold.Pairs {
		t.Fatal("prewarm changed the computed pairs")
	}
}

func TestPrewarmPartialFraction(t *testing.T) {
	app := defaultTestApp(20)
	m, err := Run(Config{App: app, Cluster: newCluster(t, 2), Seed: 1, PrewarmHost: 0.5, DistCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Loads == 0 || m.Loads >= 20 {
		t.Fatalf("half prewarm loads = %d, want in (0, 20)", m.Loads)
	}
}

func TestPrewarmRealComputePayloads(t *testing.T) {
	app := &computeApp{testApp: *defaultTestApp(8), failLoad: -1, failCompare: -1}
	m, err := Run(Config{
		App: app, Cluster: newCluster(t, 1), Seed: 1,
		PrewarmHost: 1, CollectResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		if want := r.I*10 + r.J*10; r.Value.(int) != want {
			t.Fatalf("prewarmed payloads corrupted result (%d, %d): %v", r.I, r.J, r.Value)
		}
	}
}

func TestPrewarmValidation(t *testing.T) {
	app := defaultTestApp(8)
	if _, err := Run(Config{App: app, Cluster: newCluster(t, 1), PrewarmHost: 1.5}); err == nil {
		t.Fatal("PrewarmHost > 1 accepted")
	}
	if _, err := Run(Config{App: app, Cluster: newCluster(t, 1), PrewarmHost: -0.1}); err == nil {
		t.Fatal("negative PrewarmHost accepted")
	}
}
