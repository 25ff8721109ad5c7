package rocket_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

// WithHomogeneous builds n identical nodes: a 4-node run spreads its
// pairs over exactly the four single-GPU devices node0..node3.
func TestHomogeneousPlatform(t *testing.T) {
	app := forensics.New(forensics.Params{N: 64, Seed: 1})
	m, err := rocket.New(
		rocket.WithHomogeneous(4, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(1),
		rocket.WithThroughputWindow(sim.Second),
	).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for id := range m.DeviceThroughput {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if want := []string{"node0/gpu0", "node1/gpu0", "node2/gpu0", "node3/gpu0"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("devices = %v, want %v", ids, want)
	}
}

func TestPaperHeterogeneous(t *testing.T) {
	topo := rocket.PaperTopology()
	gpus := 0
	for _, n := range topo {
		gpus += len(n.GPUs)
	}
	if len(topo) != 4 || gpus != 7 {
		t.Fatalf("want 4 nodes / 7 GPUs, got %d / %d", len(topo), gpus)
	}
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	app := microscopy.New(microscopy.Params{N: 24, Seed: 1})
	m, err := rocket.New(
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDistCache(true),
		rocket.WithSeed(1),
	).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != 24*23/2 {
		t.Fatalf("pairs = %d", m.Pairs)
	}
}

func TestRealKernelsThroughPublicAPI(t *testing.T) {
	app, err := forensics.NewReal(forensics.RealParams{N: 8, Cameras: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rocket.New(
		rocket.WithHomogeneous(1, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithCollectResults(true),
		rocket.WithSeed(1),
	).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 28 {
		t.Fatalf("results = %d, want 28", len(m.Results))
	}
	for _, r := range m.Results {
		score := r.Value.(float64)
		if score < -1.01 || score > 1.01 {
			t.Fatalf("NCC score %v out of range", score)
		}
	}
}

// The root's pair-store door end to end, at a tiny scale: a cold run
// fills a batch, the batch is merged, sealed, saved and reloaded, and a
// delta run over four appended items serves the whole base region from
// the reloaded store (HasMany over its sealed segment) and computes only
// the pairs touching new items.
func TestPairStoreDeltaRun(t *testing.T) {
	digest := rocket.PairDigestFunc("corpus", "forensics", 7)
	run := func(n int, opts ...rocket.Option) *rocket.Metrics {
		t.Helper()
		opts = append([]rocket.Option{
			rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
			rocket.WithSeed(1),
			rocket.WithItemDigest(digest),
		}, opts...)
		m, err := rocket.New(opts...).Run(forensics.New(forensics.Params{N: n, Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	store, batch := rocket.NewPairStore(), rocket.NewPairBatch()
	run(12, rocket.WithStoreBatch(batch))
	if got := store.Merge(batch); got != 66 {
		t.Fatalf("merged %d of the cold run's results, want 66", got)
	}
	store.Seal()
	path := filepath.Join(t.TempDir(), "store.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := rocket.LoadPairStore(path)
	if err != nil {
		t.Fatal(err)
	}

	batch = rocket.NewPairBatch()
	m := run(16, rocket.WithStoreSnapshot(reloaded.Snapshot()), rocket.WithBaseItems(12), rocket.WithStoreBatch(batch))
	if delta := rocket.DeltaPairs(16, 12); m.StoreHits != 66 || m.StoreMisses != 0 || int64(m.Pairs) != delta || delta != 54 {
		t.Fatalf("delta run: %d hits, %d misses, %d pairs; want 66, 0 and %d = 54", m.StoreHits, m.StoreMisses, m.Pairs, delta)
	}
	if uint64(batch.Len()) != m.Pairs {
		t.Fatalf("delta batch holds %d results for %d computed pairs", batch.Len(), m.Pairs)
	}
	reloaded.Merge(batch)
	reloaded.Seal()
	if got := reloaded.Len(); got != 16*15/2 {
		t.Fatalf("store holds %d results after the delta, want %d", got, 16*15/2)
	}
}

// The online public API: the queue a Serve starts accepts submissions
// while the fleet runs, drains on Shutdown, and its arrival log replays
// through sched.Run with identical fleet metrics.
func TestStartQueueOnlineThroughPublicAPI(t *testing.T) {
	srv, err := rocket.Serve(rocket.ServeConfig{Nodes: 2, Policy: sched.PolicySJF, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := srv.Queue()
	for i := 0; i < 4; i++ {
		app := forensics.New(forensics.Params{N: 8, Seed: uint64(i + 1)})
		if _, err := q.Submit(sched.Job{App: app}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := q.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 4 {
		t.Fatalf("completed %d/4", m.Completed)
	}
	if _, err := q.Submit(sched.Job{App: forensics.New(forensics.Params{N: 8, Seed: 9})}); !errors.Is(err, sched.ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	replay, err := sched.Run(q.ReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.JSON()
	b, _ := replay.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("replay differs:\n%s\nvs\n%s", a, b)
	}
}

// The queue rocket.Serve starts sizes its fleet from Nodes alone, so a
// config without Nodes is refused with the scheduler's Nodes error.
func TestRunQueueNeedsQueueNodes(t *testing.T) {
	_, err := rocket.Serve(rocket.ServeConfig{Seed: 2})
	if err == nil || !strings.Contains(err.Error(), "Config.Nodes must be >= 1") {
		t.Fatalf("Serve without Nodes: err = %v, want the Nodes error", err)
	}
}

// rocket.Serve exposes the HTTP service layer end to end.
func TestServeThroughPublicAPI(t *testing.T) {
	srv, err := rocket.Serve(rocket.ServeConfig{Nodes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"app":"forensics","items":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info, ok := srv.Queue().Job("job0"); !ok || info.Status.String() != "done" {
		t.Fatalf("job0: %+v (ok=%v), want done", info, ok)
	}
}
