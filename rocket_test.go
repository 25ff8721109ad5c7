package rocket_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/experiments"
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

// TestRunQueueMixedPolicies drives the rocketd scheduler through the
// public API: 16 mixed-app jobs (microscopy, forensics, bioinformatics)
// scheduled concurrently over one shared cluster under all three
// policies, with seeded, repeatable results. On the skewed two-tenant
// mix, fair-share must beat FIFO on mean wait: narrow interactive jobs
// stop queueing behind wide batch jobs.
func TestRunQueueMixedPolicies(t *testing.T) {
	const queueTestNodes = 8
	opts := experiments.Options{Scale: 25, Seed: 1}
	waits := make(map[rocket.QueuePolicy]sim.Time)
	for _, p := range []rocket.QueuePolicy{rocket.PolicyFIFO, rocket.PolicySJF, rocket.PolicyFairShare} {
		run := func() *rocket.QueueMetrics {
			m, err := rocket.New(rocket.WithQueueConfig(rocket.QueueConfig{
				Jobs:   experiments.QueueMix(16, queueTestNodes, opts),
				Nodes:  queueTestNodes,
				Policy: p,
				Seed:   1,
			})).RunQueue()
			if err != nil {
				t.Fatalf("policy %v: %v", p, err)
			}
			return m
		}
		m := run()
		if m.Completed != 16 || m.Rejected != 0 {
			t.Fatalf("policy %v: completed %d rejected %d, want 16/0", p, m.Completed, m.Rejected)
		}
		apps := make(map[string]bool)
		for _, j := range m.Jobs {
			apps[j.App] = true
		}
		if len(apps) < 3 {
			t.Fatalf("policy %v: want >= 3 distinct apps in the mix, got %v", p, apps)
		}
		again := run()
		if m.Makespan != again.Makespan || m.MeanWait != again.MeanWait || m.Pairs != again.Pairs {
			t.Fatalf("policy %v: results not deterministic: %v/%v vs %v/%v",
				p, m.Makespan, m.MeanWait, again.Makespan, again.MeanWait)
		}
		waits[p] = m.MeanWait
	}
	if waits[rocket.PolicyFairShare] >= waits[rocket.PolicyFIFO] {
		t.Fatalf("fair-share mean wait %v should beat FIFO %v on the skewed mix",
			waits[rocket.PolicyFairShare], waits[rocket.PolicyFIFO])
	}
}

// The online public API: the queue a Serve starts accepts submissions
// while the fleet runs, drains on Shutdown, and its arrival log replays
// through RunQueue with identical fleet metrics.
func TestStartQueueOnlineThroughPublicAPI(t *testing.T) {
	srv, err := rocket.Serve(rocket.ServeConfig{Nodes: 2, Policy: rocket.PolicySJF, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := srv.Queue()
	for i := 0; i < 4; i++ {
		app := forensics.New(forensics.Params{N: 8, Seed: uint64(i + 1)})
		if _, err := q.Submit(rocket.QueueJob{App: app}); err != nil {
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
	if _, err := q.Submit(rocket.QueueJob{App: forensics.New(forensics.Params{N: 8, Seed: 9})}); !errors.Is(err, rocket.ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	replay, err := rocket.New(rocket.WithQueueConfig(q.ReplayConfig())).RunQueue()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.JSON()
	b, _ := replay.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("replay differs:\n%s\nvs\n%s", a, b)
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
	var info rocket.QueueJobInfo
	ok := false
	if info, ok = srv.Queue().Job("job0"); !ok || info.Status.String() != "done" {
		t.Fatalf("job0: %+v (ok=%v), want done", info, ok)
	}
}
