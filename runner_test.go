package rocket_test

import (
	"reflect"
	"strings"
	"testing"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/cluster"
	"rocket/internal/core"
)

// TestRunnerClusterMatchesTopology is the platform-equivalence gate: a
// core.Run on an explicitly built cluster and a Runner's topology build
// must produce bit-identical Metrics for the same settings.
func TestRunnerClusterMatchesTopology(t *testing.T) {
	app := microscopy.New(microscopy.Params{N: 24, Seed: 1})

	spec := rocket.DAS5Node(rocket.TitanXMaxwell)
	cl, err := cluster.New([]rocket.NodeSpec{spec, spec}, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	old, err := core.Run(core.Config{App: app, Cluster: cl, DistCache: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	r := rocket.New(
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDistCache(true),
		rocket.WithSeed(1),
	)
	neu, err := r.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, neu) {
		t.Fatalf("explicit cluster diverged from topology build:\nold: %+v\nnew: %+v", old, neu)
	}
}

// TestRunnerIsReusable: a topology-built Runner rebuilds the cluster per
// run, so repeated runs are bit-identical rather than contaminated by
// accumulated accounting.
func TestRunnerIsReusable(t *testing.T) {
	app := forensics.New(forensics.Params{N: 16, Seed: 3})
	r := rocket.New(
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(7),
	)
	m1, err := r.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("two runs of the same Runner diverged")
	}
}

func TestRunnerOptionErrorsSurfaceAtRun(t *testing.T) {
	app := forensics.New(forensics.Params{N: 16, Seed: 3})
	for name, r := range map[string]*rocket.Runner{
		"no platform":  rocket.New(),
		"bad topology": rocket.New(rocket.WithTopology()),
		"bad n":        rocket.New(rocket.WithHomogeneous(0, rocket.DAS5Node(rocket.TitanXMaxwell))),
	} {
		if _, err := r.Run(app); err == nil {
			t.Errorf("%s: Run should fail", name)
		}
	}
	if _, err := rocket.New().Run(nil); err == nil {
		t.Error("Run(nil app) should fail")
	}
}

// RunQueue sizes its cluster from the queue configuration alone: a
// Runner's topology describes Run and RunFleet platforms, and a queue with
// no QueueConfig.Nodes is refused instead of running copies of the first
// node.
func TestRunQueueNeedsQueueNodes(t *testing.T) {
	job := rocket.QueueJob{App: forensics.New(forensics.Params{N: 12, Seed: 2})}
	_, err := rocket.New(rocket.WithTopology(rocket.PaperTopology()...)).RunQueue(job)
	if err == nil || !strings.Contains(err.Error(), "Config.Nodes must be >= 1") {
		t.Fatalf("RunQueue without QueueConfig.Nodes: err = %v, want the Nodes error", err)
	}
}

// TestRunnerQueueEquivalentForms: the two ways of feeding the queue —
// pre-loaded cfg.Jobs and argument append — must produce bit-identical
// reports.
func TestRunnerQueueEquivalentForms(t *testing.T) {
	jobs := []rocket.QueueJob{
		{App: forensics.New(forensics.Params{N: 16, Seed: 2}), Nodes: 2},
		{App: microscopy.New(microscopy.Params{N: 12, Seed: 3}), Nodes: 1},
		{App: forensics.New(forensics.Params{N: 12, Seed: 4}), Nodes: 1},
	}
	cfg := rocket.QueueConfig{Jobs: jobs, Nodes: 3, Seed: 11, Policy: rocket.PolicySJF}

	ref, err := rocket.New(rocket.WithQueueConfig(cfg)).RunQueue()
	if err != nil {
		t.Fatal(err)
	}

	// Jobs passed as arguments append to the configured queue.
	base := rocket.QueueConfig{Nodes: 3, Seed: 11, Policy: rocket.PolicySJF}
	argd, err := rocket.New(rocket.WithQueueConfig(base)).RunQueue(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if argd.Report() != ref.Report() {
		t.Fatal("RunQueue(jobs...) diverged from pre-loaded cfg.Jobs")
	}
}

// TestRunnerElasticOptions drives both elastic surfaces through the
// public API: FleetConfig.Elastic churns a fleet run, and
// QueueConfig.Elastic puts queue runs on a pay-per-use bill.
func TestRunnerElasticOptions(t *testing.T) {
	r := rocket.New(
		rocket.WithHomogeneous(16, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(3),
	)
	res, err := r.RunFleet(func(c *rocket.FleetConfig) {
		c.Duration = 4e6 // 4ms
		c.Elastic = &rocket.Elasticity{
			InitialNodes:    4,
			Arrival:         "wave",
			Waves:           2,
			PreemptFraction: 0.25,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Preempts == 0 {
		t.Fatalf("elastic fleet saw no churn: %+v", res)
	}

	jobs := []rocket.QueueJob{
		{App: forensics.New(forensics.Params{N: 12, Seed: 2})},
		{App: forensics.New(forensics.Params{N: 12, Seed: 3})},
	}
	m, err := rocket.New(
		rocket.WithSeed(5),
		rocket.WithQueueConfig(rocket.QueueConfig{
			Nodes:   4,
			Seed:    5,
			Elastic: &rocket.Autoscale{MinNodes: 1, IdleTimeout: 1e9},
		}),
	).RunQueue(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Elastic || m.Completed != 2 {
		t.Fatalf("autoscaled queue: elastic=%v completed=%d", m.Elastic, m.Completed)
	}
	if m.NodeSeconds >= float64(m.TotalNodes)*m.Makespan.Seconds() {
		t.Fatalf("autoscaler bill %.3f not below fixed fleet", m.NodeSeconds)
	}
}
