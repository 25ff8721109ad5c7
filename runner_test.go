package rocket_test

import (
	"reflect"
	"testing"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
)

// TestRunnerClusterMatchesTopology is the platform-equivalence gate: an
// explicitly built cluster and a topology-derived one must produce
// bit-identical Metrics for the same settings.
func TestRunnerClusterMatchesTopology(t *testing.T) {
	app := microscopy.New(microscopy.Params{N: 24, Seed: 1})

	cl, err := rocket.Homogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell))
	if err != nil {
		t.Fatal(err)
	}
	old, err := rocket.New(
		rocket.WithCluster(cl),
		rocket.WithDistCache(true),
		rocket.WithSeed(1),
	).Run(app)
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

func TestRunnerExplicitClusterConsumedOnce(t *testing.T) {
	app := forensics.New(forensics.Params{N: 16, Seed: 3})
	cl, err := rocket.Homogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell))
	if err != nil {
		t.Fatal(err)
	}
	r := rocket.New(rocket.WithCluster(cl), rocket.WithSeed(7))
	if _, err := r.Run(app); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(app); err == nil {
		t.Fatal("second Run on a consumed explicit cluster should fail")
	}
}

func TestRunnerOptionErrorsSurfaceAtRun(t *testing.T) {
	app := forensics.New(forensics.Params{N: 16, Seed: 3})
	for name, r := range map[string]*rocket.Runner{
		"no platform":  rocket.New(),
		"bad topology": rocket.New(rocket.WithTopology()),
		"bad n":        rocket.New(rocket.WithHomogeneous(0, rocket.DAS5Node(rocket.TitanXMaxwell))),
		"nil cluster":  rocket.New(rocket.WithCluster(nil)),
	} {
		if _, err := r.Run(app); err == nil {
			t.Errorf("%s: Run should fail", name)
		}
	}
	if _, err := rocket.New().Run(nil); err == nil {
		t.Error("Run(nil app) should fail")
	}
}

func TestRunnerTopologyAccessor(t *testing.T) {
	r := rocket.New(rocket.WithTopology(rocket.PaperTopology()...))
	topo := r.Topology()
	if len(topo) != 4 {
		t.Fatalf("len(Topology()) = %d, want 4", len(topo))
	}
	// Mutating the returned slice must not affect the Runner.
	topo[0] = rocket.NodeSpec{}
	if r.Topology()[0].Cores == 0 {
		t.Fatal("Topology() returned a live reference, want a copy")
	}

	cl, err := rocket.PaperHeterogeneous()
	if err != nil {
		t.Fatal(err)
	}
	fromCluster := rocket.New(rocket.WithCluster(cl)).Topology()
	if !reflect.DeepEqual(fromCluster, rocket.PaperTopology()) {
		t.Fatal("Topology() from an explicit cluster should recover the node specs")
	}

	if got := rocket.New(rocket.WithSeed(42)).Seed(); got != 42 {
		t.Fatalf("Seed() = %d, want 42", got)
	}
}

// TestRunnerQueueEquivalentForms: the three ways of feeding the queue —
// pre-loaded cfg.Jobs, argument append, and a topology-derived fleet —
// must produce bit-identical reports.
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

	// With no explicit queue size, the topology supplies the fleet.
	topo, err := rocket.New(
		rocket.WithHomogeneous(3, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(11),
		rocket.WithQueuePolicy(rocket.PolicySJF),
	).RunQueue(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Report() != ref.Report() {
		t.Fatal("topology-derived RunQueue diverged")
	}
}

// TestRunnerElasticOptions drives both elastic surfaces through the
// public API: WithElasticity churns a fleet run, and WithAutoscaler puts
// queue runs on a pay-per-use bill.
func TestRunnerElasticOptions(t *testing.T) {
	r := rocket.New(
		rocket.WithHomogeneous(16, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(3),
		rocket.WithElasticity(&rocket.Elasticity{
			InitialNodes:    4,
			Arrival:         "wave",
			Waves:           2,
			PreemptFraction: 0.25,
		}),
	)
	res, err := r.RunFleet(func(c *rocket.FleetConfig) { c.Duration = 4e6 }) // 4ms
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
		rocket.WithQueueConfig(rocket.QueueConfig{Nodes: 4, Seed: 5}),
		rocket.WithAutoscaler(&rocket.Autoscale{MinNodes: 1, IdleTimeout: 1e9}),
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
