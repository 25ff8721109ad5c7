package rocket_test

import (
	"reflect"
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
	cl, err := cluster.New([]rocket.NodeSpec{spec, spec})
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
