package experiments

import (
	"crypto/sha256"
	"testing"
)

// tiny runs experiments at an aggressive scale so the full suite stays
// fast; `rocket experiments` runs them at reporting scale.
var tiny = Options{Scale: 50, Seed: 1}

func TestSetupsScale(t *testing.T) {
	o := Options{Scale: 10, Seed: 1}
	f := ForensicsSetup(o)
	if f.App.NumItems() != 498 {
		t.Errorf("forensics n = %d, want 498", f.App.NumItems())
	}
	if f.DevSlots != 29 || f.HostSlots != 105 {
		t.Errorf("forensics slots = %d/%d, want 29/105", f.DevSlots, f.HostSlots)
	}
	m := microscopySetup(o)
	if m.App.NumItems() != 256 {
		t.Errorf("microscopy must stay at paper scale, got %d", m.App.NumItems())
	}
	c := cartesiusPhyloSetup(o)
	if c.App.NumItems() != 681 {
		t.Errorf("cartesius n = %d, want 681", c.App.NumItems())
	}
}

func TestDefaultScale(t *testing.T) {
	if got := (Options{}).normalized().Scale; got != 10 {
		t.Fatalf("default scale = %d, want 10", got)
	}
}

func TestSetupByName(t *testing.T) {
	for _, name := range []string{"forensics", "bioinformatics", "microscopy", "bioinformatics-cartesius"} {
		s, err := SetupByName(name, tiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("got %q", s.Name)
		}
	}
	if _, err := SetupByName("nope", tiny); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Description == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestQueueMixIsSkewedAcrossTenantsAndApps(t *testing.T) {
	jobs := queueMix(16, queueNodes, tiny)
	if len(jobs) != 16 {
		t.Fatalf("len = %d", len(jobs))
	}
	tenants := map[string]int{}
	apps := map[string]bool{}
	for _, j := range jobs {
		tenants[j.Tenant]++
		apps[j.App.Name()] = true
	}
	if tenants["batch"] != 4 || tenants["interactive"] != 12 {
		t.Fatalf("tenant split = %v, want 4 batch / 12 interactive", tenants)
	}
	if len(apps) < 3 {
		t.Fatalf("want all three applications in the mix, got %v", apps)
	}
}

// With a fixed seed and fault schedule the resilience experiment must be
// byte-deterministic across runs.
func TestResilienceDeterministic(t *testing.T) {
	a, err := resilience(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resilience(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("resilience output differs across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestIncrementalDeterministic(t *testing.T) {
	a, err := incremental(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := incremental(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("incremental output differs across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestElasticityDeterministic(t *testing.T) {
	a, err := elasticity(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := elasticity(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("elasticity output differs across identical runs")
	}
}

// TestExperimentsWorkerAndTraceInvariance: every experiment renders a
// byte-identical report (asserted via output sha256) whatever the size of
// the pool that runs its sweep points (Options.Workers), and with a flight
// recorder attached to every run (Options.Trace): recording changes no
// reported number.
func TestExperimentsWorkerAndTraceInvariance(t *testing.T) {
	for _, e := range All() {
		var base [sha256.Size]byte
		for i, o := range []Options{
			{Scale: 100, Seed: 1, Workers: 1},
			{Scale: 100, Seed: 1, Workers: 4},
			{Scale: 100, Seed: 1, Workers: 4, Trace: true},
		} {
			res, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s workers=%d trace=%v: %v", e.ID, o.Workers, o.Trace, err)
			}
			sum := sha256.Sum256([]byte(res.String()))
			if i == 0 {
				base = sum
			} else if sum != base {
				t.Errorf("%s: output sha at workers=%d trace=%v differs from workers=1", e.ID, o.Workers, o.Trace)
			}
		}
	}
}
