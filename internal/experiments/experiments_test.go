package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
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

func TestTable1Content(t *testing.T) {
	out, err := table1(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"forensics", "bioinformatics", "microscopy",
		"no. of pairs", "cache slot size", "N/A"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ShowsIrregularity(t *testing.T) {
	out, err := fig7(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "## Fig 7") != 3 {
		t.Fatalf("expected 3 histograms:\n%s", out)
	}
}

func TestFig8SingleNode(t *testing.T) {
	out, err := fig8(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "efficiency") || !strings.Contains(out, "microscopy") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFig9Sweep(t *testing.T) {
	out, err := fig9(Options{Scale: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "device-limit") || !strings.Contains(out, "host-limit") {
		t.Fatalf("missing regimes:\n%s", out)
	}
}

func TestFig11Hops(t *testing.T) {
	out, err := fig11(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hit@1") || !strings.Contains(out, "miss") {
		t.Fatalf("missing columns:\n%s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, e := range All() {
		if !strings.HasPrefix(e.ID, "ablation-") {
			continue
		}
		if e.ID == "ablation-steal" || e.ID == "ablation-backoff" {
			continue // microscopy at full n; covered by TestExperimentsGolden
		}
		out, err := e.Run(tiny)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if !strings.Contains(out, "runtime") {
			t.Errorf("%s output lacks runtime column:\n%s", e.ID, out)
		}
	}
}

func TestQueueScalingReport(t *testing.T) {
	out, err := queueScaling(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fifo", "sjf", "fair", "mean wait", "util %", "fair-share mean wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("queue-scaling output missing %q:\n%s", want, out)
		}
	}
}

func TestQueueMixIsSkewedAcrossTenantsAndApps(t *testing.T) {
	jobs := QueueMix(16, queueNodes, tiny)
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

func TestResilienceSweep(t *testing.T) {
	out, err := resilience(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"failure-free", "crash 1/8", "crash 4/8", "restart",
		"straggler", "cut", "degraded", "inflation", "recovered"} {
		if !strings.Contains(out, want) {
			t.Errorf("resilience output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "1.000x") {
		t.Errorf("baseline row must report 1.000x inflation:\n%s", out)
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
	if a != b {
		t.Fatalf("resilience output differs across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestIncrementalSweep(t *testing.T) {
	out, err := incremental(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"append", "delta pairs", "served", "speedup", "5%", "10%", "50%"} {
		if !strings.Contains(out, want) {
			t.Errorf("incremental output missing %q:\n%s", want, out)
		}
	}
	// The acceptance bar: at 10% growth the warm-started delta job must
	// be at least 5x faster than the full recompute.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "10%" {
			continue
		}
		sp := fields[len(fields)-1]
		var x float64
		if _, err := fmt.Sscanf(sp, "%fx", &x); err != nil {
			t.Fatalf("cannot parse speedup %q: %v", sp, err)
		}
		if x < 5 {
			t.Fatalf("10%% growth speedup %.2fx below the 5x bar:\n%s", x, out)
		}
		return
	}
	t.Fatalf("no 10%% row in output:\n%s", out)
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
	if a != b {
		t.Fatalf("incremental output differs across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestElasticityReport(t *testing.T) {
	out, err := elasticity(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Elastic fleet",
		"joins",
		"Autoscaler",
		"fixed",
		"warm",
		"cold",
		"of the fixed-fleet bill at identical p99 wait",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("elasticity report missing %q:\n%s", want, out)
		}
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
	if a != b {
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
			out, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s workers=%d trace=%v: %v", e.ID, o.Workers, o.Trace, err)
			}
			sum := sha256.Sum256([]byte(out))
			if i == 0 {
				base = sum
			} else if sum != base {
				t.Errorf("%s: output sha at workers=%d trace=%v differs from workers=1", e.ID, o.Workers, o.Trace)
			}
		}
	}
}
