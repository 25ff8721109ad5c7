package scenario

import (
	"bytes"
	"strings"
	"testing"
)

const pairsDoc = `
name: tiny-recovery
mode: pairs
seed: 3
app:
  kind: forensics
  items: 24
fleet:
  nodes: 2
events:
  - at: 1ms
    kind: crash
    node: 1
  - at: 4ms
    kind: restart
    node: 1
assertions:
  - at: 2ms
    assert: node-dead
    node: 1
  - at: 5ms
    assert: node-alive
    node: 1
  - assert: pairs-complete
  - assert: metric
    name: crashes
    min: 1
    max: 1
`

func TestRunPairsScenario(t *testing.T) {
	sc, err := Parse([]byte(pairsDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("scenario failed:\n%s", rep.Text())
	}
	if len(rep.Assertions) != 4 || len(rep.Faults) != 2 {
		t.Fatalf("report shape: %d assertions, %d faults", len(rep.Assertions), len(rep.Faults))
	}
	if rep.OutputSHA256 == "" || len(rep.Metrics) == 0 {
		t.Fatal("report missing hash or metrics")
	}
}

func TestAssertionFailureIsReportedNotError(t *testing.T) {
	doc := strings.Replace(pairsDoc, "assert: node-dead", "assert: node-alive", 1)
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("inverted assertion passed")
	}
	if rep.Assertions[0].Pass || rep.Assertions[0].Detail == "" {
		t.Fatalf("failed assertion = %+v", rep.Assertions[0])
	}
	// The others still pass: one failure doesn't poison the report.
	if !rep.Assertions[2].Pass {
		t.Fatal("unrelated assertion failed")
	}
	if !strings.Contains(rep.Text(), "FAIL") {
		t.Fatal("text report hides the failure")
	}
}

func TestMetricBounds(t *testing.T) {
	doc := strings.Replace(pairsDoc, "name: crashes\n    min: 1\n    max: 1", "name: crashes\n    max: 0", 1)
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("crashes max=0 passed despite an injected crash")
	}
	last := rep.Assertions[len(rep.Assertions)-1]
	if !strings.Contains(last.Detail, "above max") {
		t.Fatalf("detail = %q", last.Detail)
	}
}

func TestUnknownMetricFails(t *testing.T) {
	doc := strings.Replace(pairsDoc, "name: crashes", "name: warp_factor", 1)
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("unknown metric passed")
	}
}

// The acceptance property: the same scenario + seed produces the
// byte-identical JSON report across repeated runs. (The widths of the
// name are the engine widths reports were once also compared across;
// the fleet now runs on one event loop.)
func TestReportByteIdenticalAcrossRunsAndWidths(t *testing.T) {
	sc, err := Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	var golden []byte
	for run := 0; run < 2; run++ {
		rep, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !rep.Pass {
			t.Fatalf("run %d: scenario failed:\n%s", run, rep.Text())
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = doc
			continue
		}
		if !bytes.Equal(doc, golden) {
			t.Fatalf("run %d: report diverged", run)
		}
	}
}

// A seed override changes the report; the override is recorded in it.
func TestSeedOverride(t *testing.T) {
	sc, err := Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, RunOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if b.Seed != 99 {
		t.Fatalf("report seed = %d", b.Seed)
	}
	if a.OutputSHA256 == b.OutputSHA256 {
		t.Fatal("different seeds hashed identically")
	}
}

func TestReportRenderings(t *testing.T) {
	sc, err := Parse([]byte(pairsDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, want := range []string{"PASS", "Assertions", "Fault timeline", "Metrics", rep.OutputSHA256} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "tiny-recovery,crashes,1") {
		t.Errorf("csv missing metric row:\n%s", csv)
	}
	doc, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(doc, []byte("\n")) {
		t.Error("JSON report missing trailing newline")
	}
}

// An elastic fleet's report is byte-identical across reruns (once also
// across engine widths, hence the name), and surfaces the churn metrics
// that churn-free runs omit.
func TestElasticReportWidthInvariantWithChurnMetrics(t *testing.T) {
	sc, err := Parse([]byte(elasticDoc))
	if err != nil {
		t.Fatal(err)
	}
	var golden []byte
	for run := 0; run < 2; run++ {
		rep, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = doc
			names := map[string]float64{}
			for _, m := range rep.Metrics {
				names[m.Name] = m.Value
			}
			if names["joins"] == 0 {
				t.Fatalf("elastic run reported no joins: %v", names)
			}
			if _, ok := names["preempts"]; !ok {
				t.Fatalf("churn metrics missing: %v", names)
			}
			continue
		}
		if !bytes.Equal(doc, golden) {
			t.Fatalf("run %d: elastic report diverged", run)
		}
	}
}

// Scripted membership events flow through the DSL: a preempted node is
// observed dead, a joined node alive, and the timeline names them.
func TestScriptedJoinPreemptEvents(t *testing.T) {
	doc := `
name: scripted-churn
mode: fleet
seed: 2
duration: 6ms
fleet:
  nodes: 8
events:
  - at: 1ms
    kind: preempt
    node: 5
  - at: 2ms
    kind: join
    node: 7
assertions:
  - at: 3ms
    assert: node-dead
    node: 5
  - at: 3ms
    assert: node-alive
    node: 7
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("scenario failed:\n%s", rep.Text())
	}
	if len(rep.Faults) != 2 {
		t.Fatalf("fault timeline has %d records", len(rep.Faults))
	}
	for _, f := range rep.Faults {
		if !strings.HasPrefix(f.Target, "node ") {
			t.Fatalf("membership event rendered as %q", f.Target)
		}
	}
}
