package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "job", Layer: "loadgen", Start: 0, End: 100, Parent: -1},
		{Name: "submit", Layer: "serve", Start: 10, End: 30, Parent: 0},
		{Name: "run", Layer: "sched", Start: 20, End: 50, Parent: 0},      // overlaps submit by 10
		{Name: "late", Layer: "serve", Start: 90, End: 120, Parent: 0},    // runs past the parent
		{Name: "open", Layer: "serve", Start: 60, End: -1, Parent: 0},     // never ended
		{Name: "decode", Layer: "jobspec", Start: 12, End: 18, Parent: 1}, // grandchild
	}
	self := selfTimes(spans)
	// The children cover [10,50) and [90,100) of the parent: 50 of 100.
	want := []int64{50, 14, 30, 30, 0, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	byLayer := selfByLayer(spans)
	for layer, ns := range map[string]float64{"serve": 44, "loadgen": 50, "sched": 30, "jobspec": 6} {
		if got := byLayer[layer] * 1e6; math.Abs(got-ns) > 1e-6 {
			t.Errorf("self time of layer %s = %v ns, want %v", layer, got, ns)
		}
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "core", -1, 0)
	tr.end(id)
	tr.endAt(tr.beginAt(time.Now(), "y", "core", id, 0), time.Now())
	if id != -1 {
		t.Errorf("a nil tracer handed out span id %d", id)
	}
}

func TestTracerWritesSpansAndSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("iteration", "loadgen", -1, 7)
	call := tr.begin("core.Run", "core", root, 7)
	tr.end(call)
	tr.end(root)
	path, err := tr.write(t.TempDir(), traceDoc{Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 || doc.Spans[1].Op != 7 || doc.Spans[1].End < doc.Spans[1].Start {
		t.Errorf("spans read back as %+v", doc.Spans)
	}
	if _, ok := doc.SelfMsLayer["core"]; !ok {
		t.Errorf("no self time for the core layer in %v", doc.SelfMsLayer)
	}
}
