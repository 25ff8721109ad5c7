package sched

import (
	"testing"

	"rocket/internal/sim"
)

// burstJobs is the autoscaler's canonical workload: b bursts of w
// single-node jobs, bursts separated by gap. Between bursts the fleet is
// idle, which is exactly where an autoscaler earns its keep.
func burstJobs(b, w int, gap sim.Time) []Job {
	var jobs []Job
	for i := 0; i < b; i++ {
		at := sim.Time(i) * gap
		for j := 0; j < w; j++ {
			jobs = append(jobs, Job{App: smallApp("burst", 6, sim.Millis(2)), Arrival: at})
		}
	}
	return jobs
}

// TestWarmAutoscalerMatchesFixedFleetLatency is the headline property: a
// warm pool (zero provision delay) provisions capacity at the same
// instant placement wants it, so every job starts exactly when it would
// on a fixed max-size fleet — identical waits — while idle scale-down
// makes the node-seconds bill strictly smaller.
func TestWarmAutoscalerMatchesFixedFleetLatency(t *testing.T) {
	jobs := burstJobs(3, 12, sim.Seconds(3600))
	fixed, err := Run(Config{Jobs: jobs, Nodes: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := Run(Config{Jobs: jobs, Nodes: 8, Seed: 1, Elastic: &Autoscale{
		MinNodes:    1,
		IdleTimeout: sim.Seconds(60),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !elastic.Elastic || fixed.Elastic {
		t.Fatalf("Elastic flags wrong: fixed=%v elastic=%v", fixed.Elastic, elastic.Elastic)
	}
	if elastic.Completed != len(jobs) || fixed.Completed != len(jobs) {
		t.Fatalf("completions: fixed=%d elastic=%d want %d", fixed.Completed, elastic.Completed, len(jobs))
	}
	for i := range fixed.Jobs {
		if fixed.Jobs[i].Start != elastic.Jobs[i].Start {
			t.Fatalf("job %d starts differ: fixed %v, elastic %v",
				i, fixed.Jobs[i].Start, elastic.Jobs[i].Start)
		}
	}
	if elastic.P99Wait != fixed.P99Wait || elastic.MeanWait != fixed.MeanWait {
		t.Fatalf("warm pool changed latency: p99 %v vs %v", elastic.P99Wait, fixed.P99Wait)
	}
	if elastic.NodeSeconds >= fixed.NodeSeconds {
		t.Fatalf("autoscaler bill %.2f not below fixed fleet %.2f",
			elastic.NodeSeconds, fixed.NodeSeconds)
	}
	if elastic.ScaleDowns == 0 {
		t.Fatal("hour-long idle gaps triggered no scale-down")
	}
	if elastic.PeakNodes > 8 {
		t.Fatalf("peak %d exceeds capacity", elastic.PeakNodes)
	}
}

// TestColdProvisioningDelaysPlacement pins the cold-start path: with a
// provision delay and one boot node, queued jobs wait for capacity to
// warm up, and the clock lands exactly on provisioning completions.
func TestColdProvisioningDelaysPlacement(t *testing.T) {
	// Shorter than a job's ~35ms runtime, so waiting for the warming
	// node beats queueing behind the boot node.
	delay := sim.Millis(10)
	jobs := []Job{
		{App: smallApp("a", 6, sim.Millis(2))},
		{App: smallApp("b", 6, sim.Millis(2))},
	}
	m, err := Run(Config{Jobs: jobs, Nodes: 4, Seed: 1, Elastic: &Autoscale{
		BootNodes:      1,
		ProvisionDelay: delay,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 {
		t.Fatalf("completed %d of 2", m.Completed)
	}
	// One job starts at t=0 on the boot node; the other starts when its
	// provisioned node comes online, exactly delay later.
	if m.Jobs[0].Start != 0 {
		t.Fatalf("first job started at %v", m.Jobs[0].Start)
	}
	if m.Jobs[1].Start != delay {
		t.Fatalf("second job started at %v, want the provisioning completion %v",
			m.Jobs[1].Start, delay)
	}
	if m.ScaleUps == 0 {
		t.Fatal("no scale-up recorded")
	}
}

// TestAutoscaleDeterministicReruns pins replayability of the full elastic
// machinery across reruns and worker counts.
func TestAutoscaleDeterministicReruns(t *testing.T) {
	run := func(workers int) *Metrics {
		jobs := burstJobs(2, 6, sim.Seconds(1800))
		m, err := Run(Config{Jobs: jobs, Nodes: 6, Seed: 7, Workers: workers, Elastic: &Autoscale{
			BootNodes:      2,
			ProvisionDelay: sim.Seconds(2),
			IdleTimeout:    sim.Seconds(120),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, c := run(1), run(4), run(1)
	for _, other := range []*Metrics{b, c} {
		if a.NodeSeconds != other.NodeSeconds || a.P99Wait != other.P99Wait ||
			a.ScaleUps != other.ScaleUps || a.ScaleDowns != other.ScaleDowns ||
			a.Makespan != other.Makespan {
			t.Fatalf("elastic rerun diverged:\n%+v\nvs\n%+v", summary(a), summary(other))
		}
		for i := range a.Jobs {
			if a.Jobs[i].Start != other.Jobs[i].Start || a.Jobs[i].End != other.Jobs[i].End {
				t.Fatalf("job %d timeline diverged across reruns", i)
			}
		}
	}
}

func summary(m *Metrics) map[string]any {
	return map[string]any{
		"nodeSeconds": m.NodeSeconds, "p99": m.P99Wait, "ups": m.ScaleUps,
		"downs": m.ScaleDowns, "makespan": m.Makespan,
	}
}

// TestAutoscaleValidation covers the policy cross-checks.
func TestAutoscaleValidation(t *testing.T) {
	base := func() Config {
		return Config{Jobs: []Job{{App: smallApp("v", 4, sim.Millis(1))}}, Nodes: 4, Seed: 1}
	}
	cases := []struct {
		name string
		a    Autoscale
	}{
		{"min above capacity", Autoscale{MinNodes: 5}},
		{"boot below min", Autoscale{MinNodes: 3, BootNodes: 2}},
		{"boot above capacity", Autoscale{BootNodes: 5}},
		{"negative delay", Autoscale{ProvisionDelay: -1}},
	}
	for _, c := range cases {
		cfg := base()
		cfg.Elastic = &c.a
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
