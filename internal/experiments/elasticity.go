package experiments

import (
	"fmt"

	"rocket/internal/apps/forensics"
	"rocket/internal/fault"
	"rocket/internal/fleet"
	"rocket/internal/report"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

// elasticNodes is the shared-cluster capacity of the autoscaler bench:
// single-node jobs arrive in bursts, so a fixed fleet of this size idles
// between bursts while an elastic one pays per use.
const elasticNodes = 6

// elasticity is the dynamic-membership experiment, in two halves.
//
// The first half is the churn run: a fleet with seeded churn — wave
// arrivals with cold-start jitter plus spot preemptions that drain work to
// a successor — and its membership counts and run summary.
//
// The second half is the autoscaler bench: the same bursty job queue runs
// on a fixed max-size fleet, a warm elastic pool (zero provision delay),
// and a cold elastic pool (10 ms provisioning). The warm pool must match
// the fixed fleet's p99 wait exactly — same-instant capacity means
// provably identical job starts — while billing strictly fewer
// node-seconds; both properties are asserted, not just printed.
func elasticity(o Options) (Result, error) {
	o = o.normalized()
	churn, err := elasticChurn(o)
	if err != nil {
		return nil, err
	}
	bench, err := autoscalerBench(o)
	if err != nil {
		return nil, err
	}
	return Result{churn, bench}, nil
}

// elasticChurnConfig sizes the churn fleet off Options.Scale: 10240 slots
// at paper scale 1, divided by Scale, floored at 64.
func elasticChurnConfig(o Options) fleet.Config {
	nodes := 10240 / o.Scale
	if nodes < 64 {
		nodes = 64
	}
	cfg := fleet.DefaultConfig(nodes)
	cfg.Seed = o.Seed
	cfg.Duration = sim.Millis(10)
	cfg.Elastic = &fault.Elasticity{
		InitialNodes:    nodes / 4,
		Arrival:         fault.ArrivalWave,
		Waves:           4,
		ColdStartJitter: sim.Micros(200),
		PreemptFraction: 0.2,
		PreemptAfter:    sim.Millis(1),
	}
	return cfg
}

func elasticChurn(o Options) (Section, error) {
	cfg := elasticChurnConfig(o)
	r, err := fleet.Run(cfg)
	if err != nil {
		return Section{}, fmt.Errorf("elasticity: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("Elastic fleet: %d slots, %d initial, wave joins + %.0f%% preemptions, %v",
			cfg.Nodes, cfg.Elastic.InitialNodes, 100*cfg.Elastic.PreemptFraction, cfg.Duration),
		"joins", "preempts", "drained", "events", "msgs", "work", "state hash")
	t.AddRow(r.Joins, r.Preempts, r.Drained, r.Events, r.Messages, r.WorkDone, report.Hash(r.StateHash))
	return Section{Table: t, Lines: []string{"", "run: " + r.String(), ""}}, nil
}

// elasticBurstJobs builds the autoscaler workload: bursts of single-node
// forensics jobs separated by idle gaps much longer than a job's runtime.
func elasticBurstJobs(o Options, bursts, width int, gap sim.Time) []sched.Job {
	n := 80 / o.Scale
	if n < 8 {
		n = 8
	}
	jobs := make([]sched.Job, 0, bursts*width)
	for i := 0; i < bursts; i++ {
		for j := 0; j < width; j++ {
			k := i*width + j
			jobs = append(jobs, sched.Job{
				ID:      fmt.Sprintf("burst%d", k),
				App:     forensics.New(forensics.Params{N: n, Seed: o.Seed + uint64(k)}),
				Nodes:   1,
				Arrival: sim.Time(i) * gap,
			})
		}
	}
	return jobs
}

func autoscalerBench(o Options) (Section, error) {
	jobs := elasticBurstJobs(o, 3, 2*elasticNodes, sim.Seconds(60))
	runWith := func(a *sched.Autoscale) (*sched.Metrics, error) {
		return sched.Run(sched.Config{
			Jobs:    jobs,
			Nodes:   elasticNodes,
			Seed:    o.Seed,
			Elastic: a,
		})
	}
	fixed, err := runWith(nil)
	if err != nil {
		return Section{}, fmt.Errorf("elasticity fixed fleet: %w", err)
	}
	warm, err := runWith(&sched.Autoscale{MinNodes: 1, IdleTimeout: sim.Seconds(10)})
	if err != nil {
		return Section{}, fmt.Errorf("elasticity warm pool: %w", err)
	}
	cold, err := runWith(&sched.Autoscale{
		BootNodes:      1,
		MinNodes:       1,
		IdleTimeout:    sim.Seconds(10),
		ProvisionDelay: sim.Millis(10),
	})
	if err != nil {
		return Section{}, fmt.Errorf("elasticity cold pool: %w", err)
	}

	t := report.NewTable(
		fmt.Sprintf("Autoscaler: %d bursty jobs on %d-node capacity", len(jobs), elasticNodes),
		"fleet", "node-seconds", "p99 wait", "mean wait", "peak", "ups", "downs", "makespan")
	row := func(name string, m *sched.Metrics) {
		peak := m.PeakNodes
		if !m.Elastic {
			peak = m.TotalNodes
		}
		t.AddRow(name, fmt.Sprintf("%.2f", m.NodeSeconds), m.P99Wait,
			m.MeanWait, peak, m.ScaleUps, m.ScaleDowns, m.Makespan)
	}
	row("fixed", fixed)
	row("warm", warm)
	row("cold", cold)

	// The headline claims are load-bearing: fail the experiment rather
	// than render numbers that no longer support them.
	if warm.P99Wait != fixed.P99Wait {
		return Section{}, fmt.Errorf("elasticity: warm pool p99 wait %v != fixed fleet %v (same-instant capacity must not delay starts)",
			warm.P99Wait, fixed.P99Wait)
	}
	if warm.NodeSeconds >= fixed.NodeSeconds {
		return Section{}, fmt.Errorf("elasticity: warm pool bill %.2f node-seconds not below fixed fleet %.2f",
			warm.NodeSeconds, fixed.NodeSeconds)
	}

	return Section{Table: t, Lines: []string{"", fmt.Sprintf(
		"warm pool: %.1f%% of the fixed-fleet bill at identical p99 wait (%v); cold pool trades %v of p99 for provisioning",
		100*warm.NodeSeconds/fixed.NodeSeconds, fixed.P99Wait, cold.P99Wait-fixed.P99Wait)}}, nil
}
