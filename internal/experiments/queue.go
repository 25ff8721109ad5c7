package experiments

import (
	"fmt"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/apps/phylo"
	"rocket/internal/report"
	"rocket/internal/sched"
	"rocket/internal/sim"
)

// queueNodes is the shared-cluster size of the queue-scaling experiment:
// wide batch jobs take half of it, so narrow interactive jobs always have
// nodes they could run on if the policy lets them through.
const queueNodes = 8

// queueMix builds the skewed two-tenant workload the scheduler evaluation
// uses, sized for a shared cluster of the given node count: tenant
// "batch" front-loads wide, long microscopy jobs (every 4th job, half
// the cluster each, arriving at t=0; microscopy comparisons cost ~564 ms
// each, so these run for tens of virtual seconds), while tenant
// "interactive" trickles in narrow, short forensics and bioinformatics
// jobs (1 node, one per millisecond, ~ms comparisons). Under FIFO the
// batch jobs at the head of the queue block the interactive ones even
// while half the cluster idles; SJF and fair-share let them through,
// which is exactly the difference the experiment measures.
func queueMix(jobs, nodes int, o Options) []sched.Job {
	o = o.normalized()
	batchNodes := nodes / 2
	if batchNodes < 1 {
		batchNodes = 1
	}
	bigN := 240 / o.Scale
	if bigN < 12 {
		bigN = 12
	}
	smallN := 80 / o.Scale
	if smallN < 8 {
		smallN = 8
	}
	out := make([]sched.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		switch i % 4 {
		case 0:
			out = append(out, sched.Job{
				ID:     fmt.Sprintf("batch%d", i),
				Tenant: "batch",
				App:    microscopy.New(microscopy.Params{N: bigN, Seed: o.Seed + uint64(i)}),
				Nodes:  batchNodes,
			})
		case 1, 3:
			out = append(out, sched.Job{
				ID:      fmt.Sprintf("inter%d", i),
				Tenant:  "interactive",
				App:     forensics.New(forensics.Params{N: smallN, Seed: o.Seed + uint64(i)}),
				Nodes:   1,
				Arrival: sim.Millis(float64(i)),
			})
		default:
			out = append(out, sched.Job{
				ID:      fmt.Sprintf("inter%d", i),
				Tenant:  "interactive",
				App:     phylo.New(phylo.Params{N: smallN, Seed: o.Seed + uint64(i)}),
				Nodes:   1,
				Arrival: sim.Millis(float64(i)),
			})
		}
	}
	return out
}

// queueScaling evaluates the rocketd scheduler: job count x policy over
// the skewed queueMix workload on one shared cluster, reporting makespan,
// mean/max wait, utilization, and job throughput per cell. Expected
// shape: makespan is policy-insensitive (the same work runs either way),
// while mean wait drops sharply from FIFO to SJF/fair-share because
// narrow interactive jobs stop queueing behind wide batch jobs.
func queueScaling(o Options) (Result, error) {
	o = o.normalized()
	t := report.NewTable(
		fmt.Sprintf("queue-scaling: skewed job mix on %d shared nodes", queueNodes),
		"jobs", "policy", "makespan", "mean wait", "max wait", "util %", "jobs/hour")
	meanWait := make(map[string]sim.Time)
	for _, jobs := range []int{8, 16, 32} {
		for _, p := range sched.Policies() {
			m, err := sched.Run(sched.Config{
				Jobs:   queueMix(jobs, queueNodes, o),
				Nodes:  queueNodes,
				Policy: p,
				Seed:   o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("queue-scaling %d/%s: %w", jobs, p, err)
			}
			meanWait[fmt.Sprintf("%d/%s", jobs, p)] = m.MeanWait
			t.AddRow(jobs, p, m.Makespan, m.MeanWait,
				m.MaxWait, 100*m.Utilization, m.JobsPerHour)
		}
	}
	sec := Section{Table: t}
	fifo, fair := meanWait["32/fifo"], meanWait["32/fair"]
	if fair > 0 {
		sec.Lines = []string{fmt.Sprintf("fair-share mean wait at 32 jobs: %v vs FIFO %v (%.1fx lower)",
			fair, fifo, float64(fifo)/float64(fair))}
	}
	return Result{sec}, nil
}
