package sched

import (
	"fmt"
	"sort"
	"strings"

	"rocket/internal/core"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// JobMetrics is the outcome of one job, in submission order within
// Metrics.Jobs.
type JobMetrics struct {
	ID     string
	Tenant string
	App    string
	// Nodes is the leased partition (node IDs of the shared cluster);
	// nil for rejected jobs.
	Nodes []int
	// Rejected marks jobs refused admission by the MaxQueued limit.
	Rejected bool
	// Failed marks jobs whose inner runtime failed under Config.KeepGoing;
	// Error holds the failure. The fleet run carried on without them.
	Failed bool
	Error  string
	// Retries counts requeues after partition loss (fault injection);
	// Start/End/Inner describe the final attempt.
	Retries int

	Arrival sim.Time
	Start   sim.Time
	End     sim.Time
	// Wait is Start - Arrival: queueing delay before placement.
	Wait sim.Time
	// Runtime is the job's service time on its partition.
	Runtime sim.Time

	// Inner is the job's full Rocket runtime metrics.
	Inner *core.Metrics

	// Pair-store provenance: the dataset namespace the job ran under,
	// the version it computed, and the resident prefix it was planned
	// against (all zero for jobs without store participation). Hit, miss
	// and put counts are in Inner.
	StoreRef       string
	DatasetVersion int
	BaseItems      int
}

// TenantMetrics aggregates one tenant's jobs.
type TenantMetrics struct {
	Tenant      string
	Jobs        int
	Rejected    int
	Failed      int
	NodeSeconds float64
	MeanWait    sim.Time
}

// Metrics is the fleet-wide outcome of one scheduler run.
type Metrics struct {
	Policy     Policy
	TotalNodes int

	// Jobs holds per-job outcomes in submission order.
	Jobs []JobMetrics
	// Tenants holds per-tenant aggregates sorted by tenant name.
	Tenants []TenantMetrics

	Completed int
	Rejected  int
	// Failed counts jobs whose inner runtime failed under KeepGoing.
	Failed int
	// Retries totals partition-loss requeues across all jobs.
	Retries int

	// Makespan is the completion time of the last job.
	Makespan sim.Time
	// MeanWait and MaxWait summarize queueing delay over completed jobs.
	MeanWait sim.Time
	MaxWait  sim.Time
	// Utilization is leased node-time over total node-time within the
	// makespan, in [0, 1].
	Utilization float64
	// JobsPerHour is completed jobs per virtual hour of makespan.
	JobsPerHour float64

	// Pairs, NetBytes, and IOBytes aggregate the inner runs.
	Pairs    uint64
	NetBytes int64
	IOBytes  int64

	// StoreHits, StoreMisses, and StorePuts aggregate pair-store
	// outcomes over completed jobs: pairs served instead of computed,
	// planned-resident pairs recomputed, and results emitted.
	StoreHits   uint64
	StoreMisses uint64
	StorePuts   uint64

	// P99Wait is the 99th-percentile queueing delay over completed jobs
	// (the max for fleets under 100 completions).
	P99Wait sim.Time
	// NodeSeconds is the capacity bill: active node-time within the
	// makespan. Fixed fleets pay TotalNodes for the whole run; elastic
	// fleets pay each slot only while it is provisioned.
	NodeSeconds float64
	// Elastic marks autoscaled runs; the fields below are zero otherwise.
	Elastic    bool
	ScaleUps   int
	ScaleDowns int
	// PeakNodes is the largest concurrently-usable node count observed.
	PeakNodes int
}

// aggregate folds the jobs' records into the fleet metrics. pool is the
// elastic slot tracker (nil for fixed fleets).
func aggregate(cfg Config, states []*jobState, pool *elasticPool) *Metrics {
	m := &Metrics{Policy: cfg.Policy, TotalNodes: cfg.Nodes}
	tenants := make(map[string]*TenantMetrics)
	tenantWaits := make(map[string]sim.Time)
	var waitSum sim.Time
	var waits []sim.Time
	var leasedSeconds float64
	for _, js := range states {
		jm := js.metrics()
		m.Jobs = append(m.Jobs, jm)
		m.Retries += jm.Retries
		t := tenants[jm.Tenant]
		if t == nil {
			t = &TenantMetrics{Tenant: jm.Tenant}
			tenants[jm.Tenant] = t
		}
		t.Jobs++
		if jm.Rejected {
			m.Rejected++
			t.Rejected++
			continue
		}
		// A failed job held its lease from start to abort: charge the
		// occupancy but keep it out of the completion statistics.
		nodeSecs := float64(len(jm.Nodes)) * jm.Runtime.Seconds()
		t.NodeSeconds += nodeSecs
		leasedSeconds += nodeSecs
		if jm.End > m.Makespan {
			m.Makespan = jm.End
		}
		if jm.Failed {
			m.Failed++
			t.Failed++
			continue
		}
		m.Completed++
		m.Pairs += jm.Inner.Pairs
		m.NetBytes += jm.Inner.NetBytes
		m.IOBytes += jm.Inner.IOBytes
		m.StoreHits += jm.Inner.StoreHits
		m.StoreMisses += jm.Inner.StoreMisses
		m.StorePuts += jm.Inner.StorePuts
		waitSum += jm.Wait
		waits = append(waits, jm.Wait)
		tenantWaits[jm.Tenant] += jm.Wait
		if jm.Wait > m.MaxWait {
			m.MaxWait = jm.Wait
		}
	}
	if m.Completed > 0 {
		m.MeanWait = waitSum / sim.Time(m.Completed)
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		m.P99Wait = waits[(len(waits)*99)/100]
	}
	if m.Makespan > 0 {
		m.Utilization = leasedSeconds / (float64(m.TotalNodes) * m.Makespan.Seconds())
		m.JobsPerHour = float64(m.Completed) / (m.Makespan.Seconds() / 3600)
	}
	m.NodeSeconds = float64(m.TotalNodes) * m.Makespan.Seconds()
	if pool != nil {
		pool.finish(m.Makespan)
		m.Elastic = true
		m.NodeSeconds = pool.nodeSeconds
		m.ScaleUps = pool.scaleUps
		m.ScaleDowns = pool.scaleDowns
		m.PeakNodes = pool.peak
	}
	for name, t := range tenants {
		if done := t.Jobs - t.Rejected - t.Failed; done > 0 {
			t.MeanWait = tenantWaits[name] / sim.Time(done)
		}
		m.Tenants = append(m.Tenants, *t)
	}
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Tenant < m.Tenants[j].Tenant })
	return m
}

// Report renders the fleet outcome as the throughput/latency tables that
// `rocket queue` prints.
func (m *Metrics) Report() string {
	var b strings.Builder
	jobs := report.NewTable(
		fmt.Sprintf("rocketd: %d jobs on %d shared nodes, policy %s", len(m.Jobs), m.TotalNodes, m.Policy),
		"job", "tenant", "app", "nodes", "arrival", "wait", "runtime", "end")
	for _, j := range m.Jobs {
		if j.Rejected {
			jobs.AddRow(j.ID, j.Tenant, j.App, "-", j.Arrival.String(), "rejected", "-", "-")
			continue
		}
		if j.Failed {
			jobs.AddRow(j.ID, j.Tenant, j.App, len(j.Nodes),
				j.Arrival.String(), j.Wait.String(), "failed", j.End.String())
			continue
		}
		jobs.AddRow(j.ID, j.Tenant, j.App, len(j.Nodes),
			j.Arrival.String(), j.Wait.String(), j.Runtime.String(), j.End.String())
	}
	b.WriteString(jobs.String())
	b.WriteByte('\n')

	tenants := report.NewTable("per-tenant", "tenant", "jobs", "rejected", "node-seconds", "mean wait")
	for _, t := range m.Tenants {
		tenants.AddRow(t.Tenant, t.Jobs, t.Rejected, t.NodeSeconds, t.MeanWait.String())
	}
	b.WriteString(tenants.String())
	b.WriteByte('\n')

	failed := ""
	if m.Failed > 0 {
		failed = fmt.Sprintf(", %d failed", m.Failed)
	}
	fmt.Fprintf(&b, "completed %d/%d jobs (%d rejected%s) | makespan %v | mean wait %v | max wait %v\n",
		m.Completed, len(m.Jobs), m.Rejected, failed, m.Makespan, m.MeanWait, m.MaxWait)
	fmt.Fprintf(&b, "utilization %.1f%% | %.1f jobs/hour | %d pairs | %.2f GB net | %.2f GB I/O\n",
		100*m.Utilization, m.JobsPerHour, m.Pairs,
		float64(m.NetBytes)/1e9, float64(m.IOBytes)/1e9)
	// Store provenance only for fleets that touched the pair store, so
	// storeless reports (and their goldens) are unchanged.
	if m.StoreHits > 0 || m.StoreMisses > 0 || m.StorePuts > 0 {
		fmt.Fprintf(&b, "pairstore: %d pairs served, %d recomputed, %d emitted\n",
			m.StoreHits, m.StoreMisses, m.StorePuts)
	}
	// Autoscaler summary only for elastic fleets, so fixed-fleet reports
	// (and their goldens) are unchanged.
	if m.Elastic {
		fixed := float64(m.TotalNodes) * m.Makespan.Seconds()
		fmt.Fprintf(&b, "autoscaler: %.2f node-seconds (fixed fleet %.2f) | p99 wait %v | peak %d nodes | %d up / %d down\n",
			m.NodeSeconds, fixed, m.P99Wait, m.PeakNodes, m.ScaleUps, m.ScaleDowns)
	}
	return b.String()
}
