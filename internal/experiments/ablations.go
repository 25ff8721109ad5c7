package experiments

import (
	"fmt"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/gpu"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// ablationLeafSize measures the effect of the divide-and-conquer leaf
// threshold (pairs per leaf task) on the forensics workload across 4
// nodes. Tiny leaves stress scheduling overhead; huge leaves reduce
// stealable parallelism.
func ablationLeafSize(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	t := report.NewTable("Ablation: leaf size (forensics, 4 nodes)",
		"leaf pairs", "runtime", "remote steals", "failed steals", "R")
	for _, leaf := range []int64{1, 4, 16, 64, 256} {
		leaf := leaf
		m, err := s.runDAS5(4, func(cfg *core.Config) {
			cfg.DistCache = true
			cfg.LeafPairs = leaf
		})
		if err != nil {
			return "", fmt.Errorf("leaf=%d: %w", leaf, err)
		}
		t.AddRow(leaf, m.Runtime.String(), m.RemoteSteals, m.FailedSteals, m.R)
	}
	return t.String(), nil
}

// ablationJobLimit measures the effect of the concurrent-job limit (the
// paper's back-pressure knob, §4.2) on the bioinformatics workload on one
// node: too few jobs in flight cannot hide cache-miss latency; the
// asynchronous design needs enough jobs to "anticipate" misses (§4.3).
func ablationJobLimit(o Options) (string, error) {
	o = o.normalized()
	s := PhyloSetup(o)
	t := report.NewTable("Ablation: concurrent job limit (bioinformatics, 1 node)",
		"job limit", "runtime", "efficiency", "R")
	for _, limit := range []int{1, 2, 4, 8, 16} {
		limit := limit
		m, err := s.runDAS5(1, func(cfg *core.Config) {
			cfg.ConcurrentJobs = limit
		})
		if err != nil {
			return "", fmt.Errorf("limit=%d: %w", limit, err)
		}
		t.AddRow(m.JobLimit, m.Runtime.String(),
			fmt.Sprintf("%.1f%%", 100*s.Efficiency(m, 1)), m.R)
	}
	return t.String(), nil
}

// ablationStealPolicy compares the paper's hierarchical victim selection
// (same-node workers first, then random remote) against flat
// uniform-random selection and against the §7 future-work cache-aware
// extension (steal requests carry the thief's working set; victims hand
// over the best-overlapping task), on the data-intensive forensics
// workload across 4 two-GPU nodes without the distributed cache, where
// post-steal reuse matters most (victims with several deques give the
// cache-aware policy an actual choice of task).
func ablationStealPolicy(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	policies := []struct {
		name string
		pol  core.StealPolicy
	}{
		{"hierarchical", core.StealHierarchical},
		{"flat-random", core.StealFlat},
		{"cache-aware", core.StealCacheAware},
	}
	specs := make([]cluster.NodeSpec, 4)
	for i := range specs {
		specs[i] = cluster.NodeSpec{
			Cores:          16,
			HostCacheBytes: 40 * gpu.GiB,
			GPUs:           []gpu.Model{gpu.TitanXMaxwell, gpu.TitanXMaxwell},
		}
	}
	t := report.NewTable("Ablation: steal policy (forensics, 4 nodes x 2 GPUs, no distributed cache)",
		"policy", "runtime", "R", "local steals", "remote steals", "failed steals")
	for _, pc := range policies {
		pc := pc
		cl, err := clusterFromSpecs(specs)
		if err != nil {
			return "", err
		}
		m, err := s.run(cl, func(cfg *core.Config) {
			cfg.StealPolicy = pc.pol
		})
		if err != nil {
			return "", fmt.Errorf("policy=%s: %w", pc.name, err)
		}
		t.AddRow(pc.name, m.Runtime.String(), m.R, m.LocalSteals, m.RemoteSteals, m.FailedSteals)
	}
	return t.String(), nil
}

// ablationHops sweeps the distributed-cache hop limit h on 16 nodes for
// the forensics workload, extending Fig. 11 with end-to-end effects.
func ablationHops(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	hops := []int{1, 2, 3}
	metrics := make([]*core.Metrics, len(hops))
	err := o.forEach(len(hops), func(i int) error {
		m, err := s.runDAS5(16, func(cfg *core.Config) {
			cfg.DistCache = true
			cfg.Hops = hops[i]
		})
		if err != nil {
			return fmt.Errorf("h=%d: %w", hops[i], err)
		}
		metrics[i] = m
		return nil
	})
	if err != nil {
		return "", err
	}
	t := report.NewTable("Ablation: distributed-cache hops (forensics, 16 nodes)",
		"h", "runtime", "R", "hit rate", "net GB")
	for i, m := range metrics {
		h := hops[i]
		var hits uint64
		for _, v := range m.DHT.HitAtHop {
			hits += v
		}
		rate := 0.0
		if m.DHT.Requests > 0 {
			rate = float64(hits) / float64(m.DHT.Requests)
		}
		t.AddRow(h, m.Runtime.String(), m.R,
			fmt.Sprintf("%.1f%%", 100*rate), float64(m.NetBytes)/1e9)
	}
	return t.String(), nil
}

// ablationEviction compares LRU eviction (the paper's §4.1.1 policy)
// against random eviction on the data-intensive forensics workload.
// Expected shape: LRU yields lower R (and thus a shorter run) because the
// divide-and-conquer traversal revisits recently used items.
func ablationEviction(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	t := report.NewTable("Ablation: cache eviction policy (forensics, 1 node)",
		"policy", "runtime", "R", "efficiency")
	for _, random := range []bool{false, true} {
		random := random
		m, err := s.runDAS5(1, func(cfg *core.Config) {
			cfg.EvictRandom = random
		})
		if err != nil {
			return "", fmt.Errorf("random=%v: %w", random, err)
		}
		name := "LRU"
		if random {
			name = "random"
		}
		t.AddRow(name, m.Runtime.String(), m.R,
			fmt.Sprintf("%.1f%%", 100*s.Efficiency(m, 1)))
	}
	return t.String(), nil
}

// ablationBackoff sweeps the steal backoff interval on the microscopy
// workload to show the scheduler is robust to this tuning parameter.
func ablationBackoff(o Options) (string, error) {
	o = o.normalized()
	s := microscopySetup(o)
	t := report.NewTable("Ablation: steal backoff (microscopy, 8 nodes)",
		"backoff", "runtime", "failed steals")
	for _, backoff := range []sim.Time{sim.Micros(10), sim.Micros(100), sim.Millis(1), sim.Millis(10)} {
		backoff := backoff
		m, err := s.runDAS5(8, func(cfg *core.Config) {
			cfg.DistCache = true
			cfg.StealBackoff = backoff
		})
		if err != nil {
			return "", fmt.Errorf("backoff=%v: %w", backoff, err)
		}
		t.AddRow(backoff.String(), m.Runtime.String(), m.FailedSteals)
	}
	return t.String(), nil
}

// ablationPrewarm exercises the §7 persistent-cache extension: host
// caches pre-filled with a fraction of the items a previous run left
// behind. Two regimes are measured. With a host cache large enough to
// keep the working set (the persistent-cache scenario), loads fall in
// proportion to the prewarmed fraction. With the normal, too-small cache,
// prewarmed entries are evicted before reuse and the benefit vanishes —
// the quantitative reason persistence only pays off alongside sufficient
// capacity.
func ablationPrewarm(o Options) (string, error) {
	o = o.normalized()
	s := PhyloSetup(o)
	n := s.App.NumItems()
	t := report.NewTable("Ablation: persistent cache prewarm (bioinformatics, 1 node)",
		"host cache", "prewarm", "runtime", "loads", "R")
	for _, big := range []bool{true, false} {
		for _, frac := range []float64{0, 0.5, 1} {
			big, frac := big, frac
			m, err := s.runDAS5(1, func(cfg *core.Config) {
				cfg.PrewarmHost = frac
				if big {
					cfg.HostSlots = n
				}
			})
			if err != nil {
				return "", fmt.Errorf("big=%v prewarm=%v: %w", big, frac, err)
			}
			size := "full data set"
			if !big {
				size = "paper (scaled)"
			}
			t.AddRow(size, fmt.Sprintf("%.0f%%", 100*frac),
				m.Runtime.String(), m.Loads, m.R)
		}
	}
	return t.String(), nil
}
