package experiments

import (
	"fmt"
	"sort"
)

// Experiment is one runnable evaluation artefact.
type Experiment struct {
	// ID is the short identifier used by the CLI and bench names, e.g.
	// "fig12".
	ID string
	// Paper names the corresponding paper artefact.
	Paper string
	// Description summarizes what is measured.
	Description string
	// Run executes the experiment and returns the rendered report.
	Run func(Options) (string, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1", "application characteristics and stage timings", Table1},
		{"fig6", "Fig. 6", "profiling trace timeline and overlap evidence", Fig6},
		{"fig7", "Fig. 7", "comparison-kernel run-time histograms", Fig7},
		{"fig8", "Fig. 8", "per-thread busy time vs T_min, one node", Fig8},
		{"fig9", "Fig. 9", "efficiency and R vs local cache size", Fig9},
		{"fig10", "Fig. 10", "forensics thread busy time vs host cache size", Fig10},
		{"fig11", "Fig. 11", "distributed-cache hits per hop, h=3, 16 nodes", Fig11},
		{"fig12", "Fig. 12", "speedup/efficiency/R/IO scaling to 16 nodes", Fig12},
		{"fig13", "Fig. 13", "heterogeneous platform throughput", Fig13},
		{"fig14", "Fig. 14", "per-GPU throughput over time (microscopy)", Fig14},
		{"fig15", "Fig. 15", "Cartesius scaling to 96 GPUs (bioinformatics)", Fig15},
		{"ablation-leaf", "—", "leaf task size sweep", AblationLeafSize},
		{"ablation-joblimit", "—", "concurrent-job limit sweep", AblationJobLimit},
		{"ablation-steal", "—", "hierarchical vs flat victim selection", AblationStealPolicy},
		{"ablation-hops", "—", "distributed-cache hop-limit sweep", AblationHops},
		{"ablation-eviction", "—", "LRU vs random cache eviction", AblationEviction},
		{"ablation-prewarm", "—", "persistent-cache prewarm fraction sweep", AblationPrewarm},
		{"ablation-backoff", "—", "steal backoff sweep", AblationBackoff},
		{"queue-scaling", "—", "rocketd scheduler: job count x policy sweep", QueueScaling},
		{"resilience", "—", "fault sweep: completion-time inflation vs failure-free", Resilience},
		{"incremental", "—", "pairstore warm start: append-ratio sweep vs full recompute", Incremental},
		{"chaos", "—", "seeded chaos storm over the fleet", Chaos},
		{"elasticity", "—", "elastic fleet under churn + autoscaler node-hours vs p99 wait", Elasticity},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids)
}
