package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rocket/internal/report"
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
	// Run executes the experiment and returns its tables and text.
	Run func(Options) (Result, error)
}

// Result is what an experiment returns: its tables in report order, each
// followed by the text lines printed under it.
type Result []Section

// Section is one table of a Result and the lines printed after it. A
// section without a table is a titled block of text.
type Section struct {
	Title string // printed when Table is nil
	Table *report.Table
	Lines []string
}

// String renders the result: each table (or title), then its lines, one
// per line.
func (r Result) String() string {
	var b strings.Builder
	for _, s := range r {
		if s.Table != nil {
			b.WriteString(s.Table.String())
		} else {
			b.WriteString("## " + s.Title + "\n")
		}
		for _, l := range s.Lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1", "application characteristics and stage timings", table1},
		{"fig6", "Fig. 6", "profiling trace timeline and overlap evidence", fig6},
		{"fig7", "Fig. 7", "comparison-kernel run-time histograms", fig7},
		{"fig8", "Fig. 8", "per-thread busy time vs T_min, one node", fig8},
		{"fig9", "Fig. 9", "efficiency and R vs local cache size", fig9},
		{"fig10", "Fig. 10", "forensics thread busy time vs host cache size", fig10},
		{"fig11", "Fig. 11", "distributed-cache hits per hop, h=3, 16 nodes", fig11},
		{"fig12", "Fig. 12", "speedup/efficiency/R/IO scaling to 16 nodes", fig12},
		{"fig13", "Fig. 13", "heterogeneous platform throughput", fig13},
		{"fig14", "Fig. 14", "per-GPU throughput over time (microscopy)", fig14},
		{"fig15", "Fig. 15", "Cartesius scaling to 96 GPUs (bioinformatics)", fig15},
		{"ablation-leaf", "—", "leaf task size sweep", ablationLeafSize},
		{"ablation-joblimit", "—", "concurrent-job limit sweep", ablationJobLimit},
		{"ablation-steal", "—", "hierarchical vs flat victim selection", ablationStealPolicy},
		{"ablation-hops", "—", "distributed-cache hop-limit sweep", ablationHops},
		{"ablation-eviction", "—", "LRU vs random cache eviction", ablationEviction},
		{"ablation-prewarm", "—", "persistent-cache prewarm fraction sweep", ablationPrewarm},
		{"ablation-backoff", "—", "steal backoff sweep", ablationBackoff},
		{"queue-scaling", "—", "rocketd scheduler: job count x policy sweep", queueScaling},
		{"resilience", "—", "fault sweep: completion-time inflation vs failure-free", resilience},
		{"incremental", "—", "pairstore warm start: append-ratio sweep vs full recompute", incremental},
		{"chaos", "—", "seeded chaos storm over the fleet", chaos},
		{"elasticity", "—", "elastic fleet under churn + autoscaler node-hours vs p99 wait", elasticity},
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
