package experiments

import (
	"fmt"

	"rocket/internal/core"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// fig15 reproduces Fig. 15: the large-scale Cartesius experiment — the
// bioinformatics application on all UniProt reference bacteria proteomes
// (6818 files, scaled), from 1 node (2 GPUs) to 48 nodes (96 GPUs).
// Expected shapes: run time dropping from hours to minutes, super-linear
// speedup throughout (the paper reports R dropping 11.8x from 31.9 to 2.7
// between 1 and 48 nodes), and efficiency increasing with node count.
func fig15(o Options) (string, error) {
	o = o.normalized()
	s := cartesiusPhyloSetup(o)
	nodeCounts := []int{1, 8, 16, 32, 48}
	metrics := make([]*core.Metrics, len(nodeCounts))
	speeds := make([]float64, len(nodeCounts))
	err := o.forEach(len(nodeCounts), func(i int) error {
		cl, err := cartesius(nodeCounts[i])
		if err != nil {
			return err
		}
		m, err := s.run(cl, func(cfg *core.Config) {
			cfg.DistCache = true
		})
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", nodeCounts[i], err)
		}
		metrics[i] = m
		speeds[i] = cl.TotalSpeed()
		return nil
	})
	if err != nil {
		return "", err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 15: Cartesius scaling, %s (n=%d, 2 K40m GPUs/node)", s.Name, s.App.NumItems()),
		"nodes", "GPUs", "runtime", "speedup", "R", "efficiency")
	var base sim.Time
	for i, m := range metrics {
		nodes := nodeCounts[i]
		if nodes == nodeCounts[0] {
			base = m.Runtime
		}
		t.AddRow(
			nodes,
			2*nodes,
			m.Runtime.String(),
			fmt.Sprintf("%.2fx", float64(base)/float64(m.Runtime)),
			m.R,
			fmt.Sprintf("%.1f%%", 100*s.Efficiency(m, speeds[i])),
		)
	}
	return t.String(), nil
}
