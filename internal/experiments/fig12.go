package experiments

import (
	"fmt"

	"rocket/internal/core"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// fig12 reproduces Fig. 12: speedup, system efficiency, data reuse R, and
// average I/O usage when scaling from 1 to 16 nodes, with the distributed
// cache enabled and disabled. Expected shapes: microscopy scales near
// linearly regardless; forensics and bioinformatics show super-linear
// speedup with the distributed cache (R drops as aggregate memory grows)
// and sub-linear without it, and their I/O usage grows far slower with
// the distributed cache enabled.
func fig12(o Options) (Result, error) {
	o = o.normalized()
	nodeCounts := []int{1, 2, 4, 8, 16}
	type point struct {
		dist  bool
		nodes int
	}
	var points []point
	for _, dist := range []bool{true, false} {
		for _, nodes := range nodeCounts {
			if nodes == 1 && !dist {
				continue // identical to the dist=true single-node run
			}
			points = append(points, point{dist, nodes})
		}
	}
	var r Result
	for _, s := range AllSetups(o) {
		metrics := make([]*core.Metrics, len(points))
		err := o.forEach(len(points), func(i int) error {
			p := points[i]
			m, err := s.runDAS5(p.nodes, func(cfg *core.Config) {
				cfg.DistCache = p.dist
			})
			if err != nil {
				return fmt.Errorf("%s nodes=%d dist=%v: %w", s.Name, p.nodes, p.dist, err)
			}
			metrics[i] = m
			return nil
		})
		if err != nil {
			return nil, err
		}
		t := report.NewTable(
			fmt.Sprintf("Fig 12 (%s): scaling 1-16 nodes", s.Name),
			"nodes", "distcache", "runtime", "speedup", "efficiency", "R", "IO MB/s")
		var base sim.Time
		for i, m := range metrics {
			p := points[i]
			if p.nodes == 1 {
				base = m.Runtime
			}
			ioRate := float64(m.IOBytes) / 1e6 / m.Runtime.Seconds()
			label := onOff(p.dist)
			if p.nodes == 1 {
				label = "n/a"
			}
			t.AddRow(
				p.nodes,
				label,
				m.Runtime,
				report.Ratio(float64(base)/float64(m.Runtime)),
				report.Percent(100*s.Efficiency(m, float64(p.nodes))),
				m.R,
				ioRate,
			)
		}
		r = append(r, Section{Table: t, Lines: []string{""}})
	}
	return r, nil
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}
