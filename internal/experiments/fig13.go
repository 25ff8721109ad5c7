package experiments

import (
	"fmt"
	"sort"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// fig13 reproduces Fig. 13: average throughput (pairs per second) of each
// of the four heterogeneous nodes individually, their sum, and the
// combined 4-node run. Expected shape: per-node throughput ordered by GPU
// capability (node III fastest, node I slowest), and the combined run
// matching or exceeding the sum thanks to the distributed cache.
func fig13(o Options) (Result, error) {
	o = o.normalized()
	specs := cluster.PaperTopology()
	names := []string{"node I (K20m)", "node II (GTX980+TitanXp)", "node III (2xRTX2080Ti)", "node IV (GTXTitan+TitanXp)"}
	var r Result
	for _, s := range AllSetups(o) {
		t := report.NewTable(
			fmt.Sprintf("Fig 13 (%s): heterogeneous throughput (pairs/second)", s.Name),
			"platform", "throughput", "runtime")
		var sum float64
		for i, spec := range specs {
			m, err := s.run([]cluster.NodeSpec{spec}, nil)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", s.Name, names[i], err)
			}
			sum += m.Throughput()
			t.AddRow(names[i], m.Throughput(), m.Runtime)
		}
		t.AddRow("sum of nodes", sum, "")
		m, err := s.run(specs, func(cfg *core.Config) { cfg.DistCache = true })
		if err != nil {
			return nil, fmt.Errorf("%s combined: %w", s.Name, err)
		}
		t.AddRow("all (4 nodes, 7 GPUs)", m.Throughput(), m.Runtime)
		r = append(r, Section{Table: t, Lines: []string{""}})
	}
	return r, nil
}

// fig14 reproduces Fig. 14: per-GPU processing throughput over time for
// the microscopy application on the heterogeneous platform. Expected
// shape: every GPU sustains a steady rate proportional to its capability,
// all GPUs stay busy until the end (work-stealing balance), and all
// finish at roughly the same time. It ignores Options.Scale: microscopy
// always runs at paper scale.
func fig14(o Options) (Result, error) {
	o = o.normalized()
	s := microscopySetup(o)
	m, err := s.run(cluster.PaperTopology(), func(cfg *core.Config) {
		cfg.DistCache = true
		cfg.ThroughputWindow = sim.Minute
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Fig 14 (%s): per-GPU throughput over time (pairs/s, 1-minute buckets)", s.Name)
	lines := make([]string, 1, 1+len(m.DeviceIDs))
	lines[0] = fmt.Sprintf("run time: %v over %d GPUs", m.Runtime, len(m.DeviceIDs))
	ids := append([]string(nil), m.DeviceIDs...)
	sort.Strings(ids)
	for _, id := range ids {
		ts := m.DeviceThroughput[id]
		if ts == nil {
			continue
		}
		rates := ts.Rate()
		var mean float64
		for _, r := range rates {
			mean += r
		}
		if len(rates) > 0 {
			mean /= float64(len(rates))
		}
		spark := make([]byte, len(rates))
		for i, r := range rates {
			spark[i] = sparkChar(r, rates)
		}
		lines = append(lines, fmt.Sprintf("%-14s mean %.2f pairs/s | %s", id, mean, spark))
	}
	return Result{{Title: title, Lines: lines}}, nil
}

// sparkChar maps a rate to a 4-level ASCII sparkline character relative to
// the series peak.
func sparkChar(v float64, series []float64) byte {
	var peak float64
	for _, r := range series {
		if r > peak {
			peak = r
		}
	}
	if peak == 0 {
		return '.'
	}
	levels := []byte{'.', '-', '=', '#'}
	i := int(v / peak * 3.999)
	if i < 0 {
		i = 0
	}
	if i > 3 {
		i = 3
	}
	return levels[i]
}
