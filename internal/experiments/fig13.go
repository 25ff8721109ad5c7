package experiments

import (
	"fmt"
	"sort"
	"strings"

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
func fig13(o Options) (string, error) {
	o = o.normalized()
	specs := heterogeneousNodes()
	names := []string{"node I (K20m)", "node II (GTX980+TitanXp)", "node III (2xRTX2080Ti)", "node IV (GTXTitan+TitanXp)"}
	var b strings.Builder
	for _, s := range AllSetups(o) {
		t := report.NewTable(
			fmt.Sprintf("Fig 13 (%s): heterogeneous throughput (pairs/second)", s.Name),
			"platform", "throughput", "runtime")
		var sum float64
		for i, spec := range specs {
			cl, err := cluster.New([]cluster.NodeSpec{spec}, cluster.DefaultConfig())
			if err != nil {
				return "", err
			}
			m, err := s.run(cl, nil)
			if err != nil {
				return "", fmt.Errorf("%s %s: %w", s.Name, names[i], err)
			}
			sum += m.Throughput()
			t.AddRow(names[i], m.Throughput(), m.Runtime.String())
		}
		t.AddRow("sum of nodes", sum, "")
		cl, err := cluster.New(specs, cluster.DefaultConfig())
		if err != nil {
			return "", err
		}
		m, err := s.run(cl, func(cfg *core.Config) { cfg.DistCache = true })
		if err != nil {
			return "", fmt.Errorf("%s combined: %w", s.Name, err)
		}
		t.AddRow("all (4 nodes, 7 GPUs)", m.Throughput(), m.Runtime.String())
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// fig14 reproduces Fig. 14: per-GPU processing throughput over time for
// the microscopy application on the heterogeneous platform. Expected
// shape: every GPU sustains a steady rate proportional to its capability,
// all GPUs stay busy until the end (work-stealing balance), and all
// finish at roughly the same time.
func fig14(o Options) (string, error) {
	o = o.normalized()
	s := microscopySetup(o)
	cl, err := cluster.New(heterogeneousNodes(), cluster.DefaultConfig())
	if err != nil {
		return "", err
	}
	m, err := s.run(cl, func(cfg *core.Config) {
		cfg.DistCache = true
		cfg.ThroughputWindow = sim.Minute
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## Fig 14 (%s): per-GPU throughput over time (pairs/s, 1-minute buckets)\n", s.Name)
	fmt.Fprintf(&b, "run time: %v over %d GPUs\n", m.Runtime, len(m.DeviceIDs))
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
		fmt.Fprintf(&b, "%-14s mean %.2f pairs/s | ", id, mean)
		for _, r := range rates {
			b.WriteByte(sparkChar(r, rates))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
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
