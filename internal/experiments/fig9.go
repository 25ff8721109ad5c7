package experiments

import (
	"fmt"

	"rocket/internal/core"
	"rocket/internal/report"
)

// fig9 reproduces Fig. 9: system efficiency and the relative number of
// loads R as functions of the total local cache size on one node. Below
// the device-memory limit the host cache is disabled and only the device
// cache shrinks; above it, the device cache is fixed at its capacity and
// the host cache grows. Expected shapes: microscopy is insensitive (its
// data set always fits); forensics and bioinformatics degrade gracefully,
// with R roughly inversely proportional to cache size.
func fig9(o Options) (Result, error) {
	o = o.normalized()
	var r Result
	for _, s := range AllSetups(o) {
		points := fig9Points(s)
		metrics := make([]*core.Metrics, len(points))
		err := o.forEach(len(points), func(i int) error {
			devSlots, hostSlots := points[i][0], points[i][1]
			m, err := s.runDAS5(1, func(cfg *core.Config) {
				cfg.DeviceSlots = devSlots
				if hostSlots == 0 {
					cfg.HostSlots = -1
				} else {
					cfg.HostSlots = hostSlots
				}
			})
			if err != nil {
				return fmt.Errorf("%s slots=%v: %w", s.Name, points[i], err)
			}
			metrics[i] = m
			return nil
		})
		if err != nil {
			return nil, err
		}
		t := report.NewTable(
			fmt.Sprintf("Fig 9 (%s): efficiency and R vs cache size", s.Name),
			"slots(dev+host)", "regime", "efficiency", "R", "loads")
		for i, m := range metrics {
			devSlots, hostSlots := points[i][0], points[i][1]
			regime := "device-limit"
			if hostSlots > 0 {
				regime = "host-limit"
			}
			t.AddRow(
				fmt.Sprintf("%d+%d", devSlots, hostSlots),
				regime,
				report.Percent(100*s.Efficiency(m, 1)),
				m.R,
				m.Loads,
			)
		}
		r = append(r, Section{Table: t, Lines: []string{""}})
	}
	return r, nil
}

// fig9Points returns (deviceSlots, hostSlots) sweep points: first the
// device-limit regime (host cache disabled, shrinking device cache), then
// the host-limit regime (device cache at capacity, growing host cache).
func fig9Points(s Setup) [][2]int {
	var pts [][2]int
	seen := map[[2]int]bool{}
	add := func(p [2]int) {
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	for _, f := range []float64{0.1, 0.25, 0.5, 1} {
		d := int(float64(s.DevSlots) * f)
		if d < 4 {
			d = 4
		}
		add([2]int{d, 0})
	}
	for _, f := range []float64{0.25, 0.5, 1} {
		h := int(float64(s.HostSlots) * f)
		if h < 4 {
			h = 4
		}
		add([2]int{s.DevSlots, h})
	}
	return pts
}
