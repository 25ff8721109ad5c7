package experiments

import (
	"fmt"
	"strings"

	"rocket/internal/pairs"
	"rocket/internal/report"
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// table1 reproduces Table 1: the characteristics of the three applications
// on a TitanX Maxwell node. Data-set rows are computed from the scaled
// workloads; timing rows are sample statistics of the calibrated cost
// models (mean ± standard deviation over the data set).
func table1(o Options) (string, error) {
	// Table 1 only samples the cost models (no runtime execution), so it
	// always reports paper scale regardless of Options.Scale.
	setups := AllSetups(Options{Scale: 1, Seed: o.Seed})
	t := report.NewTable(
		"Table 1: application characteristics (paper scale, TitanX Maxwell)",
		"characteristic", setups[0].Name, setups[1].Name, setups[2].Name)

	row := func(name string, f func(s Setup) string) {
		vals := make([]interface{}, 0, 4)
		vals = append(vals, name)
		for _, s := range setups {
			vals = append(vals, f(s))
		}
		t.AddRow(vals...)
	}

	row("no. of input files (n)", func(s Setup) string {
		return fmt.Sprintf("%d", s.App.NumItems())
	})
	row("size of raw data on disk", func(s Setup) string {
		var total int64
		for i := 0; i < s.App.NumItems(); i++ {
			total += s.App.FileSize(i)
		}
		return bytesString(total)
	})
	row("size of preprocessed data in memory", func(s Setup) string {
		return bytesString(int64(s.App.NumItems()) * s.App.ItemSize())
	})
	row("no. of pairs", func(s Setup) string {
		return fmt.Sprintf("%d", pairs.TotalPairs(s.App.NumItems()))
	})
	row("total data pair-wise processed", func(s Setup) string {
		return bytesString(2 * pairs.TotalPairs(s.App.NumItems()) * s.App.ItemSize())
	})
	row("cache slot size", func(s Setup) string {
		return bytesString(s.App.ItemSize())
	})
	row("no. device cache slots", func(s Setup) string {
		return fmt.Sprintf("%d", s.DevSlots)
	})
	row("no. host cache slots", func(s Setup) string {
		return fmt.Sprintf("%d", s.HostSlots)
	})
	row("time parse (CPU)", func(s Setup) string {
		return timeStat(s, func(i int) sim.Time { return s.App.ParseTime(i) })
	})
	row("time pre-process (GPU)", func(s Setup) string {
		if s.Costs.Preprocess == 0 {
			return "N/A"
		}
		return timeStat(s, func(i int) sim.Time { return s.App.PreprocessTime(i) })
	})
	row("time comparison (GPU)", func(s Setup) string {
		var sum stats.Summary
		n := s.App.NumItems()
		samples := 0
		for i := 0; i < n && samples < 2000; i++ {
			for j := i + 1; j < n && samples < 2000; j++ {
				sum.Add(s.App.CompareTime(i, j).Millis())
				samples++
			}
		}
		return fmt.Sprintf("%.1f±%.2f ms", sum.Mean(), sum.Std())
	})
	row("time post-process (CPU)", func(s Setup) string { return "0 ms" })

	return t.String(), nil
}

func timeStat(s Setup, f func(int) sim.Time) string {
	var sum stats.Summary
	for i := 0; i < s.App.NumItems(); i++ {
		sum.Add(f(i).Millis())
	}
	return fmt.Sprintf("%.1f±%.2f ms", sum.Mean(), sum.Std())
}

func bytesString(b int64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.1f TB", float64(b)/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.1f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// fig7 reproduces Fig. 7: histograms of the comparison-kernel run times of
// the three applications, confirming forensics is regular while the other
// two are highly irregular.
func fig7(o Options) (string, error) {
	// Histograms sample the cost models directly; paper scale is cheap.
	var b strings.Builder
	for _, s := range AllSetups(Options{Scale: 1, Seed: o.Seed}) {
		mean := s.Costs.Compare.Millis()
		h := stats.NewHistogram(0, 4*mean, 16)
		n := s.App.NumItems()
		samples := 0
		for i := 0; i < n && samples < 20000; i++ {
			for j := i + 1; j < n && samples < 20000; j++ {
				h.Add(s.App.CompareTime(i, j).Millis())
				samples++
			}
		}
		fmt.Fprintf(&b, "## Fig 7 (%s): comparison run time histogram (ms)\n", s.Name)
		b.WriteString(h.Render(40))
		b.WriteByte('\n')
	}
	return b.String(), nil
}
