package experiments

import (
	"fmt"
	"strings"

	"rocket/internal/core"
	"rocket/internal/model"
	"rocket/internal/report"
)

// fig8 reproduces Fig. 8: per-thread-class busy time on one node (TitanX
// Maxwell) for each application, next to the overall run time and the
// modeled lower bound T_min. The expected shape: the GPU bar dominates and
// nearly equals the run time (asynchronous processing overlaps everything
// else), and efficiency is high (94.6% / 88.5% / 99.2% in the paper).
func fig8(o Options) (string, error) {
	o = o.normalized()
	var b strings.Builder
	t := report.NewTable("Fig 8: processing time per thread class, 1 node (values in virtual seconds)",
		"app", "GPU", "GPU:pre", "GPU:cmp", "CPU", "CPU>GPU", "GPU>CPU", "IO", "runtime", "Tmin", "efficiency", "R")
	for _, s := range AllSetups(o) {
		m, err := s.runDAS5(1, nil)
		if err != nil {
			return "", fmt.Errorf("%s: %w", s.Name, err)
		}
		tmin := model.Tmin(s.Costs, s.App.NumItems())
		t.AddRow(
			s.Name,
			m.Phases.Busy(core.ClassGPU).Seconds(),
			m.Phases.BusyPhase(core.PhasePreprocess).Seconds(),
			m.Phases.BusyPhase(core.PhaseCompare).Seconds(),
			m.Phases.Busy(core.ClassCPU).Seconds(),
			m.Phases.Busy(core.ClassH2D).Seconds(),
			m.Phases.Busy(core.ClassD2H).Seconds(),
			m.Phases.Busy(core.ClassIO).Seconds(),
			m.Runtime.Seconds(),
			tmin.Seconds(),
			fmt.Sprintf("%.1f%%", 100*s.Efficiency(m, 1)),
			m.R,
		)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// fig10 reproduces Fig. 10: per-thread busy time of the forensics
// application on one node when the host cache shrinks from 20 GB to 10 GB
// to 5 GB. Expected shape: all bars grow as the cache shrinks, because
// items are re-loaded more often.
func fig10(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	slotMB := float64(s.App.ItemSize()) / 1e6
	t := report.NewTable("Fig 10: forensics thread busy time vs host cache size (virtual seconds)",
		"host cache", "slots", "GPU", "CPU", "CPU>GPU", "GPU>CPU", "IO", "runtime", "R")
	for _, gb := range []float64{20, 10, 5} {
		slots := int(gb * 1000 / slotMB / float64(o.Scale))
		if slots < 4 {
			slots = 4
		}
		m, err := s.runDAS5(1, func(cfg *core.Config) { cfg.HostSlots = slots })
		if err != nil {
			return "", fmt.Errorf("cache %vGB: %w", gb, err)
		}
		t.AddRow(
			fmt.Sprintf("%.0f GB/%d", gb, o.Scale),
			slots,
			m.Phases.Busy(core.ClassGPU).Seconds(),
			m.Phases.Busy(core.ClassCPU).Seconds(),
			m.Phases.Busy(core.ClassH2D).Seconds(),
			m.Phases.Busy(core.ClassD2H).Seconds(),
			m.Phases.Busy(core.ClassIO).Seconds(),
			m.Runtime.Seconds(),
			m.R,
		)
	}
	return t.String(), nil
}
