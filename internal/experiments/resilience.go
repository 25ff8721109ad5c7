package experiments

import (
	"fmt"

	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// resilienceNodes is the platform size of the resilience sweep.
const resilienceNodes = 8

// resilience proves the paper's §4.2 robustness claim end to end under
// injected faults: work stealing plus the replicated multi-level cache
// keep the all-pairs computation running — and completing correctly —
// through node crashes, restarts, straggler GPUs, and degraded or
// partitioned links. The sweep runs the forensics workload on 8 DAS-5
// nodes with the distributed cache enabled, first failure-free (the
// baseline) and then under a ladder of deterministic fault schedules
// whose event times are fractions of the baseline runtime. Reported per
// scenario: completion-time inflation vs the baseline, the work recovered
// by steal-based crash recovery, and the fabric messages dropped and
// resolved as failures. Every scenario completes all pairs; inflation
// stays far below the lost capacity share because survivors re-steal the
// dead nodes' regions immediately.
func resilience(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	mutate := func(cfg *core.Config) { cfg.DistCache = true }

	base, err := s.runDAS5(resilienceNodes, mutate)
	if err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	t0 := base.Runtime
	frac := func(f float64) sim.Time { return sim.Time(f * float64(t0)) }

	scenarios := []struct {
		name  string
		sched *fault.Schedule
	}{
		{"failure-free", nil},
		{"crash 1/8 @25%", new(fault.Schedule).
			Crash(7, frac(0.25))},
		{"crash 2/8 @20,45%", new(fault.Schedule).
			Crash(7, frac(0.20)).
			Crash(6, frac(0.45))},
		{"crash 4/8 @15-60%", new(fault.Schedule).
			Crash(7, frac(0.15)).
			Crash(6, frac(0.30)).
			Crash(5, frac(0.45)).
			Crash(4, frac(0.60))},
		{"crash 2/8, restart @60%", new(fault.Schedule).
			Crash(7, frac(0.20)).
			Crash(6, frac(0.35)).
			Restart(7, frac(0.60)).
			Restart(6, frac(0.60))},
		{"straggler gpu x4 @20-70%", new(fault.Schedule).
			SlowGPU(1, 0, frac(0.20), 4).
			RestoreGPU(1, 0, frac(0.70))},
		{"link 0-7 cut @20-60%", new(fault.Schedule).
			CutLink(0, 7, frac(0.20)).
			RestoreLink(0, 7, frac(0.60))},
		{"link 0-7 degraded x8 @20%", new(fault.Schedule).
			DegradeLink(0, 7, frac(0.20), 8, 8)},
	}

	t := report.NewTable(
		fmt.Sprintf("Resilience: forensics on %d nodes, fault sweep vs failure-free baseline", resilienceNodes),
		"scenario", "runtime", "inflation", "pairs", "recovered", "dropped", "remote", "failed", "R")
	for _, sc := range scenarios {
		m := base
		if sc.sched != nil {
			m, err = s.runDAS5(resilienceNodes, func(cfg *core.Config) {
				mutate(cfg)
				cfg.Faults = sc.sched
			})
			if err != nil {
				return "", fmt.Errorf("%s: %w", sc.name, err)
			}
		}
		t.AddRow(
			sc.name,
			m.Runtime.Seconds(),
			fmt.Sprintf("%.3fx", float64(m.Runtime)/float64(t0)),
			m.Pairs,
			m.RecoveredPairs,
			m.DroppedMessages,
			m.RemoteSteals,
			m.FailedSteals,
			m.R,
		)
	}
	return t.String(), nil
}
