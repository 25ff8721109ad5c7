package experiments

import (
	"fmt"

	"rocket/internal/fault"
	"rocket/internal/fleet"
	"rocket/internal/report"
	"rocket/internal/sim"
)

// chaos runs a seeded fault storm — independent crashes with recoveries,
// straggler windows, link cuts and degradations, a cascading failure, and
// a full zone outage — against the fleet workload. The storm is sampled
// by fault.ChaosConfig from the experiment seed, so the whole exercise is
// replayable (chaos schedules collide on timestamps on purpose, and the
// injector's tie-break makes that deterministic); the report lists the
// run summary and the storm's composition.
func chaos(o Options) (string, error) {
	o = o.normalized()
	nodes := 2048 / o.Scale
	if nodes < 64 {
		nodes = 64
	}
	cc := fault.ChaosConfig{
		Seed:     o.Seed,
		Nodes:    nodes,
		Duration: sim.Millis(20),
		Zones:    8,

		CrashFraction:   0.05,
		RestartFraction: 0.5,
		MinDowntime:     sim.Millis(3),
		MaxDowntime:     sim.Millis(8),

		StragglerFraction: 0.03,
		StragglerFactor:   6,
		StragglerWindow:   sim.Millis(5),

		LinkFaults:          8,
		LinkCutFraction:     0.5,
		LinkWindow:          sim.Millis(4),
		LinkLatencyFactor:   10,
		LinkBandwidthFactor: 10,

		CascadeCount:   1,
		CascadeSize:    8,
		CascadeSpacing: sim.Micros(250),

		ZoneOutages:        1,
		ZoneOutageDuration: sim.Millis(5),
	}
	storm, err := cc.Generate()
	if err != nil {
		return "", err
	}

	byKind := map[fault.EventKind]int{}
	for _, ev := range storm.Events {
		byKind[ev.Kind]++
	}

	cfg := fleet.DefaultConfig(nodes)
	cfg.Seed = o.Seed
	cfg.Duration = cc.Duration
	cfg.Faults = storm

	r, err := fleet.Run(cfg)
	if err != nil {
		return "", err
	}

	t := report.NewTable(
		fmt.Sprintf("Chaos storm: fleet of %d nodes, %v, %d fault events (seed %d)",
			nodes, cfg.Duration, len(storm.Events), o.Seed),
		"events", "msgs", "dropped", "heartbeats", "work", "state hash")
	t.AddRow(r.Events, r.Messages, r.Dropped, r.Heartbeats, r.WorkDone, fmt.Sprintf("%016x", r.StateHash))
	out := t.String()
	out += fmt.Sprintf("storm: crashes=%d restarts=%d gpu=%d link-down=%d link-up=%d link-degrade=%d\n",
		byKind[fault.NodeCrash], byKind[fault.NodeRestart], byKind[fault.GPUSlowdown],
		byKind[fault.LinkDown], byKind[fault.LinkUp], byKind[fault.LinkDegrade])
	out += fmt.Sprintf("run: %s\n", r)
	return out, nil
}
