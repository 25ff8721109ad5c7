package scenario

// Scenario execution. Timed assertions become fault probes armed inside
// virtual time — they observe the simulated world as it evolves, not a
// reconstruction of it — and metric assertions are evaluated against the
// run's deterministic summary. Everything that reaches the report is a
// pure function of (scenario, seed), so the report is byte-identical
// across runs.

import (
	"fmt"
	"sort"

	"rocket"
	"rocket/internal/fault"
	"rocket/internal/jobspec"
)

// RunOptions override scenario fields from the command line.
type RunOptions struct {
	// Seed, when non-zero, replaces the scenario seed.
	Seed uint64
	// Spans, when non-nil, attaches a flight recorder to the run
	// (`rocket trace`'s export path). Recorded timelines inherit the
	// report's determinism: byte-identical across reruns.
	Spans *rocket.SpanRecorder
}

// Run executes the scenario and returns its report. The error return is
// reserved for execution failures (a scenario that cannot run at all);
// assertion failures are reported in Report.Pass, not as errors.
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	seed := sc.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	run := *sc
	run.Seed = seed

	faults, err := run.CompileFaults()
	if err != nil {
		return nil, err
	}

	// Timed assertions become probes; each writes its own result slot
	// (indexed by assertion position). Fleet-mode probe times are validated to sit inside
	// the horizon, and pairs-mode runs drain every scheduled event, so
	// every probe is guaranteed to fire.
	var probes []fault.Probe
	observed := make([]bool, len(run.Asserts))
	for i, a := range run.Asserts {
		if a.Kind != AssertNodeDead && a.Kind != AssertNodeAlive {
			continue
		}
		idx := i
		probes = append(probes, fault.Probe{
			At:   a.At,
			Node: a.Node,
			Fn:   func(alive bool) { observed[idx] = alive },
		})
	}

	rep := &Report{
		Scenario: run.Name,
		Mode:     run.Mode,
		Seed:     seed,
		Faults:   faultTimeline(faults),
	}

	var metrics map[string]float64
	var summary string
	var runErr error
	switch run.Mode {
	case ModeFleet:
		metrics, summary, runErr = runFleet(&run, faults, probes, opts.Spans)
	default:
		metrics, summary, runErr = runPairs(&run, faults, probes, opts.Spans)
	}
	if runErr != nil {
		return nil, runErr
	}
	rep.OutputSHA256 = hashSummary(summary)
	rep.Summary = summary

	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Metrics = append(rep.Metrics, MetricValue{Name: name, Value: metrics[name]})
	}

	rep.Pass = true
	for i, a := range run.Asserts {
		r := AssertionResult{Desc: a.describe(), Pass: true}
		switch a.Kind {
		case AssertNodeDead, AssertNodeAlive:
			r.AtMS = a.At.Seconds() * 1e3
			wantAlive := a.Kind == AssertNodeAlive
			if observed[i] != wantAlive {
				r.Pass = false
				r.Detail = fmt.Sprintf("node %d observed alive=%v at %v", a.Node, observed[i], a.At)
			}
		case AssertPairsComplete:
			want := float64(int64(run.App.Items) * int64(run.App.Items-1) / 2)
			if got := metrics["pairs"] + metrics["store_hits"]; got != want {
				r.Pass = false
				r.Detail = fmt.Sprintf("covered %v of %v pairs", got, want)
			}
		case AssertMetric:
			v, ok := metrics[a.Metric]
			if !ok {
				r.Pass = false
				r.Detail = fmt.Sprintf("unknown metric %q (known: %v)", a.Metric, names)
			} else if a.HasMin && v < a.Min {
				r.Pass = false
				r.Detail = fmt.Sprintf("%s = %v below min %v", a.Metric, v, a.Min)
			} else if a.HasMax && v > a.Max {
				r.Pass = false
				r.Detail = fmt.Sprintf("%s = %v above max %v", a.Metric, v, a.Max)
			}
		}
		if !r.Pass {
			rep.Pass = false
		}
		rep.Assertions = append(rep.Assertions, r)
	}
	return rep, nil
}

// runPairs executes the all-pairs application through the public API.
func runPairs(sc *Scenario, faults *fault.Schedule, probes []fault.Probe, spans *rocket.SpanRecorder) (map[string]float64, string, error) {
	app, err := jobspec.Spec{ID: sc.Name, App: sc.App.Kind, Items: sc.App.Items}.BuildApp(sc.Seed)
	if err != nil {
		return nil, "", err
	}
	spec := rocket.DAS5Node(gpuModels(sc.Fleet.GPUsPerNode)...)
	r := rocket.New(
		rocket.WithHomogeneous(sc.Fleet.Nodes, spec),
		rocket.WithSeed(sc.Seed),
		rocket.WithDistCache(sc.Fleet.DistCache),
		rocket.WithFaults(faults),
		rocket.WithFaultProbes(probes...),
		rocket.WithSpans(spans),
	)
	m, err := r.Run(app)
	if err != nil {
		return nil, "", fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	metrics := map[string]float64{
		"pairs":            float64(m.Pairs),
		"loads":            float64(m.Loads),
		"r":                m.R,
		"runtime_ms":       m.Runtime.Seconds() * 1e3,
		"io_bytes":         float64(m.IOBytes),
		"net_bytes":        float64(m.NetBytes),
		"crashes":          float64(m.Crashes),
		"restarts":         float64(m.Restarts),
		"dropped_messages": float64(m.DroppedMessages),
		"recovered_pairs":  float64(m.RecoveredPairs),
		"local_steals":     float64(m.LocalSteals),
		"remote_steals":    float64(m.RemoteSteals),
		"failed_steals":    float64(m.FailedSteals),
		"store_hits":       float64(m.StoreHits),
		"events":           float64(m.Events),
	}
	summary := fmt.Sprintf(
		"pairs nodes=%d items=%d pairs=%d loads=%d io=%d net=%d crashes=%d restarts=%d dropped=%d recovered=%d runtime=%v",
		sc.Fleet.Nodes, sc.App.Items, m.Pairs, m.Loads, m.IOBytes, m.NetBytes,
		m.Crashes, m.Restarts, m.DroppedMessages, m.RecoveredPairs, m.Runtime)
	return metrics, summary, nil
}

// runFleet executes the fleet workload.
func runFleet(sc *Scenario, faults *fault.Schedule, probes []fault.Probe, spans *rocket.SpanRecorder) (map[string]float64, string, error) {
	shape := sc.gpuShape()
	specs := make([]rocket.NodeSpec, len(shape))
	for i, g := range shape {
		specs[i] = rocket.DAS5Node(gpuModels(g)...)
	}
	r := rocket.New(
		rocket.WithTopology(specs...),
		rocket.WithSeed(sc.Seed),
		rocket.WithFaults(faults),
		rocket.WithFaultProbes(probes...),
		rocket.WithSpans(spans),
	)
	res, err := r.RunFleet(func(c *rocket.FleetConfig) {
		c.Duration = sc.Duration
		if sc.Gen != nil {
			c.StartAt = sc.Gen.startTimes()
		}
		if sc.Elastic != nil {
			e := sc.elasticity()
			c.Elastic = &e
		}
	})
	if err != nil {
		return nil, "", fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	metrics := map[string]float64{
		"nodes":           float64(res.Nodes),
		"events":          float64(res.Events),
		"messages":        float64(res.Messages),
		"bytes_sent":      float64(res.BytesSent),
		"dropped":         float64(res.Dropped),
		"heartbeats":      float64(res.Heartbeats),
		"rumors":          float64(res.Rumors),
		"work_done":       float64(res.WorkDone),
		"virtual_time_ms": res.VirtualTime.Seconds() * 1e3,
	}
	// Churn metrics appear only when membership actually changed, so
	// churn-free reports (and their goldens) keep the exact metric list.
	if res.Joins+res.Preempts > 0 {
		metrics["joins"] = float64(res.Joins)
		metrics["preempts"] = float64(res.Preempts)
		metrics["drained"] = float64(res.Drained)
	}
	return metrics, res.String(), nil
}

// gpuModels returns n TitanX-Maxwell entries (the DAS-5 baseline device).
func gpuModels(n int) []rocket.GPUModel {
	models := make([]rocket.GPUModel, n)
	for i := range models {
		models[i] = rocket.TitanXMaxwell
	}
	return models
}

// faultTimeline renders the armed schedule for the report, in firing
// order.
func faultTimeline(s *fault.Schedule) []FaultRecord {
	if s.Empty() {
		return nil
	}
	recs := make([]FaultRecord, 0, len(s.Events))
	for _, ev := range s.Events {
		r := FaultRecord{AtMS: ev.At.Seconds() * 1e3, Kind: ev.Kind.String()}
		switch ev.Kind {
		case fault.NodeCrash, fault.NodeRestart, fault.NodeJoin, fault.NodePreempt:
			r.Target = fmt.Sprintf("node %d", ev.Node)
		case fault.GPUSlowdown:
			r.Target = fmt.Sprintf("node %d gpu %d", ev.Node, ev.GPU)
			r.Detail = fmt.Sprintf("factor %v", ev.Factor)
		default:
			r.Target = fmt.Sprintf("link %d-%d", ev.A, ev.B)
			if ev.Kind == fault.LinkDegrade {
				r.Detail = fmt.Sprintf("latency x%v bandwidth x%v", ev.LatencyFactor, ev.BandwidthFactor)
			}
		}
		recs = append(recs, r)
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].AtMS < recs[b].AtMS })
	return recs
}
