// Command rockettrace inspects Rocket's virtual-time instrumentation.
// Every subcommand runs a workload with the flight recorder attached and
// renders the recorded spans.
//
// timeline runs a small all-pairs workload and dumps the per-resource
// task timeline — the Fig. 6 view of Rocket's asynchronous processing:
//
//	rockettrace timeline -app forensics -nodes 2 -n 24 -limit 120
//
// The other subcommands run a declarative scenario. Because the recorded
// timeline is deterministic, exporting the same scenario twice (at any
// engine width) yields byte-identical output — CI diffs two exports to
// prove it.
//
//	rockettrace spans  [-scenario file] [-shards N] [-seed N] [-limit N] [-engine]
//	rockettrace export [-scenario file] [-shards N] [-seed N] [-o out.json] [-engine]
//	rockettrace top    [-scenario file] [-shards N] [-seed N] [-by kind|track] [-limit N]
//
// export writes Chrome trace-event JSON; load it at ui.perfetto.dev or
// chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rocket"
	"rocket/internal/core"
	"rocket/internal/experiments"
	"rocket/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches subcommands; anything else is a usage error.
func run(args []string, out, errw io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "timeline":
			return cmdTimeline(args[1:], out, errw)
		case "spans":
			return cmdSpans(args[1:], out, errw)
		case "export":
			return cmdExport(args[1:], out, errw)
		case "top":
			return cmdTop(args[1:], out, errw)
		case "help", "-h", "-help", "--help":
			usage(errw)
			return 0
		}
	}
	usage(errw)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  rockettrace timeline [-app NAME] [-nodes N] [-n N] [-limit N] [-seed N] [-cap N]
  rockettrace spans  [-scenario file] [-shards N] [-seed N] [-limit N] [-engine]
  rockettrace export [-scenario file] [-shards N] [-seed N] [-o out.json] [-engine]
  rockettrace top    [-scenario file] [-shards N] [-seed N] [-by kind|track] [-limit N]`)
}

// spanFlags are the recording knobs shared by the span subcommands.
type spanFlags struct {
	scenario string
	shards   int
	seed     uint64
	capacity int
}

func (f *spanFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.scenario, "scenario", "scenarios/quickstart.yaml", "scenario file to run under the flight recorder")
	fs.IntVar(&f.shards, "shards", 0, "engine width for fleet scenarios (the exported timeline is identical at every width)")
	fs.Uint64Var(&f.seed, "seed", 0, "override the scenario seed (0 keeps the file's)")
	fs.IntVar(&f.capacity, "cap", 0, "per-lane span capacity (0 = 64Ki); oldest spans are overwritten")
}

// record runs the scenario with a flight recorder attached and returns
// the canonical snapshot.
func (f *spanFlags) record(errw io.Writer) (rocket.SpanSnapshot, error) {
	data, err := os.ReadFile(f.scenario)
	if err != nil {
		return rocket.SpanSnapshot{}, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return rocket.SpanSnapshot{}, fmt.Errorf("%s: %w", f.scenario, err)
	}
	lanes := f.shards
	if lanes < 1 {
		lanes = 1
	}
	rec := rocket.NewSpanRecorder(lanes, f.capacity)
	if _, err := scenario.Run(sc, scenario.RunOptions{Seed: f.seed, Shards: f.shards, Spans: rec}); err != nil {
		return rocket.SpanSnapshot{}, err
	}
	return snapshot(rec, errw), nil
}

// snapshot takes the recorder's canonical snapshot. A non-empty drop
// count is warned about: an overflowing ring still exports, but the
// width-invariance guarantee is off for that recording.
func snapshot(rec *rocket.SpanRecorder, errw io.Writer) rocket.SpanSnapshot {
	snap := rec.Snapshot()
	if snap.Dropped > 0 {
		fmt.Fprintf(errw, "rockettrace: ring overflow: %d spans dropped (raise -cap for a lossless, width-invariant export)\n",
			snap.Dropped)
	}
	return snap
}

func cmdSpans(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	fs.SetOutput(errw)
	var f spanFlags
	f.register(fs)
	limit := fs.Int("limit", 200, "maximum span rows to print (0 = all)")
	engine := fs.Bool("engine", false, "include engine-internal (width-dependent) spans")
	if fs.Parse(args) != nil {
		return 2
	}
	snap, err := f.record(errw)
	if err != nil {
		fmt.Fprintln(errw, "rockettrace:", err)
		return 1
	}
	snap.WriteTable(out, *limit, rocket.TraceExportOptions{IncludeEngine: *engine})
	return 0
}

func cmdExport(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(errw)
	var f spanFlags
	f.register(fs)
	outPath := fs.String("o", "-", "output file (- = stdout)")
	engine := fs.Bool("engine", false, "include engine-internal (width-dependent) spans")
	if fs.Parse(args) != nil {
		return 2
	}
	snap, err := f.record(errw)
	if err != nil {
		fmt.Fprintln(errw, "rockettrace:", err)
		return 1
	}
	w := out
	if *outPath != "-" {
		file, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(errw, "rockettrace:", err)
			return 1
		}
		defer file.Close()
		w = file
	}
	if err := rocket.ExportTrace(w, snap, rocket.TraceExportOptions{IncludeEngine: *engine}); err != nil {
		fmt.Fprintln(errw, "rockettrace:", err)
		return 1
	}
	return 0
}

func cmdTop(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(errw)
	var f spanFlags
	f.register(fs)
	by := fs.String("by", "kind", "aggregation key: kind or track")
	limit := fs.Int("limit", 20, "maximum rows to print (0 = all)")
	if fs.Parse(args) != nil {
		return 2
	}
	if *by != "kind" && *by != "track" {
		fmt.Fprintf(errw, "rockettrace: -by %q (want kind or track)\n", *by)
		return 2
	}
	snap, err := f.record(errw)
	if err != nil {
		fmt.Fprintln(errw, "rockettrace:", err)
		return 1
	}
	snap.WriteTop(out, *by, *limit)
	return 0
}

// cmdTimeline prints the per-resource task timeline of one small
// all-pairs run.
func cmdTimeline(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		app      = fs.String("app", "forensics", "application: forensics, bioinformatics, or microscopy")
		nodes    = fs.Int("nodes", 1, "number of simulated nodes")
		n        = fs.Int("n", 24, "approximate number of items (microscopy always runs its full 256)")
		limit    = fs.Int("limit", 200, "maximum timeline rows to print (0 = all)")
		seed     = fs.Uint64("seed", 1, "random seed")
		capacity = fs.Int("cap", 0, "span capacity (0 = 64Ki); oldest spans are overwritten")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *n < 1 || *nodes < 1 {
		fmt.Fprintf(errw, "rockettrace: -n %d -nodes %d (want both >= 1)\n", *n, *nodes)
		return 2
	}

	// Build the smallest scaled setup, then shrink the data set to n.
	setup, err := experiments.SetupByName(*app, experiments.Options{Scale: experimentsScaleFor(*n, *app), Seed: *seed})
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	cl, err := rocket.Homogeneous(*nodes, rocket.DAS5Node(rocket.TitanXMaxwell))
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	rec := rocket.NewSpanRecorder(1, *capacity)
	m, err := core.Run(core.Config{
		App:         setup.App,
		Cluster:     cl,
		DeviceSlots: setup.DevSlots,
		HostSlots:   setup.HostSlots,
		DistCache:   *nodes > 1,
		Seed:        *seed,
		Spans:       rec,
	})
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	fmt.Fprintf(out, "app=%s nodes=%d items=%d pairs=%d runtime=%v R=%.2f\n\n",
		*app, *nodes, setup.App.NumItems(), m.Pairs, m.Runtime, m.R)
	fmt.Fprintln(out, "busy time per thread class:")
	fmt.Fprint(out, m.Phases.Summary())
	fmt.Fprintln(out, "\ntask timeline (Fig. 6 view):")
	if err := snapshot(rec, errw).WriteTimeline(out, *limit); err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	return 0
}

// experimentsScaleFor picks a scale that brings the app's default data set
// down to roughly n items.
func experimentsScaleFor(n int, app string) int {
	defaults := map[string]int{
		"forensics":                4980,
		"bioinformatics":           2500,
		"microscopy":               256,
		"bioinformatics-cartesius": 6818,
	}
	total, ok := defaults[app]
	if !ok || n >= total {
		return 1
	}
	return total / n
}
