package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/apps/microscopy"
	"rocket/internal/apps/phylo"
	"rocket/internal/experiments"
	"rocket/internal/scenario"
)

// cmdTrace inspects Rocket's virtual-time instrumentation. Every
// subcommand runs a workload with the flight recorder attached and
// renders the recorded spans.
//
// timeline runs a small all-pairs workload and dumps the per-resource
// task timeline — the Fig. 6 view of Rocket's asynchronous processing:
//
//	rocket trace timeline -app forensics -nodes 2 -n 24 -limit 120
//
// The other subcommands run a declarative scenario. Because the recorded
// timeline is deterministic, exporting the same scenario twice yields
// byte-identical output — CI diffs two exports to prove it. export
// writes Chrome trace-event JSON; load it at ui.perfetto.dev or
// chrome://tracing.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("rocket trace", []command{
		{"timeline", "[-app NAME] [-nodes N] [-n N] [-limit N] [-seed N] [-cap N]", cmdTimeline},
		{"spans", "[-scenario file] [-seed N] [-cap N] [-limit N]", cmdSpans},
		{"export", "[-scenario file] [-seed N] [-cap N] [-o out.json]", cmdExport},
		{"top", "[-scenario file] [-seed N] [-cap N] [-by kind|track] [-limit N]", cmdTop},
	}, args, stdout, stderr)
}

// spanRun is the recording shared by the span subcommands: a scenario
// and the recorder's knobs.
type spanRun struct {
	path     string
	seed     uint64
	capacity int
}

func (r *spanRun) register(fs *flag.FlagSet) {
	fs.StringVar(&r.path, "scenario", "scenarios/quickstart.yaml", "scenario file to run under the flight recorder")
	fs.Uint64Var(&r.seed, "seed", 0, "override the scenario seed (0 keeps the file's)")
	fs.IntVar(&r.capacity, "cap", 0, "per-lane span capacity (0 = 64Ki); oldest spans are overwritten")
}

// record runs r's scenario with a flight recorder attached. It returns
// the snapshot and 0, or the exit status: 2 when the scenario file does
// not load, so nothing has run, and 1 when the run fails.
func (r *spanRun) record(fs *flag.FlagSet) (rocket.SpanSnapshot, int) {
	sc, err := loadScenario(r.path)
	if err != nil {
		return rocket.SpanSnapshot{}, fail(fs, 2, err)
	}
	rec := rocket.NewSpanRecorder(1, r.capacity)
	if _, err := scenario.Run(sc, scenario.RunOptions{Seed: r.seed, Spans: rec}); err != nil {
		return rocket.SpanSnapshot{}, fail(fs, 1, err)
	}
	return snapshot(rec, fs.Output()), 0
}

// snapshot takes the recorder's canonical snapshot. A non-empty drop
// count is warned about: an overflowing ring still exports, but the
// recording is truncated.
func snapshot(rec *rocket.SpanRecorder, stderr io.Writer) rocket.SpanSnapshot {
	snap := rec.Snapshot()
	if snap.Dropped > 0 {
		fmt.Fprintf(stderr, "rocket trace: ring overflow: %d spans dropped (raise -cap for a lossless export)\n",
			snap.Dropped)
	}
	return snap
}

func cmdSpans(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket trace spans", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var r spanRun
	r.register(fs)
	limit := fs.Int("limit", 200, "maximum span rows to print (0 = all)")
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	snap, code := r.record(fs)
	if code != 0 {
		return code
	}
	snap.WriteTable(stdout, *limit)
	return 0
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket trace export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var r spanRun
	r.register(fs)
	outPath := fs.String("o", "-", "output file (- = stdout)")
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	snap, code := r.record(fs)
	if code != 0 {
		return code
	}
	var err error
	if *outPath == "-" {
		err = rocket.ExportTrace(stdout, snap, rocket.TraceExportOptions{})
	} else {
		var file *os.File
		if file, err = os.Create(*outPath); err == nil {
			err = rocket.ExportTrace(file, snap, rocket.TraceExportOptions{})
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return fail(fs, 1, err)
	}
	return 0
}

func cmdTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket trace top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var r spanRun
	r.register(fs)
	by := fs.String("by", "kind", "aggregation key: kind or track")
	limit := fs.Int("limit", 20, "maximum rows to print (0 = all)")
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	if *by != "kind" && *by != "track" {
		return fail(fs, 2, fmt.Errorf("-by %q (want kind or track)", *by))
	}
	snap, code := r.record(fs)
	if code != 0 {
		return code
	}
	snap.WriteTop(stdout, *by, *limit)
	return 0
}

// cmdTimeline prints the per-resource task timeline of one small
// all-pairs run.
func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket trace timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "forensics", "application: forensics, bioinformatics, or microscopy")
		nodes    = fs.Int("nodes", 1, "number of simulated nodes")
		n        = fs.Int("n", 24, "approximate number of items (microscopy always runs its full 256)")
		limit    = fs.Int("limit", 200, "maximum timeline rows to print (0 = all)")
		seed     = fs.Uint64("seed", 1, "random seed")
		capacity = fs.Int("cap", 0, "span capacity (0 = 64Ki); oldest spans are overwritten")
	)
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	if *n < 1 || *nodes < 1 {
		return fail(fs, 2, fmt.Errorf("-n %d -nodes %d (want both >= 1)", *n, *nodes))
	}

	// Build the smallest scaled setup, then shrink the data set to n.
	setup, err := experiments.SetupByName(*app, experiments.Options{Scale: experimentsScaleFor(*n, *app), Seed: *seed})
	if err != nil {
		return fail(fs, 2, err)
	}
	rec := rocket.NewSpanRecorder(1, *capacity)
	m, err := rocket.New(
		rocket.WithHomogeneous(*nodes, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDeviceSlots(setup.DevSlots),
		rocket.WithHostSlots(setup.HostSlots),
		rocket.WithDistCache(*nodes > 1),
		rocket.WithSeed(*seed),
		rocket.WithSpans(rec),
	).Run(setup.App)
	if err != nil {
		return fail(fs, 1, err)
	}
	fmt.Fprintf(stdout, "app=%s nodes=%d items=%d pairs=%d runtime=%v R=%.2f\n\n",
		*app, *nodes, setup.App.NumItems(), m.Pairs, m.Runtime, m.R)
	fmt.Fprintln(stdout, "busy time per thread class:")
	fmt.Fprint(stdout, m.Phases.Summary())
	fmt.Fprintln(stdout, "\ntask timeline (Fig. 6 view):")
	fmt.Fprint(stdout, snapshot(rec, stderr).Timeline(*limit))
	return 0
}

// experimentsScaleFor picks a scale that brings the app's default data set
// down to roughly n items.
func experimentsScaleFor(n int, app string) int {
	defaults := map[string]int{
		"forensics":                forensics.DefaultN,
		"bioinformatics":           phylo.DefaultN,
		"microscopy":               microscopy.DefaultN,
		"bioinformatics-cartesius": phylo.CartesiusN,
	}
	total, ok := defaults[app]
	if !ok || n >= total {
		return 1
	}
	return total / n
}
