package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"rocket/internal/experiments"
	"rocket/internal/sim"
)

// cmdExperiments regenerates the paper's tables and figures, and can
// profile itself while doing so. It records no host time; bench/ is the
// one timing reference, and internal/experiments' TestExperimentsGolden
// pins every experiment's output and counts.
//
//	rocket experiments -list
//	rocket experiments -exp fig12 [-scale 10] [-seed 1]
//	rocket experiments -exp all -scale 5
//	rocket experiments -exp fig8 -cpuprofile fig8.prof
//
// Scale 1 reproduces paper-scale data sets (slow: hours of CPU time);
// the default 10 preserves all capacity and cost ratios (see
// internal/experiments) and finishes in minutes.
func cmdExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts experiments.Options
	fs.IntVar(&opts.Scale, "scale", 10, "workload scale divisor (1 = paper scale)")
	fs.Uint64Var(&opts.Seed, "seed", 1, "random seed")
	fs.IntVar(&opts.Workers, "workers", 1, "sweep experiments run their independent points on this many workers (outputs do not change)")
	fs.BoolVar(&opts.Trace, "trace", false, "attach the flight recorder to every run (outputs do not change)")
	var (
		exp        = fs.String("exp", "", "experiment id to run, or \"all\"")
		list       = fs.Bool("list", false, "list available experiments")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	if opts.Scale < 1 || opts.Workers < 1 {
		return fail(fs, 2, fmt.Errorf("-scale %d -workers %d (want both >= 1)", opts.Scale, opts.Workers))
	}
	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-18s %-8s %s\n", e.ID, e.Paper, e.Description)
		}
		return 0
	}
	if *exp == "" {
		return fail(fs, 2, errors.New("-exp or -list is required"))
	}
	toRun := experiments.All()
	if *exp != "all" {
		e, err := experiments.ByID(*exp)
		if err != nil {
			return fail(fs, 2, err)
		}
		toRun = []experiments.Experiment{e}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(fs, 1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fs, 1, err)
		}
		defer pprof.StopCPUProfile()
	}
	for _, e := range toRun {
		events0 := sim.GlobalEvents()
		out, err := e.Run(opts)
		if err != nil {
			return fail(fs, 1, fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(stdout, "=== %s (%s): %s ===\n%s(%d events)\n\n",
			e.ID, e.Paper, e.Description, out, sim.GlobalEvents()-events0)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(fs, 1, err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(fs, 1, err)
		}
	}
	return 0
}
