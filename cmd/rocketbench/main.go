// Command rocketbench regenerates the paper's tables and figures from the
// command line, and can profile itself while doing so. It records no host
// time; bench/ is the one timing reference, and internal/experiments'
// TestExperimentsGolden pins every experiment's output and counts.
//
// Usage:
//
//	rocketbench -list
//	rocketbench -exp fig12 [-scale 10] [-seed 1]
//	rocketbench -exp all -scale 5
//	rocketbench -exp fig8 -cpuprofile fig8.prof
//
// Scale 1 reproduces paper-scale data sets (slow: hours of CPU time);
// the default 10 preserves all capacity and cost ratios (see
// internal/experiments) and finishes in minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"rocket/internal/experiments"
	"rocket/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the chosen experiments and returns the exit code:
// 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocketbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment id to run, or \"all\"")
		scale      = fs.Int("scale", 10, "workload scale divisor (1 = paper scale)")
		seed       = fs.Uint64("seed", 1, "random seed")
		workers    = fs.Int("workers", 1, "sweep experiments run their independent points on this many workers (outputs do not change)")
		list       = fs.Bool("list", false, "list available experiments")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOn    = fs.Bool("trace", false, "attach the flight recorder to every run (outputs do not change)")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *scale < 1 || *workers < 1 {
		fmt.Fprintf(stderr, "rocketbench: -scale %d -workers %d (want both >= 1)\n", *scale, *workers)
		fs.Usage()
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-18s %-8s %s\n", e.ID, e.Paper, e.Description)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	toRun := experiments.All()
	if *exp != "all" {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		toRun = []experiments.Experiment{e}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, Trace: *traceOn}
	for _, e := range toRun {
		events0 := sim.GlobalEvents()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "=== %s (%s): %s ===\n%s(%d events)\n\n",
			e.ID, e.Paper, e.Description, out, sim.GlobalEvents()-events0)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
