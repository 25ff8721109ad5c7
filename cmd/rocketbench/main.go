// Command rocketbench regenerates the paper's tables and figures from the
// command line, and doubles as the tracked count harness: it can profile
// itself and emit a machine-readable BENCH_<run>.json capturing allocs/op,
// simulation events, heap pushes and an output sha256 per experiment.
// It records no host time; bench/ is the one timing reference.
//
// Usage:
//
//	rocketbench -list
//	rocketbench -exp fig12 [-scale 10] [-seed 1]
//	rocketbench -exp all -scale 5
//	rocketbench -exp all -scale 50 -json ci        # writes BENCH_ci.json
//	rocketbench -exp fig8 -cpuprofile fig8.prof
//
// Scale 1 reproduces paper-scale data sets (slow: hours of CPU time);
// the default 10 preserves all capacity and cost ratios (see
// internal/experiments) and finishes in minutes.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rocket/internal/benchfmt"
	"rocket/internal/experiments"
	"rocket/internal/sim"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id to run, or \"all\"")
		scale      = flag.Int("scale", 10, "workload scale divisor (1 = paper scale)")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 1, "sweep experiments run their independent points on this many workers (outputs do not change)")
		list       = flag.Bool("list", false, "list available experiments")
		jsonRun    = flag.String("json", "", "run name: write per-experiment metrics to BENCH_<name>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		quiet      = flag.Bool("q", false, "suppress experiment output (counts only)")
		traceOn    = flag.Bool("trace", false, "attach the flight recorder to every run (outputs must not change; benchgate compares the hashes and allocations)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %-8s %s\n", e.ID, e.Paper, e.Description)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, Trace: *traceOn}
	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	report := benchfmt.Report{
		Run:       *jsonRun,
		Scale:     opts.Scale,
		Seed:      opts.Seed,
		GoVersion: runtime.Version(),
		UnixTime:  time.Now().Unix(),
	}
	var mem runtime.MemStats
	for _, e := range toRun {
		runtime.ReadMemStats(&mem)
		allocs0 := mem.Mallocs
		events0, heap0 := sim.GlobalEvents(), sim.GlobalHeapPushes()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		runtime.ReadMemStats(&mem)
		r := benchfmt.ExpResult{
			ID:           e.ID,
			Paper:        e.Paper,
			AllocsPerOp:  mem.Mallocs - allocs0,
			Events:       sim.GlobalEvents() - events0,
			HeapPushes:   sim.GlobalHeapPushes() - heap0,
			OutputSHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(out))),
		}
		report.Experiments = append(report.Experiments, r)
		if *quiet {
			fmt.Printf("%-18s %12d allocs  %10d events  %10d heap pushes\n",
				e.ID, r.AllocsPerOp, r.Events, r.HeapPushes)
			continue
		}
		fmt.Printf("=== %s (%s): %s ===\n%s(%d events)\n\n", e.ID, e.Paper, e.Description, out, r.Events)
	}

	if *jsonRun != "" {
		// A JSON run also records GOMAXPROCS (the scheduler's inner
		// simulations run on that many workers, which moves allocation
		// counts) and the storage trajectory: the columnar pairstore built
		// to 10^5 and 10^6 pairs, persisted and reloaded, then planning a
		// 10% delta — bytes/pair and the plan hash gate hard (both are
		// deterministic). The 10^7 point lives in BenchmarkPairstoreScale
		// for local runs; it is too slow for every CI bench run.
		report.GoMaxProcs = runtime.GOMAXPROCS(0)
		for _, pairs := range []int64{100_000, 1_000_000} {
			sr, err := experiments.MeasureStorage(pairs, opts.Seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "storage trajectory pairs=%d: %v\n", pairs, err)
				os.Exit(1)
			}
			report.StorageTrajectory = append(report.StorageTrajectory, benchfmt.StoragePoint{
				Items:               sr.Items,
				Pairs:               sr.Pairs,
				BytesPerPair:        sr.BytesPerPair,
				DiskBytes:           sr.DiskBytes,
				IndexResidentBytes:  sr.IndexResidentBytes,
				PlanHash:            sr.PlanHash,
				BloomHitRate:        sr.BloomHitRate,
				Blocks:              sr.Blocks,
				BlockDecodes:        sr.BlockDecodes,
				IngestBytesPerPair:  sr.IngestBytesPerPair,
				IngestAllocsPerPair: sr.IngestAllocsPerPair,
			})
			fmt.Fprintf(os.Stderr, "storage trajectory: pairs=%-9d %6.2f bytes/pair  index %8d B  hash=%.16s\n",
				sr.Pairs, sr.BytesPerPair, sr.IndexResidentBytes, sr.PlanHash)
		}
		path := "BENCH_" + *jsonRun + ".json"
		if err := report.Write(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", path, len(report.Experiments))
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
