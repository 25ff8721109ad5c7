// Command rocketbench regenerates the paper's tables and figures from the
// command line, and doubles as the tracked performance harness: it can
// profile itself and emit a machine-readable BENCH_<run>.json capturing
// ns/op, allocs/op, and simulation events/sec per experiment.
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
	"rocket/internal/fleet"
	"rocket/internal/sim"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id to run, or \"all\"")
		scale      = flag.Int("scale", 10, "workload scale divisor (1 = paper scale)")
		seed       = flag.Uint64("seed", 1, "random seed")
		shards     = flag.Int("shards", 1, "concurrency width: sweep experiments run independent points on this many workers (outputs are width-invariant)")
		list       = flag.Bool("list", false, "list available experiments")
		jsonRun    = flag.String("json", "", "run name: write per-experiment metrics to BENCH_<name>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		quiet      = flag.Bool("q", false, "suppress experiment output (timings only)")
		traceOn    = flag.Bool("trace", false, "attach the flight recorder to every run (outputs must not change; benchgate watches the overhead)")
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

	opts := experiments.Options{Scale: *scale, Seed: *seed, Shards: *shards, Trace: *traceOn}
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
		start := time.Now()
		out, err := e.Run(opts)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		runtime.ReadMemStats(&mem)
		events := sim.GlobalEvents() - events0
		r := benchfmt.ExpResult{
			ID:           e.ID,
			Paper:        e.Paper,
			NsPerOp:      wall.Nanoseconds(),
			AllocsPerOp:  mem.Mallocs - allocs0,
			Events:       events,
			HeapPushes:   sim.GlobalHeapPushes() - heap0,
			EventsPerSec: float64(events) / wall.Seconds(),
			OutputSHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(out))),
		}
		report.Experiments = append(report.Experiments, r)
		if *quiet {
			fmt.Printf("%-18s %12v  %12d allocs  %10d events  %14.0f events/sec\n",
				e.ID, wall.Round(time.Millisecond), r.AllocsPerOp, r.Events, r.EventsPerSec)
			continue
		}
		fmt.Printf("=== %s (%s): %s ===\n%s(completed in %v wall time, %d events, %.0f events/sec)\n\n",
			e.ID, e.Paper, e.Description, out, wall.Round(time.Millisecond), r.Events, r.EventsPerSec)
	}

	if *jsonRun != "" {
		// A JSON run also records the shard-scaling trajectory: the fixed
		// 1024-node fleet benchmark at engine widths 1, 2, 4, 8, with
		// events/sec measured and the deterministic state hash captured so
		// benchgate can enforce shard invariance and track the speedup.
		report.GoMaxProcs = runtime.GOMAXPROCS(0)
		for _, k := range []int{1, 2, 4, 8} {
			start := time.Now()
			fr, err := fleet.Run(fleet.ScalingConfig(k))
			wall := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shard trajectory shards=%d: %v\n", k, err)
				os.Exit(1)
			}
			report.ShardTrajectory = append(report.ShardTrajectory, benchfmt.ShardPoint{
				Shards:       k,
				NsPerOp:      wall.Nanoseconds(),
				Events:       fr.Events,
				EventsPerSec: float64(fr.Events) / wall.Seconds(),
				StateHash:    fmt.Sprintf("%016x", fr.StateHash),
			})
			fmt.Fprintf(os.Stderr, "shard trajectory: shards=%d %12v %10d events %14.0f events/sec hash=%016x\n",
				k, wall.Round(time.Millisecond), fr.Events, float64(fr.Events)/wall.Seconds(), fr.StateHash)
		}
		// And the storage trajectory: the columnar pairstore built to
		// 10^5 and 10^6 pairs, persisted and reloaded, then planning a
		// 10% delta — bytes/pair and the plan hash gate hard (both are
		// deterministic), plan latency is tracked. The 10^7 point lives
		// in BenchmarkPairstoreScale for local runs; it is too slow for
		// every CI bench run.
		for _, pairs := range []int64{100_000, 1_000_000} {
			sr, err := experiments.MeasureStorageTemp(pairs, opts.Seed)
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
				PlanNsPerOp:         sr.PlanNs,
				PlanHash:            sr.PlanHash,
				BloomHitRate:        sr.BloomHitRate,
				Blocks:              sr.Blocks,
				BlockDecodes:        sr.BlockDecodes,
				IngestBytesPerPair:  sr.IngestBytesPerPair,
				IngestAllocsPerPair: sr.IngestAllocsPerPair,
			})
			fmt.Fprintf(os.Stderr, "storage trajectory: pairs=%-9d %6.2f bytes/pair  plan %8v  index %8d B  hash=%.16s\n",
				sr.Pairs, sr.BytesPerPair, time.Duration(sr.PlanNs).Round(time.Millisecond),
				sr.IndexResidentBytes, sr.PlanHash)
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
