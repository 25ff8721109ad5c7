// Command bench is the repository's benchmark: six named workloads over
// the public entry points of the Rocket reproduction, each checked for
// correct output, measured end to end with tracing off, and — in a
// separate traced run — attributed to the layers underneath from the
// outside (spans around the calls into each layer, public counters, and a
// CPU profile folded by package). BENCHMARK.json at the repository root
// names the workloads and metrics; README.md in this directory explains
// them.
//
//	go run ./bench -seed 1            every workload, untraced, one child process each
//	go run ./bench -seed 1 -trace 1   the traced set: per-layer metrics and bench/out/*.trace.json
//	go run ./bench -repeat 2          the set twice, interleaved, and the run-to-run difference
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload pairs_reuse -seed 3 -seconds 10 -trace 0   one run (the driver's form)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings as the workloads see them.
type config struct {
	seed    uint64
	seconds float64
	smoke   bool
	outDir  string  // receives trace files, run records and scratch files
	tr      *tracer // nil in the untraced run
}

// traced reports whether this is the traced run.
func (c *config) traced() bool { return c.tr != nil }

// instance is one set-up of a workload: inputs generated, system under
// test built, warm-up discarded.
type instance interface {
	// measure runs the timed part, checks its outputs and fills r.
	measure(c *config, r *result) error
	// close tears the instance down (servers stopped, files removed).
	close()
}

type workload struct {
	name  string
	why   string
	setup func(c *config) (instance, error)
}

var workloads = []workload{
	{"pairs_reuse", "paper regime (forensics, 16 nodes, distributed cache): 98% device-cache hits, 5 events per pair, so core's per-pair path and the sim queue do the work", setupPairsReuse},
	{"pairs_thrash", "same call with 4 device and 8 host slots (phylo, 3 hops): half the lookups miss, 17 events per pair, so eviction, loading, dht and cluster messaging do the work", setupPairsThrash},
	{"serve_open", "open loop, 150 tiny jobs/s over HTTP at Poisson due times, latency from due time: serve, jobspec, sched and per-run fixed cost decide it, the pair path does little", setupServeOpen},
	{"serve_closed", "closed loop, GOMAXPROCS clients each submit, wait, fetch the result: saturation throughput of the same layers, shows latency bought with capacity", setupServeClosed},
	{"store_delta", "pairstore driven directly: ingest 5 versions to 2.0M pairs with tiered compaction left live, save, load, plan the base region across levels, point gets", setupStoreDelta},
	{"fleet_shards", "1024-node fleet protocol on the sharded engine at width 1 and width GOMAXPROCS, alternated: the only user of windows and couplers, on more than one core", setupFleetShards},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

// runWorkload performs one run of one workload in this process.
func runWorkload(w workload, c *config, p provenance) *result {
	r := newResult(w.name, p)
	repeats, steps := setupRepeats, calibSteps
	if c.smoke {
		repeats, steps = 1, calibSteps>>8
	}
	calibBefore, err := calibrate(steps)
	if !r.check(err == nil, "%v", err) {
		return r
	}

	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		inst, err = w.setup(c)
		setups = append(setups, time.Since(start).Seconds())
		if !r.check(err == nil, "set-up: %v", err) {
			return r
		}
	}
	r.timing("setup_s", setups)
	r.Counts["setups"] = repeats

	err = inst.measure(c, r)
	inst.close()
	r.check(err == nil, "measure: %v", err)

	// Before the second calibration, whose table would otherwise be the
	// high-water mark of the small workloads.
	r.set("peak_rss_mb", peakRSSMB())
	calibAfter, cerr := calibrate(steps)
	r.check(cerr == nil, "%v", cerr)
	r.set("host.calib_ns", calibBefore)
	if disturbed(calibBefore, calibAfter) {
		r.set("host.disturbed", 1)
		r.note("disturbed: the calibration walk took %.0f ns before and %.0f ns after", calibBefore, calibAfter)
	}
	if len(r.Digest) >= 8 {
		// The digest's first 32 bits as a number, so it can ride among
		// the metrics: equal seeds on two commits must agree on it.
		if v, err := strconv.ParseUint(r.Digest[:8], 16, 32); err == nil {
			r.set("digest32", float64(v))
		}
	}
	r.set("fail_frac", ratio(float64(r.Failed), float64(r.Attempted)))
	for _, d := range endToEnd {
		if _, ok := r.Values[d.Name]; !ok && err == nil {
			r.check(false, "metric %s was not measured", d.Name)
		}
	}
	if c.traced() {
		path, err := c.tr.write(c.outDir, traceDoc{Workload: w.name, Provenance: p, CPUByLayer: cpuByLayer(r)})
		if r.check(err == nil, "write trace: %v", err) {
			r.TraceFile = path
		}
	}
	return r
}

// cpuByLayer collects the X.cpu_frac values a traced run set.
func cpuByLayer(r *result) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Values {
		if layer, ok := strings.CutSuffix(k, ".cpu_frac"); ok {
			out[layer] = v
		}
	}
	return out
}

// iterate calls once repeatedly for a time box: another iteration starts
// only while the elapsed time plus the last iteration's fits within
// seconds (5% slack), but never fewer than min run.
func iterate(seconds float64, min int, once func(i int) error) (int, error) {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		if err := once(i); err != nil {
			return i, err
		}
		last := time.Since(t).Seconds()
		if i+1 >= min && time.Since(start).Seconds()+last > 1.05*seconds {
			return i + 1, nil
		}
	}
}

// meter reads the process CPU clock and the allocator around a timed
// part.
type meter struct {
	cpu float64
	mem runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuSeconds()
	return m
}

type meterDelta struct {
	cpu            float64
	mallocs, bytes float64
	numGC, pauseMs float64
}

func (m *meter) stop() meterDelta {
	cpu := cpuSeconds() - m.cpu
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return meterDelta{
		cpu:     cpu,
		mallocs: float64(now.Mallocs - m.mem.Mallocs),
		bytes:   float64(now.TotalAlloc - m.mem.TotalAlloc),
		numGC:   float64(now.NumGC - m.mem.NumGC),
		pauseMs: float64(now.PauseTotalNs-m.mem.PauseTotalNs) / 1e6,
	}
}

// profiled runs fn, the traced part of a run, under a CPU profile and a
// meter, and files the profile under r's X.cpu_frac and goruntime
// metrics.
func profiled(r *result, fn func() error) (meterDelta, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return meterDelta{}, err
	}
	mt := startMeter()
	err := fn()
	d := mt.stop()
	pprof.StopCPUProfile()
	if err != nil {
		return d, err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return d, err
	}
	b := bucketProfile(samples)
	for layer, frac := range b.ByLayer {
		r.set(layer+".cpu_frac", frac)
	}
	r.set("goruntime.gc_cpu_frac", b.GC)
	r.set("goruntime.malloc_cpu_frac", b.Malloc)
	r.set("goruntime.gc_pause_ms", d.pauseMs)
	r.set("goruntime.num_gc", d.numGC)
	r.Counts["profile_samples"] = len(samples)
	return d, nil
}

// overhead is the share by which tracing worsened a headline figure;
// higher says whether larger values of it are better.
func overhead(untraced, traced float64, higher bool) float64 {
	if untraced == 0 || traced == 0 {
		return 0
	}
	if higher {
		return untraced/traced - 1
	}
	return traced/untraced - 1
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
		seed     = fs.Uint64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Int("seconds", runSeconds, "how long the timed part of a run measures")
		trace    = fs.Int("trace", 0, "1 = the traced run: spans, CPU profile, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny inputs, one iteration: checks that every workload still runs")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times, interleaved, and compare the first two")
		compare  = fs.Bool("compare", false, "compare two run records: -compare a.json b.json")
		out      = fs.String("out", "", "write the set's run record to this file")
		outDir   = fs.String("outdir", "bench/out", "directory for trace files, run records and scratch files")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		stdout.Write(buildManifest().json())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two run records")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1:
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	if *name == "" {
		return runSet(setOptions{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, repeat: *repeat, out: *out, outDir: *outDir}, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	procs := pinProcs()
	c := &config{seed: *seed, seconds: float64(*seconds), smoke: *smoke, outDir: *outDir}
	if *trace == 1 {
		c.tr = newTracer()
	}
	r := runWorkload(w, c, provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: buildCommit(),
		Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Smoke: *smoke,
	})
	r.report(stdout)
	if *out != "" {
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	last, err := json.Marshal(r.line())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if r.Failed > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// child runs one workload in a fresh process of this same binary, which
// leaves its result in record.
func child(name string, o setOptions, record string, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.Remove(record); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", record, "-outdir", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(record)
	if err != nil {
		return nil, fmt.Errorf("workload %s left no result: %v", name, runErr)
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
