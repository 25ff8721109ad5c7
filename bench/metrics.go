package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one metric. Bound is the share of the earlier median by
// which an end-to-end metric may worsen before it counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// on lists the workloads a headline metric is measured on.
	on []string
}

// endToEnd are the metrics every workload reports untraced. The run
// contract wants each of them on each workload, so the throughput and
// latency a workload's users see are reported under two shared names;
// headline gives each workload's own name for them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// headline are the end-to-end metrics under their own names, each on the
// workloads whose users pay for it. They are what -compare and -repeat
// check, and the traced run reports them beside the layer metrics. The
// host-time bounds are what this sandbox's run-to-run spread allows
// (README, "Measured spread"); the two simulated figures repeat exactly.
var headline = []metricDef{
	{Name: "pairs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, on: []string{"pairs_reuse", "pairs_thrash"}},
	{Name: "model_efficiency", Unit: "frac", Better: "higher", Bound: 0.001, on: []string{"pairs_reuse", "pairs_thrash"}},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, on: []string{"serve_open"}},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, on: []string{"serve_open"}},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, on: []string{"serve_closed"}},
	{Name: "plan_ns_per_pair", Unit: "ns", Better: "lower", Bound: 0.25, on: []string{"store_delta"}},
	{Name: "ingest_pairs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, on: []string{"store_delta"}},
	{Name: "reload_s", Unit: "s", Better: "lower", Bound: 0.25, on: []string{"store_delta"}},
	{Name: "bytes_per_pair", Unit: "B", Better: "lower", Bound: 0.01, on: []string{"store_delta"}},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, on: []string{"fleet_shards"}},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Bound: 0},
}

// perLayer are the metrics of the traced run. A metric reads 0 on a
// workload that does not exercise or measure its layer.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, m := range headline {
		out = append(out, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("frac", "lower",
		"sim.cpu_frac", "core.cpu_frac", "cache.cpu_frac", "dht.cpu_frac", "cluster.cpu_frac", "gpu.cpu_frac",
		"steal.cpu_frac", "pairs.cpu_frac", "trace.cpu_frac", "obs.cpu_frac", "apps.cpu_frac", "sched.cpu_frac",
		"jobspec.cpu_frac", "serve.cpu_frac", "nethttp.cpu_frac", "loadgen.cpu_frac", "pairstore.cpu_frac",
		"fleet.cpu_frac", "other.cpu_frac", "goruntime.gc_cpu_frac", "goruntime.malloc_cpu_frac")
	add("ms", "lower", "goruntime.gc_pause_ms")
	add("count", "lower", "goruntime.num_gc")

	add("count", "lower", "sim.events_per_pair", "sim.windows")
	add("1/s", "higher", "sim.events_per_s")
	add("ns", "lower", "sim.raw_ns_per_event")
	add("ratio", "higher", "sim.shard_speedup")
	add("count", "higher", "sim.events_per_window")

	add("count", "lower", "core.allocs_per_pair", "core.loads_R")
	add("B", "lower", "core.alloc_bytes_per_pair")
	add("ms", "lower", "core.run_fixed_ms")
	add("frac", "higher", "core.steal_success_frac", "core.store_hit_frac")
	add("s", "lower", "core.virtual_runtime_s", "core.delta_run_s")

	add("frac", "higher", "cache.dev_hit_frac", "cache.host_hit_frac")
	add("count", "lower", "cache.evictions_per_pair", "cache.stalls_per_pair")
	add("count", "lower", "dht.requests_per_pair")
	add("frac", "higher", "dht.hit_frac", "dht.hop1_frac")
	add("B", "lower", "cluster.net_bytes_per_pair", "cluster.io_bytes_per_pair")

	add("frac", "lower", "obs.spans_overhead_frac")
	add("ns", "lower", "obs.export_ns_per_span")

	add("s", "lower", "sched.replay_s")
	add("1/s", "higher", "sched.replay_jobs_per_s")
	add("us", "lower", "sched.fixed_us_per_job")
	add("ms", "lower", "sched.wait_p50_virtual_ms", "sched.wait_p99_virtual_ms")
	add("count", "lower", "sched.retries", "sched.rejected")
	add("us", "lower", "jobspec.decode_us_per_spec")

	add("ms", "lower", "serve.submit_rtt_p50_ms", "serve.submit_rtt_p99_ms", "serve.list_ms_at_end",
		"serve.metrics_scrape_ms_at_end", "serve.p99_ms")
	add("us", "lower", "serve.handler_submit_us", "serve.handler_status_us")
	add("frac", "lower", "serve.http_share_frac")
	add("count", "higher", "serve.requests")
	add("count", "lower", "serve.refused")

	add("ms", "lower", "loadgen.late_p99_ms")
	add("1/s", "higher", "loadgen.achieved_rate")

	add("ns", "lower", "pairstore.put_ns_per_pair", "pairstore.merge_ns_per_pair", "pairstore.hasmany_ns_per_key",
		"pairstore.get_hit_ns", "pairstore.get_miss_ns")
	add("ms", "lower", "pairstore.seal_ms", "pairstore.compact_ms", "pairstore.save_ms", "pairstore.load_ms")
	add("us", "lower", "pairstore.snapshot_us")
	add("frac", "higher", "pairstore.bloom_negative_frac")
	add("frac", "lower", "pairstore.bloom_false_positive_frac")
	add("B", "lower", "pairstore.index_bytes_per_pair")
	add("count", "lower", "pairstore.segments", "pairstore.levels")
	add("ratio", "lower", "pairstore.concurrent_plan_slowdown")

	add("1/s", "higher", "fleet.events_per_s_w1", "fleet.events_per_s_wN")
	add("count", "lower", "fleet.messages_per_event")

	add("us", "lower", "cpu_us_per_work")
	add("frac", "lower", "trace_overhead_frac")
	add("ns", "lower", "host.calib_ns")
	add("count", "lower", "host.disturbed")
	add("count", "lower", "digest32")
	return out
}()

// result is what one run of one workload produces.
type result struct {
	Workload   string             `json:"workload"`
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	Counts     map[string]int     `json:"counts"`
	Values     map[string]float64 `json:"values"`
	Dists      map[string]dist    `json:"dists,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

func newResult(workload string, p provenance) *result {
	return &result{
		Workload: workload, Provenance: p,
		Counts: map[string]int{}, Values: map[string]float64{}, Dists: map[string]dist{},
	}
}

// check counts one correctness check or operation; a false ok is a
// failure with its reason kept.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// attempts counts n operations of which failed did not succeed.
func (r *result) attempts(n, failed int, what string) {
	r.Attempted += n
	r.Failed += failed
	if failed > 0 && len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf("%d of %d %s failed", failed, n, what))
	}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// timing records a timing's samples and reports their median under name.
func (r *result) timing(name string, samples []float64) {
	d := summarize(samples)
	r.Dists[name] = d
	r.Values[name] = d.Median
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// line is the run contract's last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]lineMetrics `json:"metrics"`
}

type lineMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line() line {
	defs := endToEnd
	if r.Provenance.Traced {
		defs = perLayer
	}
	l := line{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetrics{}}
	for _, d := range defs {
		l.Metrics[d.Name] = lineMetrics{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return l
}

// report prints every metric the run measured, by name with its unit.
func (r *result) report(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d traced=%v  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, p.Seed, p.Seconds, p.Traced, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, d := range defs {
			v, ok := r.Values[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s", d.Name, v, d.Unit)
			if dist, ok := r.Dists[d.Name]; ok {
				fmt.Fprintf(w, "  %s", dist)
			}
			fmt.Fprintln(w)
		}
	}
	section("end to end", endToEnd)
	section("end to end, by its own name", headline)
	section("per layer", perLayer[len(headline):])
	var counts []string
	for k, v := range r.Counts {
		counts = append(counts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "-- counts %s\n", strings.Join(counts, " "))
	fmt.Fprintf(w, "-- digest %s\n", r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "-- note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "-- FAILED: %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "-- trace %s\n", r.TraceFile)
	}
}

// manifestDoc is BENCHMARK.json.
type manifestDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"` // every Bound is set
	PerLayer   []metricDef    `json:"per_layer"`  // no Bound: the key is omitted
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 14

func buildManifest() manifestDoc {
	m := manifestDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	m.EndToEnd, m.PerLayer = endToEnd, perLayer
	return m
}

func (m manifestDoc) json() []byte {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(buf, '\n')
}
