// Command rocketload drives a rocketd server with synthetic traffic: an
// open-loop Poisson arrival process or closed-loop burst clients, over a
// mixed application workload, optionally spiced with fault injection. It
// reports submission/completion counts and wall-clock latency statistics.
//
// Usage:
//
//	rocketload -addr localhost:8080 -mode open -rate 50 -jobs 100
//	rocketload -addr localhost:8080 -mode closed -clients 8 -jobs 64
//	rocketload -local -jobs 32          # self-contained smoke: in-process rocketd
//
// Open-loop mode submits jobs at exponential inter-arrival times
// regardless of completions (rate in jobs per wall second), which probes
// admission backpressure; closed-loop mode runs -clients submitters that
// each wait for their job to finish before sending the next, which probes
// service latency. -fault-rate injects a node crash into that fraction of
// jobs (their first attempt), exercising requeue-under-retry on a live
// service. -scenario loads a scenario file (see scenarios/) and injects
// its compiled chaos/fault schedule instead of the synthetic crash, so
// HTTP load tests and the rocketsim harness share one fault vocabulary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rocket"
	"rocket/internal/jobspec"
	"rocket/internal/scenario"
	"rocket/internal/stats"
)

type options struct {
	base      string
	mode      string
	rate      float64
	jobs      int
	clients   int
	items     int
	maxNodes  int
	apps      []string
	tenants   int
	faultRate float64
	seed      uint64
	timeout   time.Duration
	// faults, when non-nil, is the scenario-compiled fault schedule in
	// wire form; -fault-rate gates which jobs carry it (clipped to each
	// job's partition width).
	faults []jobspec.Fault
}

// result is one job's client-side outcome. status is the job's terminal
// server-side status ("done", "failed", "rejected"), or "refused" when
// the server turned the submission away (backpressure/draining), "error"
// when the server was unreachable, "lost" on poll timeout.
type result struct {
	id     string
	status string
	wall   time.Duration // submit -> terminal status, as the client saw it
}

func buildSpec(rng *stats.RNG, opts options, k int) jobspec.Spec {
	spec := jobspec.Spec{
		Tenant: fmt.Sprintf("tenant%d", k%opts.tenants),
		App:    opts.apps[rng.Intn(len(opts.apps))],
		Items:  opts.items/2 + rng.Intn(opts.items/2+1) + 2,
		Nodes:  1 + rng.Intn(opts.maxNodes),
	}
	if opts.faultRate > 0 && rng.Float64() < opts.faultRate {
		if len(opts.faults) > 0 {
			spec.Faults = clipFaults(opts.faults, spec.Nodes)
		} else {
			spec.Faults = []jobspec.Fault{{
				Kind: "crash",
				Node: 0,
				AtMS: 1 + 9*rng.Float64(),
			}}
		}
	}
	return spec
}

// clipFaults keeps the scenario faults that fit a job's partition width:
// node events targeting node < nodes, link events with both endpoints
// inside. Paired events (crash+restart, cut+heal) always target the same
// nodes, so clipping never splits a pair.
func clipFaults(faults []jobspec.Fault, nodes int) []jobspec.Fault {
	var out []jobspec.Fault
	for _, f := range faults {
		switch f.Kind {
		case "crash", "restart", "gpu-slow":
			if f.Node >= nodes {
				continue
			}
		default:
			if f.A >= nodes || f.B >= nodes {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// errRefused marks a submission the server answered but turned away
// (validation, backpressure, draining) — distinct from the server being
// unreachable, which must fail the whole run.
var errRefused = fmt.Errorf("submission refused")

func submit(base string, spec jobspec.Spec) (string, error) {
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var reply struct {
		ID    string `json:"id"`
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("%w: %s (%d)", errRefused, reply.Error.Message, resp.StatusCode)
	}
	return reply.ID, nil
}

// await polls until the job's status is terminal.
func await(base, id string, deadline time.Time) (string, error) {
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		var info struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch info.Status {
		case "done", "failed", "rejected":
			return info.Status, nil
		}
		time.Sleep(time.Millisecond)
	}
	return "", fmt.Errorf("job %s: timed out", id)
}

// fire submits one job and tracks it to completion.
func fire(opts options, spec jobspec.Spec, out chan<- result) {
	start := time.Now()
	id, err := submit(opts.base, spec)
	if err != nil {
		status := "error"
		if errors.Is(err, errRefused) {
			status = "refused"
		}
		out <- result{status: status}
		return
	}
	status, err := await(opts.base, id, start.Add(opts.timeout))
	if err != nil {
		out <- result{id: id, status: "lost"}
		return
	}
	out <- result{id: id, status: status, wall: time.Since(start)}
}

// openLoop fires jobs at Poisson arrivals independent of completions.
func openLoop(opts options, out chan<- result) {
	rng := stats.NewRNG(opts.seed)
	inter := stats.Exponential{MeanV: 1 / opts.rate}
	var wg sync.WaitGroup
	for k := 0; k < opts.jobs; k++ {
		spec := buildSpec(rng, opts, k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(opts, spec, out)
		}()
		time.Sleep(time.Duration(inter.Sample(rng) * float64(time.Second)))
	}
	wg.Wait()
}

// closedLoop runs opts.clients submitters, each waiting for its job
// before sending the next; the job total is split across clients with
// the remainder spread over the first ones, so exactly opts.jobs run.
func closedLoop(opts options, out chan<- result) {
	var wg sync.WaitGroup
	per, extra := opts.jobs/opts.clients, opts.jobs%opts.clients
	next := 0
	for c := 0; c < opts.clients; c++ {
		n := per
		if c < extra {
			n++
		}
		first := next
		next += n
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(c, first, n int) {
			defer wg.Done()
			rng := stats.NewRNG(opts.seed + uint64(c)*0x9e37)
			for k := 0; k < n; k++ {
				fire(opts, buildSpec(rng, opts, first+k), out)
			}
		}(c, first, n)
	}
	wg.Wait()
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func run() error {
	var (
		addr      = flag.String("addr", "localhost:8080", "rocketd address (host:port)")
		local     = flag.Bool("local", false, "spin an in-process rocketd instead of dialing -addr")
		localN    = flag.Int("local-nodes", 4, "cluster size of the in-process rocketd (-local)")
		mode      = flag.String("mode", "closed", "load shape: open (Poisson) or closed (burst clients)")
		rate      = flag.Float64("rate", 20, "open-loop arrival rate, jobs per wall second")
		jobs      = flag.Int("jobs", 32, "total jobs to submit")
		clients   = flag.Int("clients", 8, "closed-loop client count")
		items     = flag.Int("items", 12, "mean data-set size per job")
		maxNodes  = flag.Int("max-nodes", 2, "widest partition a job may request")
		appsFlag  = flag.String("apps", "forensics,microscopy", "comma-separated app mix")
		tenants   = flag.Int("tenants", 3, "number of tenants to spread jobs over")
		faultRate = flag.Float64("fault-rate", 0, "fraction of jobs submitted with a crash fault (with -scenario: with its schedule)")
		scenPath  = flag.String("scenario", "", "scenario file whose compiled chaos/fault schedule replaces the synthetic crash")
		seed      = flag.Uint64("seed", 1, "workload-generator seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-job completion timeout")
	)
	flag.Parse()

	opts := options{
		base:      "http://" + *addr,
		mode:      *mode,
		rate:      *rate,
		jobs:      *jobs,
		clients:   *clients,
		items:     *items,
		maxNodes:  *maxNodes,
		apps:      strings.Split(*appsFlag, ","),
		tenants:   *tenants,
		faultRate: *faultRate,
		seed:      *seed,
		timeout:   *timeout,
	}
	if opts.rate <= 0 || opts.jobs <= 0 || opts.clients <= 0 || opts.tenants <= 0 {
		return fmt.Errorf("rate, jobs, clients, and tenants must be positive")
	}
	if *scenPath != "" {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			return err
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", *scenPath, err)
		}
		sch, err := sc.CompileFaults()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", *scenPath, err)
		}
		opts.faults = jobspec.FaultsFromSchedule(sch)
		if len(opts.faults) == 0 {
			return fmt.Errorf("scenario %s compiles to a fault-free schedule", *scenPath)
		}
		if opts.faultRate == 0 {
			opts.faultRate = 1 // loading a scenario means its faults apply
		}
		fmt.Fprintf(os.Stderr, "rocketload: %d faults from scenario %q at rate %.2f\n",
			len(opts.faults), sc.Name, opts.faultRate)
	}

	if *local {
		srv, err := rocket.Serve(rocket.ServeConfig{
			Nodes:      *localN,
			Policy:     rocket.PolicyFairShare,
			MaxRetries: 1,
			Seed:       *seed,
			TimeScale:  1,
		})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		opts.base = ts.URL
		fmt.Fprintf(os.Stderr, "rocketload: in-process rocketd with %d nodes at %s\n", *localN, ts.URL)
	}

	out := make(chan result, opts.jobs)
	start := time.Now()
	switch opts.mode {
	case "open":
		openLoop(opts, out)
	case "closed":
		closedLoop(opts, out)
	default:
		return fmt.Errorf("unknown -mode %q (open or closed)", opts.mode)
	}
	wall := time.Since(start)
	close(out)

	counts := map[string]int{}
	var lat stats.Summary
	var sorted []float64
	for r := range out {
		counts[r.status]++
		if r.status == "done" {
			lat.Add(r.wall.Seconds())
			sorted = append(sorted, r.wall.Seconds())
		}
	}
	sort.Float64s(sorted)
	fmt.Printf("rocketload: %s mode, %d jobs in %.2fs wall (%.1f jobs/s)\n",
		opts.mode, opts.jobs, wall.Seconds(), float64(opts.jobs)/wall.Seconds())
	for _, st := range []string{"done", "failed", "rejected", "refused", "error", "lost"} {
		if counts[st] > 0 {
			fmt.Printf("  %-9s %d\n", st, counts[st])
		}
	}
	if lat.N() > 0 {
		fmt.Printf("  latency   mean %.1fms  p50 %.1fms  p95 %.1fms  max %.1fms\n",
			1e3*lat.Mean(), 1e3*percentile(sorted, 0.50),
			1e3*percentile(sorted, 0.95), 1e3*lat.Max())
	}
	if counts["lost"] > 0 {
		return fmt.Errorf("%d jobs lost (timeout)", counts["lost"])
	}
	if counts["error"] > 0 {
		return fmt.Errorf("%d submissions never reached the server", counts["error"])
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rocketload:", err)
		os.Exit(1)
	}
}
