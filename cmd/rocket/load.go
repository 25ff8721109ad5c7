package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"rocket"
	"rocket/internal/fault"
	"rocket/internal/jobspec"
	"rocket/internal/stats"
)

// cmdLoad drives a rocketd server with synthetic traffic: an open-loop
// Poisson arrival process or closed-loop burst clients, over a mixed
// application workload, optionally spiced with fault injection. It
// reports submission/completion counts and wall-clock latency statistics.
//
//	rocket load -addr localhost:8080 -mode open -rate 50 -jobs 100
//	rocket load -addr localhost:8080 -mode closed -clients 8 -jobs 64
//	rocket load -local -jobs 32          # self-contained smoke: in-process rocketd
//
// Open-loop mode submits jobs at exponential inter-arrival times
// regardless of completions (rate in jobs per wall second), which probes
// admission backpressure; closed-loop mode runs -clients submitters that
// each wait for their job to finish before sending the next, which probes
// service latency. -fault-rate injects a node crash into that fraction of
// jobs (their first attempt), exercising requeue-under-retry on a live
// service. -scenario loads a scenario file (see scenarios/) and injects
// its compiled chaos/fault schedule instead of the synthetic crash, so
// HTTP load tests and `rocket scenario` share one fault vocabulary.
func cmdLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.mode, "mode", "closed", "load shape: open (Poisson) or closed (burst clients)")
	fs.Float64Var(&o.rate, "rate", 20, "open-loop arrival rate, jobs per wall second")
	fs.IntVar(&o.jobs, "jobs", 32, "total jobs to submit")
	fs.IntVar(&o.clients, "clients", 8, "closed-loop client count")
	fs.IntVar(&o.items, "items", 12, "mean data-set size per job")
	fs.IntVar(&o.maxNodes, "max-nodes", 2, "widest partition a job may request")
	fs.IntVar(&o.tenants, "tenants", 3, "number of tenants to spread jobs over")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "fraction of jobs submitted with a crash fault (with -scenario: with its schedule)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload-generator seed")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Minute, "per-job completion timeout")
	var (
		addr     = fs.String("addr", "localhost:8080", "rocketd address (host:port)")
		local    = fs.Bool("local", false, "spin an in-process rocketd instead of dialing -addr")
		localN   = fs.Int("local-nodes", 4, "cluster size of the in-process rocketd (-local)")
		appsFlag = fs.String("apps", "forensics,microscopy", "comma-separated app mix")
		scenPath = fs.String("scenario", "", "scenario file whose compiled chaos/fault schedule replaces the synthetic crash")
	)
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	o.base, o.apps = "http://"+*addr, strings.Split(*appsFlag, ",")
	err := o.validate()
	if err == nil && *scenPath != "" {
		err = o.loadFaults(*scenPath, stderr)
	}
	if err != nil {
		return fail(fs, 2, err)
	}

	if *local {
		srv, err := rocket.Serve(rocket.ServeConfig{
			Nodes:      *localN,
			Policy:     rocket.PolicyFairShare,
			MaxRetries: 1,
			Seed:       o.seed,
			TimeScale:  1,
		})
		if err != nil {
			return fail(fs, 2, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		o.base = ts.URL
		fmt.Fprintf(stderr, "rocket load: in-process rocketd with %d nodes at %s\n", *localN, ts.URL)
	}
	if err := o.run(stdout); err != nil {
		return fail(fs, 1, err)
	}
	return 0
}

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
				Kind: fault.NodeCrash.String(),
				Node: 0,
				AtMS: 1 + 9*rng.Float64(),
			}}
		}
	}
	return spec
}

// clipFaults keeps the scenario faults that fit a job's partition width:
// every node index a record names is below nodes (the fields a kind does
// not use are zero on the wire). Paired events (crash+restart, cut+heal)
// always target the same nodes, so clipping never splits a pair.
func clipFaults(faults []jobspec.Fault, nodes int) []jobspec.Fault {
	var out []jobspec.Fault
	for _, f := range faults {
		if f.Node < nodes && f.A < nodes && f.B < nodes {
			out = append(out, f)
		}
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

// percentile interpolates linearly between the two samples around rank
// p·(n−1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// validate rejects option values the load generator cannot run with. It
// runs before a scenario is read or an in-process rocketd is started.
func (o options) validate() error {
	switch {
	case o.rate <= 0 || o.jobs <= 0 || o.clients <= 0 || o.tenants <= 0:
		return fmt.Errorf("rate, jobs, clients, and tenants must be positive")
	case o.maxNodes < 1:
		return fmt.Errorf("-max-nodes %d (want >= 1)", o.maxNodes)
	case o.items < 0:
		return fmt.Errorf("-items %d (want >= 0)", o.items)
	case o.mode != "open" && o.mode != "closed":
		return fmt.Errorf("unknown -mode %q (open or closed)", o.mode)
	case o.timeout <= 0:
		return fmt.Errorf("-timeout %v (want > 0)", o.timeout)
	case !(o.faultRate >= 0 && o.faultRate <= 1): // NaN fails both
		return fmt.Errorf("-fault-rate %v (want 0 <= rate <= 1)", o.faultRate)
	}
	for _, app := range o.apps {
		if app == "" {
			return fmt.Errorf("-apps %q names an empty application", strings.Join(o.apps, ","))
		}
	}
	return nil
}

// loadFaults reads the scenario at path and takes its compiled
// chaos/fault schedule, in wire form, as the faults jobs carry.
func (o *options) loadFaults(path string, stderr io.Writer) error {
	sc, err := loadScenario(path)
	if err != nil {
		return err
	}
	sch, err := sc.CompileFaults()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	o.faults, err = jobspec.FaultsFromSchedule(sch)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	if len(o.faults) == 0 {
		return fmt.Errorf("scenario %s compiles to a fault-free schedule", path)
	}
	if o.faultRate == 0 {
		o.faultRate = 1 // loading a scenario means its faults apply
	}
	fmt.Fprintf(stderr, "rocket load: %d faults from scenario %q at rate %.2f\n",
		len(o.faults), sc.Name, o.faultRate)
	return nil
}

// run submits the jobs, waits for every one, and prints the counts and
// latencies. It fails when a job was lost or never reached the server.
func (o options) run(stdout io.Writer) error {
	out := make(chan result, o.jobs)
	start := time.Now()
	if o.mode == "open" {
		openLoop(o, out)
	} else {
		closedLoop(o, out)
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
	fmt.Fprintf(stdout, "rocket load: %s mode, %d jobs in %.2fs wall (%.1f jobs/s)\n",
		o.mode, o.jobs, wall.Seconds(), float64(o.jobs)/wall.Seconds())
	for _, st := range []string{"done", "failed", "rejected", "refused", "error", "lost"} {
		if counts[st] > 0 {
			fmt.Fprintf(stdout, "  %-9s %d\n", st, counts[st])
		}
	}
	if lat.N() > 0 {
		fmt.Fprintf(stdout, "  latency   mean %.1fms  p50 %.1fms  p95 %.1fms  max %.1fms\n",
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
