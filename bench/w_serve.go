package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocket"
	"rocket/internal/jobspec"
	"rocket/internal/sched"
)

const (
	serveNodes = 8
	// openRate is the open loop's fixed arrival rate, about a quarter of
	// what serve_closed sustains on two cores.
	openRate = 150.0
	// warmJobs are submitted and awaited before anything is timed.
	warmJobs = 300
	// closedJobsPerSecond bounds the job list the closed loop draws from;
	// the loop stops at the time box long before the list ends.
	closedJobsPerSecond = 2500
	// digestJobs is how many of the first jobs the digest covers, so that
	// time-boxed runs of different lengths still compare.
	digestJobs = 1000
	drainWait  = 30 * time.Second
)

// server is one in-process rocketd behind a loopback listener.
type server struct {
	srv  *rocket.Server
	ts   *httptest.Server
	down bool
}

// startServer starts rocketd and discards a warm-up: warmJobs submitted
// and awaited one after another over one connection.
func startServer(seed uint64, warm int) (*server, error) {
	srv, err := rocket.Serve(rocket.ServeConfig{
		Nodes:      serveNodes,
		Policy:     rocket.PolicyFairShare,
		MaxRetries: 1,
		Seed:       seed,
		TimeScale:  1,
	})
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, ts: httptest.NewServer(srv.Handler())}
	c := newClient(s.ts.URL)
	defer c.close()
	for _, spec := range genJobs(seed^0x7761726d, warm, serveMix, "warm") {
		refused, err := c.submit(spec)
		if err == nil && refused {
			err = fmt.Errorf("warm-up job %s refused", spec.ID)
		}
		if err == nil {
			_, err = c.awaitTerminal(spec.ID)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// shutdown drains the fleet and returns its metrics; the listener stays
// up so the arrival log can still be fetched.
func (s *server) shutdown() (*sched.Metrics, error) {
	s.down = true
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *server) close() {
	if !s.down {
		// Nothing reads the metrics of a server torn down early.
		_, _ = s.shutdown()
	}
	s.ts.Close()
}

type serveInst struct {
	open bool
	seed uint64
	sv   *server
}

func setupServeOpen(c *config) (instance, error)   { return setupServe(c, true) }
func setupServeClosed(c *config) (instance, error) { return setupServe(c, false) }

func warmCount(c *config) int {
	if c.smoke {
		return 4
	}
	return warmJobs
}

func setupServe(c *config, open bool) (instance, error) {
	sv, err := startServer(c.seed, warmCount(c))
	if err != nil {
		return nil, err
	}
	return &serveInst{open: open, seed: c.seed, sv: sv}, nil
}

func (s *serveInst) close() { s.sv.close() }

// servePhase is what one load phase against one server measured.
type servePhase struct {
	latency    []float64 // ms per completed job
	rtt        []float64 // ms per submission
	late       []float64 // ms per submission, open loop only
	done       int
	span       float64 // seconds from the first send to the last completion
	cpuS       float64
	requests   int64
	refused    int
	listMs     float64
	scrapeMs   float64
	waitP50Ms  float64
	waitP99Ms  float64
	retries    float64
	rejected   float64
	replayS    float64
	replayJobs int
	digest     string
}

// closedLoop runs one client per processor, each on its own connection:
// submit, follow the job's event stream to its terminal event, fetch the
// result, next. A client takes the next unclaimed job of the list, so
// the jobs submitted are a prefix of it whatever the interleaving.
func closedLoop(r *result, base string, jobs []jobspec.Spec, seconds float64, tr *tracer) servePhase {
	var (
		ph   servePhase
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		last time.Time
	)
	start := time.Now()
	box := time.Duration(seconds * float64(time.Second))
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			defer func() { mu.Lock(); ph.requests += c.requests.Load(); mu.Unlock() }()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) || (k > 0 && time.Since(start) >= box) {
					return
				}
				spec := jobs[k]
				op := tr.begin("job "+spec.ID, "loadgen", -1, k)
				t0 := time.Now()
				sp := tr.begin("POST /v1/jobs", "serve", op, k)
				refused, err := c.submit(spec)
				tr.end(sp)
				rtt := time.Since(t0)
				var typ string
				var doc sched.JobDoc
				if err == nil && !refused {
					sp = tr.begin("queued and run", "sched", op, k)
					typ, err = c.awaitTerminal(spec.ID)
					tr.end(sp)
				}
				if err == nil && typ == sched.EventCompleted {
					sp = tr.begin("GET result", "serve", op, k)
					var code int
					var raw []byte
					code, raw, err = c.do(http.MethodGet, "/v1/jobs/"+spec.ID+"/result", nil)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("result of %s: status %d", spec.ID, code)
					}
					if err == nil {
						err = json.Unmarshal(raw, &doc)
					}
					tr.end(sp)
				}
				at := time.Now()
				tr.end(op)
				want := uint64(spec.Items) * uint64(spec.Items-1) / 2
				ok := err == nil && typ == sched.EventCompleted && doc.Inner != nil && doc.Inner.Pairs == want
				mu.Lock()
				ph.rtt = append(ph.rtt, ms(rtt))
				if refused {
					ph.refused++
				}
				r.check(ok, "job %s: refused=%v event=%q err=%v", spec.ID, refused, typ, err)
				if ok {
					ph.done++
					ph.latency = append(ph.latency, ms(at.Sub(t0)))
					if at.After(last) {
						last = at
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.span = last.Sub(start).Seconds()
	return ph
}

// openLoop runs the open-loop generator against a follower of the event
// stream and folds its result into a phase.
func openLoop(r *result, base string, jobs []jobspec.Spec, seed uint64, tr *tracer) (servePhase, error) {
	var ph servePhase
	poster, watcher := newClient(base), newClient(base)
	defer poster.close()
	defer watcher.close()
	f, err := follow(watcher, jobs)
	if err != nil {
		return ph, err
	}
	res := runOpenLoop(poster, f, jobs, genSchedule(seed, len(jobs), openRate), tr, drainWait)
	f.stop()
	r.attempts(len(jobs), res.refused+res.lost, "open-loop jobs")
	ph.latency, ph.rtt, ph.late = res.latency, res.rtt, res.late
	ph.done, ph.refused = len(res.latency), res.refused
	ph.span = res.span.Seconds()
	ph.requests = poster.requests.Load() + 1 // the event stream
	return ph, nil
}

// scrapeValue finds one sample of a Prometheus text exposition.
func scrapeValue(body []byte, series string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// jobList is the phase's job list: what the open loop submits, or what
// the closed loop draws a prefix from.
func (s *serveInst) jobList(seconds float64, smoke bool) []jobspec.Spec {
	switch {
	case smoke:
		return genJobs(s.seed, 12, serveMix, "job")
	case s.open:
		return genJobs(s.seed, int(openRate*seconds), serveMix, "job")
	default:
		return genJobs(s.seed, int(closedJobsPerSecond*seconds), serveMix, "job")
	}
}

// load drives sv for the time box.
func (s *serveInst) load(r *result, sv *server, jobs []jobspec.Spec, tr *tracer, seconds float64) (servePhase, error) {
	cpu0 := cpuSeconds()
	var ph servePhase
	if s.open {
		var err error
		if ph, err = openLoop(r, sv.ts.URL, jobs, s.seed, tr); err != nil {
			return ph, err
		}
	} else {
		ph = closedLoop(r, sv.ts.URL, jobs, seconds, tr)
	}
	ph.cpuS = cpuSeconds() - cpu0
	return ph, nil
}

// finish reads what the loaded server says about itself, drains it and
// replays its arrival log offline.
func (s *serveInst) finish(r *result, sv *server, jobs []jobspec.Spec, tr *tracer, ph *servePhase) error {
	// What a monitoring client pays with every job of the run resident.
	c := newClient(sv.ts.URL)
	defer c.close()
	root := tr.begin("end of run", "loadgen", -1, len(jobs))
	defer tr.end(root)
	sp := tr.begin("GET /v1/jobs", "serve", root, len(jobs))
	t := time.Now()
	code, _, err := c.do(http.MethodGet, "/v1/jobs", nil)
	ph.listMs = ms(time.Since(t))
	tr.end(sp)
	r.check(err == nil && code == http.StatusOK, "GET /v1/jobs: status %d, %v", code, err)
	sp = tr.begin("GET /metrics", "serve", root, len(jobs))
	t = time.Now()
	code, scrape, err := c.do(http.MethodGet, "/metrics", nil)
	ph.scrapeMs = ms(time.Since(t))
	tr.end(sp)
	r.check(err == nil && code == http.StatusOK, "GET /metrics: status %d, %v", code, err)
	ph.waitP50Ms = 1e3 * scrapeValue(scrape, "rocketd_p50_wait_seconds")
	ph.waitP99Ms = 1e3 * scrapeValue(scrape, "rocketd_p99_wait_seconds")
	ph.retries = scrapeValue(scrape, "rocketd_retries_total")
	ph.rejected = scrapeValue(scrape, `rocketd_jobs{state="rejected"}`)
	ph.requests += c.requests.Load() + 1 // the log fetch below

	sp = tr.begin("Server.Shutdown", "sched", root, len(jobs))
	fleet, err := sv.shutdown()
	tr.end(sp)
	if err != nil {
		return err
	}
	r.check(fleet.Failed == 0 && fleet.Rejected == 0, "fleet reports %d failed, %d rejected jobs", fleet.Failed, fleet.Rejected)
	served, err := fleet.JSON()
	if err != nil {
		return err
	}
	ph.digest = jobsDigest(r, fleet, jobs)

	// The served log, replayed through the batch scheduler with no HTTP
	// in the way, must reproduce the server's fleet metrics exactly.
	code, raw, err := c.do(http.MethodGet, "/v1/log", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/log: status %d, %v", code, err)
	}
	sp = tr.begin("sched.Run (replay of the served log)", "sched", root, len(jobs))
	defer tr.end(sp)
	t = time.Now()
	man, err := jobspec.Parse(raw)
	if err != nil {
		return err
	}
	cfg, err := man.Config()
	if err != nil {
		return err
	}
	replay, err := sched.Run(cfg)
	if err != nil {
		return err
	}
	ph.replayS, ph.replayJobs = time.Since(t).Seconds(), len(man.Jobs)
	replayed, err := replay.JSON()
	if err != nil {
		return err
	}
	r.check(bytes.Equal(served, replayed), "offline replay of the served log differs from the server's fleet metrics")
	return nil
}

// jobsDigest checks every completed job's pair count and hashes the
// simulated outcome of the first digestJobs jobs of the list.
func jobsDigest(r *result, fleet *sched.Metrics, jobs []jobspec.Spec) string {
	items := make(map[string]int, len(jobs))
	for _, j := range jobs {
		items[j.ID] = j.Items
	}
	type outcome struct {
		id  string
		doc []byte
	}
	var first []outcome
	limit := jobs[min(digestJobs, len(jobs))-1].ID // IDs sort in list order
	wrong := 0
	for i := range fleet.Jobs {
		jm := &fleet.Jobs[i]
		n, ok := items[jm.ID]
		if !ok || jm.Inner == nil {
			continue // a warm-up job, or one that never ran
		}
		if jm.Inner.Pairs != uint64(n)*uint64(n-1)/2 {
			wrong++
		}
		if jm.ID <= limit {
			doc, err := json.Marshal(jm.Inner.Summary())
			if err != nil {
				wrong++
			}
			first = append(first, outcome{jm.ID, doc})
		}
	}
	r.check(wrong == 0, "%d served jobs compared the wrong number of pairs", wrong)
	sort.Slice(first, func(a, b int) bool { return first[a].id < first[b].id })
	h := sha256.New()
	for _, o := range first {
		h.Write([]byte(o.id))
		h.Write(o.doc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// phase runs one whole phase against sv: the load (under a CPU profile
// when traced), then finish.
func (s *serveInst) phase(c *config, r *result, sv *server, tr *tracer, seconds float64) (servePhase, error) {
	jobs := s.jobList(seconds, c.smoke)
	var ph servePhase
	load := func() (err error) {
		ph, err = s.load(r, sv, jobs, tr, seconds)
		return err
	}
	var err error
	if tr == nil {
		err = load()
	} else {
		_, err = profiled(r, load)
	}
	if err == nil {
		err = s.finish(r, sv, jobs, tr, &ph)
	}
	return ph, err
}

func (s *serveInst) measure(c *config, r *result) error {
	seconds, tracedSeconds := c.seconds, 0.0
	if c.traced() {
		// A short untraced baseline, then the traced phase long enough
		// for a p99 of the open loop's 150 jobs/s.
		seconds, tracedSeconds = 0.3*c.seconds, 0.7*c.seconds
	}
	ph, err := s.phase(c, r, s.sv, nil, seconds)
	if err != nil {
		return err
	}
	r.Digest = ph.digest
	r.Counts["jobs_done"] = ph.done
	r.Counts["clients"] = 1
	if !s.open {
		r.Counts["clients"] = runtime.GOMAXPROCS(0)
	}
	if !r.check(ph.done > 0, "no job completed") {
		return nil
	}
	s.endToEnd(r, ph, c.smoke)
	if !c.traced() {
		return nil
	}

	sv, err := startServer(s.seed, warmCount(c))
	if err != nil {
		return err
	}
	defer sv.close()
	traced, err := s.phase(c, r, sv, c.tr, tracedSeconds)
	if err != nil {
		return err
	}
	r.Counts["traced_jobs_done"] = traced.done
	if !r.check(traced.done > 0, "no job completed in the traced phase") {
		return nil
	}
	s.layers(r, ph, traced)
	if !s.open && !c.smoke {
		serveMicro(c, r)
	}
	return nil
}

// endToEnd files the untraced phase's figures.
func (s *serveInst) endToEnd(r *result, ph servePhase, smoke bool) {
	rate := float64(ph.done) / ph.span
	r.timing("op_ms", ph.latency) // the median latency; its quartiles ride along
	r.set("work_per_s", rate)
	r.set("cpu_us_per_work", 1e6*ph.cpuS/float64(ph.done))
	if !s.open {
		r.set("jobs_per_s", rate)
		return
	}
	r.set("p50_ms", r.Values["op_ms"])
	p95, err := percentile(ph.latency, 0.95)
	if smoke && err != nil {
		return
	}
	if r.check(err == nil, "p95_ms: %v", err) {
		r.set("p95_ms", p95)
	}
}

// layers files the serve, sched and loadgen figures of the traced phase,
// and the tracing overhead against the untraced one.
func (s *serveInst) layers(r *result, plain, traced servePhase) {
	if s.open {
		r.set("trace_overhead_frac", overhead(median(plain.latency), median(traced.latency), false))
		r.set("loadgen.achieved_rate", float64(len(traced.rtt))/traced.span)
		if v, err := percentile(traced.late, 0.99); err == nil {
			r.set("loadgen.late_p99_ms", v)
			if v > 1 {
				r.note("disturbed: the open-loop generator ran %.2f ms late at p99", v)
				r.set("host.disturbed", 1)
			}
		}
	} else {
		r.set("trace_overhead_frac", overhead(float64(plain.done)/plain.span, float64(traced.done)/traced.span, true))
		r.set("serve.http_share_frac", 1-traced.replayS/traced.span)
	}
	r.set("serve.submit_rtt_p50_ms", median(traced.rtt))
	if v, err := percentile(traced.rtt, 0.99); err == nil {
		r.set("serve.submit_rtt_p99_ms", v)
	}
	if v, err := percentile(traced.latency, 0.99); err == nil {
		r.set("serve.p99_ms", v)
	}
	r.set("serve.list_ms_at_end", traced.listMs)
	r.set("serve.metrics_scrape_ms_at_end", traced.scrapeMs)
	r.set("serve.requests", float64(traced.requests))
	r.set("serve.refused", float64(traced.refused))
	r.set("sched.replay_s", traced.replayS)
	r.set("sched.replay_jobs_per_s", ratio(float64(traced.replayJobs), traced.replayS))
	r.set("sched.wait_p50_virtual_ms", traced.waitP50Ms)
	r.set("sched.wait_p99_virtual_ms", traced.waitP99Ms)
	r.set("sched.retries", traced.retries)
	r.set("sched.rejected", traced.rejected)
}
