package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocket/internal/jobspec"
	"rocket/internal/sched"
	"rocket/internal/stats"
)

// jobMix describes the small jobs both serve workloads submit.
type jobMix struct {
	apps               []string
	minItems, maxItems int
	maxNodes           int
	tenants            int
}

// serveMix pins the job size: 3-8 items (3-28 pairs) over 1-4 nodes. At
// this size the inner simulation (sim, core, cache, dht, cluster) takes a
// quarter to two fifths of the CPU samples of serve_closed, and serve, jobspec,
// sched, net/http and the allocator the rest; at 8-24 items it took two
// thirds and the serve workloads measured the simulator again.
var serveMix = jobMix{apps: jobspec.Apps(), minItems: 3, maxItems: 8, maxNodes: 4, tenants: 3}

// genJobs generates n job specs from seed. IDs and seeds are explicit, so
// a job's simulated outcome depends on nothing but its spec, whatever
// order clients submit in.
func genJobs(seed uint64, n int, mix jobMix, prefix string) []jobspec.Spec {
	rng := stats.NewRNG(seed ^ 0x6a6f6273)
	jobs := make([]jobspec.Spec, n)
	for k := range jobs {
		jobs[k] = jobspec.Spec{
			ID:     fmt.Sprintf("%s%06d", prefix, k),
			Tenant: fmt.Sprintf("tenant%d", k%mix.tenants),
			App:    mix.apps[rng.Intn(len(mix.apps))],
			Items:  mix.minItems + rng.Intn(mix.maxItems-mix.minItems+1),
			Nodes:  1 + rng.Intn(mix.maxNodes),
			Seed:   rng.Uint64() | 1,
		}
	}
	return jobs
}

// genSchedule generates n Poisson due times at rate per second, as
// offsets from the start of the run. The exponential gaps are scaled so
// the last job is due at exactly n/rate: every seed offers the same load
// over the same span, only the bunching differs.
func genSchedule(seed uint64, n int, rate float64) []time.Duration {
	rng := stats.NewRNG(seed ^ 0x64756573)
	inter := stats.Exponential{MeanV: 1 / rate}
	at := make([]float64, n)
	var sum float64
	for k := range at {
		sum += inter.Sample(rng)
		at[k] = sum
	}
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(at[k] / sum * float64(n) / rate * float64(time.Second))
	}
	return due
}

// client is one HTTP connection's worth of load generator.
type client struct {
	base     string
	http     *http.Client
	requests atomic.Int64
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do issues one request and returns the status and the whole body (read
// to the end so the connection is reused).
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.requests.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// submit POSTs one job; refused reports a submission the server answered
// but turned away.
func (c *client) submit(spec jobspec.Spec) (refused bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return false, err
	}
	code, _, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return false, err
	}
	return code != http.StatusAccepted, nil
}

var terminalEvents = map[string]bool{
	sched.EventCompleted: true,
	sched.EventFailed:    true,
	sched.EventRejected:  true,
}

// readSSE reads a Server-Sent Events stream and calls fn with each
// terminal event's job and type until the stream ends or fn returns
// false.
func readSSE(body io.Reader, fn func(job, typ string) bool) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && terminalEvents[typ]:
			var ev struct {
				Job string `json:"job"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return err
			}
			if !fn(ev.Job, typ) {
				return nil
			}
		}
	}
	return sc.Err()
}

// awaitTerminal follows one job's event stream, which the server ends at
// the job's terminal event, and returns that event's type.
func (c *client) awaitTerminal(id string) (string, error) {
	c.requests.Add(1)
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	last := ""
	err = readSSE(resp.Body, func(_, typ string) bool { last = typ; return false })
	if err == nil {
		// Drain to the end of the stream so the connection is reused.
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err == nil && last == "" {
		err = fmt.Errorf("events of %s ended without a terminal event", id)
	}
	return last, err
}

// follower watches GET /v1/events on a connection of its own and notes
// when each expected job reaches its terminal event.
type follower struct {
	index map[string]int // job id -> position; read-only once started
	body  io.Closer

	mu        sync.Mutex
	terminal  []time.Time // per position; zero until settled
	completed []bool      // per position: the terminal event was "completed"
	pending   int
	allDone   chan struct{} // closed when pending reaches 0
	stopped   chan struct{} // closed when the reader goroutine has exited
}

// follow connects and returns once the server has accepted the stream, so
// no event of a job submitted afterwards can be missed.
func follow(c *client, jobs []jobspec.Spec) (*follower, error) {
	resp, err := c.http.Get(c.base + "/v1/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /v1/events: status %d", resp.StatusCode)
	}
	f := &follower{
		index:     make(map[string]int, len(jobs)),
		body:      resp.Body,
		terminal:  make([]time.Time, len(jobs)),
		completed: make([]bool, len(jobs)),
		pending:   len(jobs),
		allDone:   make(chan struct{}),
		stopped:   make(chan struct{}),
	}
	for k, j := range jobs {
		f.index[j.ID] = k
	}
	go func() {
		defer close(f.stopped)
		// A read error ends the stream early; wait then reports the jobs
		// still pending as lost.
		_ = readSSE(resp.Body, func(job, typ string) bool {
			if k, ok := f.index[job]; ok { // else a warm-up job
				f.settle(k, time.Now(), typ == sched.EventCompleted)
			}
			return true
		})
	}()
	return f, nil
}

// settle marks position k terminal at the given instant.
func (f *follower) settle(k int, at time.Time, completed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.terminal[k].IsZero() {
		return
	}
	f.terminal[k], f.completed[k] = at, completed
	f.pending--
	if f.pending == 0 {
		close(f.allDone)
	}
}

// wait blocks until every expected job is settled, the stream breaks, or
// the timeout.
func (f *follower) wait(timeout time.Duration) {
	select {
	case <-f.allDone:
	case <-f.stopped:
	case <-time.After(timeout):
	}
}

// stop closes the stream and waits for the reader to exit.
func (f *follower) stop() {
	f.body.Close()
	<-f.stopped
}

// openLoopResult is what the open-loop generator saw, in milliseconds
// where it lists per-job samples.
type openLoopResult struct {
	latency []float64 // due -> terminal event seen, completed jobs only
	late    []float64 // due -> request sent
	rtt     []float64 // request sent -> reply received
	refused int       // answered but not accepted, or the server unreachable
	lost    int       // accepted, then failed or never seen terminal
	span    time.Duration
}

// runOpenLoop submits jobs[k] at start+due[k] from one goroutine over one
// connection, whatever the server's pace: the schedule is absolute, so a
// slow reply delays later sends without moving their due times, and every
// latency is counted from the due time. The generator's own lateness is
// reported beside it.
func runOpenLoop(c *client, f *follower, jobs []jobspec.Spec, due []time.Duration, tr *tracer, drain time.Duration) openLoopResult {
	res := openLoopResult{late: make([]float64, 0, len(jobs)), rtt: make([]float64, 0, len(jobs))}
	start := time.Now().Add(20 * time.Millisecond)
	ops := make([]int, len(jobs))
	replied := make([]time.Time, len(jobs))
	turnedAway := make([]bool, len(jobs))
	for k, spec := range jobs {
		dueAt := start.Add(due[k])
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		refused, err := c.submit(spec)
		replied[k] = time.Now()
		res.late = append(res.late, ms(sent.Sub(dueAt)))
		res.rtt = append(res.rtt, ms(replied[k].Sub(sent)))
		ops[k] = tr.beginAt(dueAt, "job "+spec.ID, "loadgen", -1, k)
		tr.endAt(tr.beginAt(sent, "POST /v1/jobs", "serve", ops[k], k), replied[k])
		if refused || err != nil {
			res.refused++
			turnedAway[k] = true
			f.settle(k, replied[k], false)
		}
	}
	f.wait(drain)

	f.mu.Lock()
	defer f.mu.Unlock()
	var last time.Time
	for k := range jobs {
		at := f.terminal[k]
		switch {
		case turnedAway[k]:
		case at.IsZero():
			res.lost++
			at = replied[k]
		case !f.completed[k]:
			res.lost++
		default:
			res.latency = append(res.latency, ms(at.Sub(start.Add(due[k]))))
			tr.endAt(tr.beginAt(replied[k], "queued and run", "sched", ops[k], k), at)
			if at.After(last) {
				last = at
			}
		}
		tr.endAt(ops[k], at)
	}
	res.span = last.Sub(start)
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
