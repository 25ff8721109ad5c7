package sched

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/sim"
)

// fakeApp is a minimal deterministic application for scheduler tests:
// n items, constant per-stage costs dominated by cmp.
type fakeApp struct {
	name string
	n    int
	cmp  sim.Time
}

func (f fakeApp) Name() string                      { return f.name }
func (f fakeApp) NumItems() int                     { return f.n }
func (f fakeApp) FileSize(int) int64                { return 1 << 20 }
func (f fakeApp) ItemSize() int64                   { return 1 << 20 }
func (f fakeApp) ResultSize() int64                 { return 8 }
func (f fakeApp) ParseTime(int) sim.Time            { return sim.Micros(50) }
func (f fakeApp) PreprocessTime(int) sim.Time       { return sim.Micros(50) }
func (f fakeApp) CompareTime(int, int) sim.Time     { return f.cmp }
func (f fakeApp) PostprocessTime(int, int) sim.Time { return sim.Micros(10) }

func smallApp(name string, n int, cmp sim.Time) fakeApp {
	return fakeApp{name: name, n: n, cmp: cmp}
}

// pendingFor builds jobState queues for direct pick() tests.
func pendingFor(jobs ...Job) []*jobState {
	states, err := newStates(Config{Jobs: jobs, Nodes: 64, Seed: 1}.mustNormalize())
	if err != nil {
		panic(err)
	}
	return states
}

func (cfg Config) mustNormalize() Config {
	n, err := cfg.normalize()
	if err != nil {
		panic(err)
	}
	return n
}

func TestPickOrderingInvariants(t *testing.T) {
	short := smallApp("short", 4, sim.Millis(1))
	long := smallApp("long", 32, sim.Millis(50))
	cases := []struct {
		name    string
		policy  Policy
		jobs    []Job
		free    int
		running []*jobState
		usage   map[string]float64
		want    int // index into pending; -1 = nothing may start
	}{
		{
			name:   "fifo picks head when it fits",
			policy: PolicyFIFO,
			jobs:   []Job{{App: long, Nodes: 4}, {App: short, Nodes: 1}},
			free:   4,
			want:   0,
		},
		{
			name:   "fifo blocks behind a wide head",
			policy: PolicyFIFO,
			jobs:   []Job{{App: long, Nodes: 8}, {App: short, Nodes: 1}},
			free:   4,
			want:   -1, // no bypass: head-of-line blocking is the point
		},
		{
			name:   "sjf bypasses a long head",
			policy: PolicySJF,
			jobs:   []Job{{App: long, Nodes: 1}, {App: short, Nodes: 1}},
			free:   2,
			want:   1,
		},
		{
			name:   "sjf skips fitting check per job",
			policy: PolicySJF,
			jobs:   []Job{{App: short, Nodes: 8}, {App: long, Nodes: 2}},
			free:   4,
			want:   1, // the short job does not fit, the long one does
		},
		{
			name:   "sjf breaks ties toward earlier arrival",
			policy: PolicySJF,
			jobs:   []Job{{App: short, Nodes: 1}, {App: short, Nodes: 1}},
			free:   2,
			want:   0,
		},
		{
			name:   "fair-share prefers the unserved tenant",
			policy: PolicyFairShare,
			jobs:   []Job{{App: short, Tenant: "greedy", Nodes: 1}, {App: short, Tenant: "starved", Nodes: 1}},
			free:   2,
			usage:  map[string]float64{"greedy": 100},
			want:   1,
		},
		{
			name:   "fair-share breaks tenant ties toward arrival order",
			policy: PolicyFairShare,
			jobs:   []Job{{App: short, Tenant: "a", Nodes: 1}, {App: short, Tenant: "b", Nodes: 1}},
			free:   2,
			want:   0,
		},
		{
			name:   "fair-share only considers fitting jobs",
			policy: PolicyFairShare,
			jobs:   []Job{{App: short, Tenant: "starved", Nodes: 8}, {App: short, Tenant: "greedy", Nodes: 1}},
			free:   2,
			usage:  map[string]float64{"greedy": 100},
			want:   1,
		},
		{
			name:   "nothing fits",
			policy: PolicySJF,
			jobs:   []Job{{App: short, Nodes: 8}, {App: long, Nodes: 8}},
			free:   4,
			want:   -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pending := pendingFor(tc.jobs...)
			usage := tc.usage
			if usage == nil {
				usage = map[string]float64{}
			}
			got := pick(tc.policy, pending, tc.running, tc.free, 0, usage)
			if got != tc.want {
				t.Fatalf("pick(%v) = %d, want %d", tc.policy, got, tc.want)
			}
		})
	}
}

func TestFairShareCountsRunningJobs(t *testing.T) {
	short := smallApp("short", 4, sim.Millis(1))
	states := pendingFor(
		Job{App: short, Tenant: "a", Nodes: 1},
		Job{App: short, Tenant: "b", Nodes: 1},
	)
	// Tenant a has no completed usage but holds 4 nodes for 10s of
	// running time; fair-share must charge it and pick tenant b.
	running := []*jobState{{tenant: "a", lease: []int{0, 1, 2, 3}, start: 0}}
	got := pick(PolicyFairShare, states, running, 2, sim.Seconds(10), map[string]float64{})
	if got != 1 {
		t.Fatalf("pick = %d, want 1 (tenant b; tenant a is charged for running nodes)", got)
	}
}

func TestFairShareAlternatesWithinOnePlacementInstant(t *testing.T) {
	// Both tenants burst jobs at t=0. Elapsed running time is zero for
	// jobs placed this instant, so fairness must come from the
	// held-node tie-break: placements alternate a, b, a, b instead of
	// draining tenant a's arrivals first.
	short := smallApp("short", 4, sim.Millis(1))
	pending := pendingFor(
		Job{App: short, Tenant: "a", Nodes: 1},
		Job{App: short, Tenant: "a", Nodes: 1},
		Job{App: short, Tenant: "b", Nodes: 1},
		Job{App: short, Tenant: "b", Nodes: 1},
	)
	var running []*jobState
	var order []string
	for len(pending) > 0 {
		i := pick(PolicyFairShare, pending, running, 4, 0, map[string]float64{})
		if i < 0 {
			t.Fatal("pick refused a fitting job")
		}
		js := pending[i]
		pending = append(pending[:i], pending[i+1:]...)
		js.lease = []int{len(running)}
		running = append(running, js)
		order = append(order, js.tenant)
	}
	want := []string{"a", "b", "a", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("placement order = %v, want %v", order, want)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func mixedJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		switch i % 3 {
		case 0:
			jobs[i] = Job{Tenant: "batch", App: smallApp("big", 12, sim.Millis(20)), Nodes: 2}
		case 1:
			jobs[i] = Job{Tenant: "interactive", App: smallApp("small", 6, sim.Millis(2)), Nodes: 1}
		default:
			jobs[i] = Job{Tenant: "interactive", App: smallApp("tiny", 4, sim.Millis(1)), Nodes: 1,
				Arrival: sim.Millis(float64(i))}
		}
	}
	return jobs
}

func TestRunAllPoliciesCompleteAndConserve(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			m, err := Run(Config{Jobs: mixedJobs(12), Nodes: 4, Policy: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed != 12 || m.Rejected != 0 {
				t.Fatalf("completed %d rejected %d, want 12/0", m.Completed, m.Rejected)
			}
			var wantPairs uint64
			for _, j := range mixedJobs(12) {
				n := uint64(j.App.NumItems())
				wantPairs += n * (n - 1) / 2
			}
			if m.Pairs != wantPairs {
				t.Fatalf("pairs = %d, want %d", m.Pairs, wantPairs)
			}
			if m.Utilization <= 0 || m.Utilization > 1 {
				t.Fatalf("utilization = %v outside (0, 1]", m.Utilization)
			}
			for _, j := range m.Jobs {
				if j.Start < j.Arrival || j.End < j.Start {
					t.Fatalf("job %s has inconsistent times: %+v", j.ID, j)
				}
			}
		})
	}
}

func TestRunIsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Metrics {
		m, err := Run(Config{Jobs: mixedJobs(12), Nodes: 4, Policy: PolicyFairShare, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(8)
	if a.Makespan != b.Makespan || a.MeanWait != b.MeanWait || a.Pairs != b.Pairs {
		t.Fatalf("worker count changed results: %v/%v vs %v/%v", a.Makespan, a.MeanWait, b.Makespan, b.MeanWait)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Start != b.Jobs[i].Start || a.Jobs[i].End != b.Jobs[i].End ||
			!reflect.DeepEqual(a.Jobs[i].Nodes, b.Jobs[i].Nodes) {
			t.Fatalf("job %d schedule differs across worker counts", i)
		}
	}
}

func TestLeasesNeverOverlap(t *testing.T) {
	m, err := Run(Config{Jobs: mixedJobs(12), Nodes: 3, Policy: PolicySJF, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range m.Jobs {
		for _, b := range m.Jobs[i+1:] {
			if a.End <= b.Start || b.End <= a.Start {
				continue // disjoint in time
			}
			for _, na := range a.Nodes {
				for _, nb := range b.Nodes {
					if na == nb {
						t.Fatalf("jobs %s and %s overlap in time and share node %d", a.ID, b.ID, na)
					}
				}
			}
		}
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	// All jobs arrive at t=0: admission sees the instantaneous queue, so
	// two jobs are admitted and the remaining four are shed before
	// placement drains the queue.
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{App: smallApp("j", 4, sim.Millis(5))}
	}
	m, err := Run(Config{Jobs: jobs, Nodes: 1, MaxQueued: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 || m.Rejected != 4 {
		t.Fatalf("completed %d rejected %d, want 2/4", m.Completed, m.Rejected)
	}
	// Staggered arrivals are admitted once the queue drains.
	for i := range jobs {
		jobs[i].Arrival = sim.Millis(float64(40 * i))
	}
	m, err = Run(Config{Jobs: jobs, Nodes: 1, MaxQueued: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 6 || m.Rejected != 0 {
		t.Fatalf("staggered: completed %d rejected %d, want 6/0", m.Completed, m.Rejected)
	}
}

func TestMaxRunningCapsConcurrency(t *testing.T) {
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{App: smallApp("j", 4, sim.Millis(5))}
	}
	m, err := Run(Config{Jobs: jobs, Nodes: 4, MaxRunning: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With one job at a time, executions must be strictly sequential.
	for i, a := range m.Jobs {
		for _, b := range m.Jobs[i+1:] {
			if a.End > b.Start && b.End > a.Start {
				t.Fatalf("jobs %s and %s ran concurrently despite MaxRunning=1", a.ID, b.ID)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	app := smallApp("j", 4, sim.Millis(1))
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no jobs", Config{Nodes: 2}, "Config.Jobs is empty"},
		{"no nodes", Config{Jobs: []Job{{App: app}}}, "Config.Nodes must be >= 1"},
		{"missing app", Config{Jobs: []Job{{}}, Nodes: 2}, "has no App"},
		{"too wide", Config{Jobs: []Job{{App: app, Nodes: 3}}, Nodes: 2}, "requests 3 nodes"},
		{"duplicate ids", Config{Jobs: []Job{{ID: "x", App: app}, {ID: "x", App: app}}, Nodes: 2}, "share ID"},
		{"negative arrival", Config{Jobs: []Job{{App: app, Arrival: -1}}, Nodes: 2}, "negative arrival"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestReportMentionsEveryJob(t *testing.T) {
	m, err := Run(Config{Jobs: mixedJobs(6), Nodes: 2, Policy: PolicyFIFO, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Report()
	for i := range m.Jobs {
		if want := fmt.Sprintf("job%d", i); !containsWord(out, want) {
			t.Fatalf("report missing %s:\n%s", want, out)
		}
	}
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return true
		}
	}
	return false
}

// A job whose partition dies under it (fault injection, no restart) must
// be requeued and complete on a later attempt, not abort the fleet.
func TestPartitionLossRequeuesJob(t *testing.T) {
	doomed := new(fault.Schedule).Crash(0, sim.Millis(5))
	jobs := []Job{
		{ID: "victim", App: smallApp("victim", 8, sim.Millis(1)), Nodes: 1, Faults: doomed},
		{ID: "bystander", App: smallApp("bystander", 8, sim.Millis(1)), Nodes: 1},
	}
	m, err := Run(Config{Jobs: jobs, Nodes: 2, Seed: 1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 || m.Rejected != 0 {
		t.Fatalf("completed=%d rejected=%d", m.Completed, m.Rejected)
	}
	if m.Retries != 1 {
		t.Fatalf("fleet retries = %d, want 1", m.Retries)
	}
	var victim JobMetrics
	for _, jm := range m.Jobs {
		if jm.ID == "victim" {
			victim = jm
		}
	}
	if victim.Retries != 1 {
		t.Fatalf("victim retries = %d, want 1", victim.Retries)
	}
	if victim.Inner == nil || victim.Inner.Crashes != 0 {
		t.Fatalf("final attempt must be fault-free, got %+v", victim.Inner)
	}
	if victim.Inner.Pairs == 0 {
		t.Fatal("victim never completed its pairs")
	}
}

// Without MaxRetries, partition loss aborts the run with the wrapped
// sentinel so callers can distinguish it from application failures.
func TestPartitionLossFatalWithoutRetries(t *testing.T) {
	doomed := new(fault.Schedule).Crash(0, sim.Millis(5))
	jobs := []Job{{ID: "victim", App: smallApp("victim", 8, sim.Millis(1)), Nodes: 1, Faults: doomed}}
	_, err := Run(Config{Jobs: jobs, Nodes: 1, Seed: 1})
	if !errors.Is(err, core.ErrPartitionLost) {
		t.Fatalf("err = %v, want wrapped core.ErrPartitionLost", err)
	}
}

// Retries are bounded: a job that loses its partition fails the run once
// the budget is spent. Faults apply to attempt 0 only and retries run
// fault-free, so a job loses its partition at most once: a budget of 0
// fails the run, and a larger budget spends exactly one retry.
func TestRetriesAreBounded(t *testing.T) {
	run := func(retries int) (*Metrics, error) {
		doomed := new(fault.Schedule).Crash(0, sim.Millis(5))
		return Run(Config{
			Jobs:       []Job{{ID: "cursed", App: smallApp("cursed", 10, sim.Millis(20)), Faults: doomed}},
			Nodes:      1,
			Seed:       1,
			MaxRetries: retries,
		})
	}
	if _, err := run(0); !errors.Is(err, core.ErrPartitionLost) {
		t.Fatalf("err = %v, want core.ErrPartitionLost with no retry budget", err)
	}
	m, err := run(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Jobs[0].Retries; got != 1 {
		t.Fatalf("with a budget of 3: %d retries, want 1", got)
	}
	if _, err := Run(Config{Jobs: []Job{{App: smallApp("j", 4, sim.Millis(1))}}, Nodes: 1, Seed: 1, MaxRetries: -1}); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
}
