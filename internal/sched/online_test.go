package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"rocket/internal/core"
	"rocket/internal/fault"
	"rocket/internal/sim"
)

func onlineConfig(nodes int) Config {
	return Config{Nodes: nodes, Policy: PolicyFairShare, Seed: 7}
}

// shutdownNow drains o with no deadline and fails the test on error.
func shutdownNow(t *testing.T, o *Online) *Metrics {
	t.Helper()
	m, err := o.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replayBytes runs the batch replay of o's arrival log and returns both
// serialized fleet metrics for byte-comparison. It also requires every
// job's online record (what GET /v1/jobs/{id}/result serves) to equal the
// replay's.
func replayBytes(t *testing.T, o *Online, m *Metrics) (online, batch []byte) {
	t.Helper()
	rm, err := Run(o.ReplayConfig())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i := range rm.Jobs {
		want := rm.Jobs[i].Doc()
		jm, ok := o.JobMetrics(want.ID)
		if !ok {
			t.Fatalf("job %s: no online record", want.ID)
		}
		if got := jm.Doc(); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s: online record differs from replay\nonline: %+v\nreplay: %+v", want.ID, got, want)
		}
	}
	online, err = m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	batch, err = rm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return online, batch
}

// The replay-fidelity property: whatever interleaving of concurrent
// submissions the online scheduler happens to observe, replaying the
// recorded arrival log through the batch scheduler produces byte-identical
// fleet metrics. Each trial uses a different submission schedule.
func TestOnlineReplayMatchesBatch(t *testing.T) {
	apps := []fakeApp{
		smallApp("tiny", 4, sim.Millis(1)),
		smallApp("small", 6, sim.Millis(2)),
		smallApp("big", 10, sim.Millis(10)),
	}
	for trial := 0; trial < 5; trial++ {
		o, err := StartOnline(onlineConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*31 + g)))
				for k := 0; k < 3; k++ {
					app := apps[rng.Intn(len(apps))]
					tenant := []string{"alpha", "beta"}[rng.Intn(2)]
					if _, err := o.Submit(Job{Tenant: tenant, App: app, Nodes: 1 + rng.Intn(2)}); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
			}(g)
		}
		wg.Wait()
		m := shutdownNow(t, o)
		if m.Completed != 12 {
			t.Fatalf("trial %d: completed %d/12", trial, m.Completed)
		}
		got, want := replayBytes(t, o, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: online metrics differ from batch replay\nonline:\n%s\nreplay:\n%s",
				trial, got, want)
		}
	}
}

// Eight concurrent submitters against one scheduler: everything they
// submit before shutdown completes, and the query API stays consistent
// under the race detector.
func TestOnlineConcurrentSubmitters(t *testing.T) {
	o, err := StartOnline(onlineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 4
	var wg sync.WaitGroup
	ids := make([][]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				id, err := o.Submit(Job{App: smallApp("j", 4, sim.Millis(1))})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				ids[c] = append(ids[c], id)
				if _, ok := o.Job(id); !ok {
					t.Errorf("client %d: job %s not visible after submit", c, id)
				}
			}
		}(c)
	}
	wg.Wait()
	m := shutdownNow(t, o)
	if m.Completed != clients*each {
		t.Fatalf("completed %d, want %d", m.Completed, clients*each)
	}
	for _, batch := range ids {
		for _, id := range batch {
			info, ok := o.Job(id)
			if !ok || info.Status != StatusDone {
				t.Fatalf("job %s: status %v, want done", id, info.Status)
			}
			if _, ok := o.JobMetrics(id); !ok {
				t.Fatalf("job %s: no metrics after completion", id)
			}
		}
	}
}

// Drain semantics: submissions after Shutdown begins are rejected with
// the typed sentinel, accepted work still drains.
func TestOnlineSubmitAfterShutdownRejected(t *testing.T) {
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(Job{App: smallApp("j", 6, sim.Millis(2))}); err != nil {
		t.Fatal(err)
	}
	go o.Shutdown(context.Background())
	for !o.Draining() {
		time.Sleep(50 * time.Microsecond)
	}
	if _, err := o.Submit(Job{App: smallApp("late", 4, sim.Millis(1))}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
	m := shutdownNow(t, o)
	if m.Completed != 1 || len(m.Jobs) != 1 {
		t.Fatalf("drained fleet: %d completed of %d jobs, want 1/1", m.Completed, len(m.Jobs))
	}
}

// The Shutdown context bounds the wait, not the work: an expired deadline
// reports context.DeadlineExceeded while the drain continues, and a later
// unbounded Shutdown collects the result.
func TestOnlineShutdownDeadline(t *testing.T) {
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := o.Submit(Job{App: smallApp("j", 8, sim.Millis(2))}); err != nil {
			t.Fatal(err)
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := o.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown(expired) err = %v, want DeadlineExceeded", err)
	}
	m := shutdownNow(t, o)
	if m.Completed != 4 {
		t.Fatalf("completed %d/4 after deadline retry", m.Completed)
	}
}

// MaxQueued backpressure applies online exactly as in batch mode, and
// rejected submissions are part of the replayable log.
func TestOnlineBackpressureReplay(t *testing.T) {
	cfg := onlineConfig(1)
	cfg.MaxQueued = 1
	o, err := StartOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Burst faster than the single node can drain: some must be shed.
	for i := 0; i < 6; i++ {
		if _, err := o.Submit(Job{App: smallApp("j", 6, sim.Millis(5))}); err != nil {
			t.Fatal(err)
		}
	}
	m := shutdownNow(t, o)
	if m.Completed+m.Rejected != 6 || m.Failed != 0 {
		t.Fatalf("completed %d + rejected %d != 6 (failed %d)", m.Completed, m.Rejected, m.Failed)
	}
	got, want := replayBytes(t, o, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("backpressure replay differs\nonline:\n%s\nreplay:\n%s", got, want)
	}
}

// A failing job surfaces as StatusFailed without taking the service down,
// and the failure replays identically (the replay config carries
// KeepGoing).
func TestOnlineFailedJobKeepsServing(t *testing.T) {
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	doomed := new(fault.Schedule).Crash(0, sim.Millis(5))
	badID, err := o.Submit(Job{ID: "doomed", App: smallApp("doomed", 8, sim.Millis(1)), Faults: doomed})
	if err != nil {
		t.Fatal(err)
	}
	okID, err := o.Submit(Job{ID: "fine", App: smallApp("fine", 6, sim.Millis(1))})
	if err != nil {
		t.Fatal(err)
	}
	m := shutdownNow(t, o)
	if m.Completed != 1 || m.Failed != 1 {
		t.Fatalf("completed %d failed %d, want 1/1", m.Completed, m.Failed)
	}
	bad, _ := o.Job(badID)
	if bad.Status != StatusFailed || bad.Error == "" {
		t.Fatalf("doomed job: %+v, want failed with error", bad)
	}
	if !errors.Is(errFromInfo(o, badID), core.ErrPartitionLost) {
		t.Fatalf("doomed job error %q does not mention partition loss", bad.Error)
	}
	good, _ := o.Job(okID)
	if good.Status != StatusDone {
		t.Fatalf("bystander job: %+v, want done", good)
	}
	got, want := replayBytes(t, o, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("failure replay differs\nonline:\n%s\nreplay:\n%s", got, want)
	}
}

// errFromInfo resurrects the jobState error for sentinel checks.
func errFromInfo(o *Online, id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byID[id].js.err
}

// Partition loss with retry budget requeues online, emits a retrying
// event, and replays identically.
func TestOnlineRetryReplay(t *testing.T) {
	cfg := onlineConfig(2)
	cfg.MaxRetries = 2
	o, err := StartOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doomed := new(fault.Schedule).Crash(0, sim.Millis(5))
	id, err := o.Submit(Job{App: smallApp("victim", 8, sim.Millis(1)), Faults: doomed})
	if err != nil {
		t.Fatal(err)
	}
	m := shutdownNow(t, o)
	if m.Completed != 1 || m.Retries != 1 {
		t.Fatalf("completed %d retries %d, want 1/1", m.Completed, m.Retries)
	}
	info, _ := o.Job(id)
	if info.Status != StatusDone || info.Retries != 1 {
		t.Fatalf("victim info %+v, want done with 1 retry", info)
	}
	evs, _ := o.EventsSince(0)
	if !hasEvent(evs, EventRetrying, id) {
		t.Fatalf("no retrying event for %s in %+v", id, evs)
	}
	got, want := replayBytes(t, o, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("retry replay differs\nonline:\n%s\nreplay:\n%s", got, want)
	}
}

func hasEvent(evs []Event, typ, job string) bool {
	for _, e := range evs {
		if e.Type == typ && e.Job == job {
			return true
		}
	}
	return false
}

// The event stream records the full lifecycle in order, and every job
// event carries the virtual time it reports.
func TestOnlineEventLifecycle(t *testing.T) {
	cfg := onlineConfig(1)
	cfg.MaxRetries = 1
	o, err := StartOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := o.Submit(Job{App: smallApp("j", 4, sim.Millis(1))})
	if err != nil {
		t.Fatal(err)
	}
	// The victim queues behind id on the one node and loses it once.
	victim, err := o.Submit(Job{App: smallApp("v", 8, sim.Millis(1)), Faults: new(fault.Schedule).Crash(0, sim.Millis(5))})
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, o)
	evs, _ := o.EventsSince(0)
	lifecycle := func(job string) (order []string, clocks []int64) {
		for _, e := range evs {
			if e.Job == job {
				order = append(order, e.Type)
				clocks = append(clocks, e.ClockNS)
			}
		}
		return order, clocks
	}
	order, clocks := lifecycle(id)
	if want := []string{EventSubmitted, EventQueued, EventStarted, EventCompleted}; !reflect.DeepEqual(order, want) {
		t.Fatalf("event order %v, want %v", order, want)
	}
	info, _ := o.Job(id)
	if want := []int64{clocks[0], info.ArrivalNS, info.StartNS, info.EndNS}; !reflect.DeepEqual(clocks, want) {
		t.Fatalf("%s event clocks %v, want %v", id, clocks, want)
	}
	vorder, vclocks := lifecycle(victim)
	if want := []string{EventSubmitted, EventQueued, EventStarted, EventRetrying, EventStarted, EventCompleted}; !reflect.DeepEqual(vorder, want) {
		t.Fatalf("victim event order %v, want %v", vorder, want)
	}
	// The first attempt starts when id frees the node; the requeued one
	// restarts the instant its attempt ends, on the node it just released.
	vinfo, _ := o.Job(victim)
	if want := []int64{vclocks[0], vinfo.ArrivalNS, info.EndNS, vinfo.StartNS, vinfo.StartNS, vinfo.EndNS}; !reflect.DeepEqual(vclocks, want) {
		t.Fatalf("victim event clocks %v, want %v", vclocks, want)
	}
	if last := evs[len(evs)-1]; last.Type != EventShutdown {
		t.Fatalf("final event %+v, want shutdown", last)
	}
	// The wake channel from a drained stream closes on no further events.
	evs2, wake := o.EventsSince(len(evs))
	if len(evs2) != 0 {
		t.Fatalf("unexpected trailing events %+v", evs2)
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed with no new events")
	default:
	}
}

// Submit validates synchronously: structural errors never enter the log.
func TestOnlineSubmitValidation(t *testing.T) {
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(Job{}); err == nil {
		t.Fatal("accepted a job with no App")
	}
	if _, err := o.Submit(Job{App: smallApp("wide", 4, sim.Millis(1)), Nodes: 3}); err == nil {
		t.Fatal("accepted a job wider than the cluster")
	}
	if _, err := o.Submit(Job{ID: "x", App: smallApp("a", 4, sim.Millis(1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(Job{ID: "x", App: smallApp("b", 4, sim.Millis(1))}); err == nil {
		t.Fatal("accepted a duplicate ID")
	}
	if m := shutdownNow(t, o); len(m.Jobs) != 1 {
		t.Fatalf("log has %d jobs, want 1", len(m.Jobs))
	}
	if _, err := StartOnline(Config{Jobs: []Job{{App: smallApp("j", 4, 1)}}, Nodes: 2}); err == nil {
		t.Fatal("online mode accepted batch Jobs")
	}
}

// The wall-clock bridge: with TimeScale set, a submission against an idle
// fleet is assigned a virtual arrival reflecting elapsed wall time, and
// the log still replays identically.
func TestOnlineWallClockBridge(t *testing.T) {
	cfg := onlineConfig(2)
	cfg.TimeScale = 1000 // 1 wall ms = 1 virtual s: coarse enough to observe
	o, err := StartOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	id, err := o.Submit(Job{App: smallApp("j", 4, sim.Millis(1))})
	if err != nil {
		t.Fatal(err)
	}
	m := shutdownNow(t, o)
	info, _ := o.Job(id)
	if info.ArrivalNS < int64(sim.Seconds(1)) {
		t.Fatalf("arrival %v does not reflect wall delay", sim.Time(info.ArrivalNS))
	}
	got, want := replayBytes(t, o, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("wall-bridge replay differs\nonline:\n%s\nreplay:\n%s", got, want)
	}
}

// The event stream is a bounded sliding window: a long-running scheduler
// must not retain events forever, and lagging subscribers skip the gap
// instead of faulting.
func TestOnlineEventWindowBounded(t *testing.T) {
	defer SetEventCap(16)()
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // ~4 events each: well past the cap of 16
		if _, err := o.Submit(Job{App: smallApp("j", 4, sim.Millis(1))}); err != nil {
			t.Fatal(err)
		}
	}
	shutdownNow(t, o)
	o.mu.Lock()
	retained, base := len(o.events), o.eventsBase
	o.mu.Unlock()
	if retained > 16 {
		t.Fatalf("window holds %d events, cap 16", retained)
	}
	if base == 0 {
		t.Fatal("nothing was ever trimmed")
	}
	// Absolute sequence numbers survive trimming.
	evs, _ := o.EventsSince(0)
	if len(evs) == 0 || evs[0].Seq != base {
		t.Fatalf("EventsSince(0): first seq %d, want base %d", evs[0].Seq, base)
	}
	if last := evs[len(evs)-1]; last.Seq != base+len(evs)-1 || last.Type != EventShutdown {
		t.Fatalf("last event %+v inconsistent with base %d", last, base)
	}
	// A cursor inside the dropped range clamps forward, not backward.
	evs2, _ := o.EventsSince(base - 1)
	if len(evs2) != len(evs) {
		t.Fatalf("lagging cursor returned %d events, want %d", len(evs2), len(evs))
	}
}

// The cursor EventsSince takes is a sequence number. A follower that
// joins after the window has slid and advances by how many events it got
// (the arithmetic that is right only while nothing was ever trimmed) falls
// behind the window and is served part of it again; one that advances to
// the last delivered Seq + 1 sees every event once.
func TestOnlineEventCursorAfterWindowSlides(t *testing.T) {
	defer SetEventCap(16)()
	o, err := StartOnline(onlineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id, err := o.Submit(Job{App: smallApp("j", 4, sim.Millis(1))})
			if err != nil {
				t.Fatal(err)
			}
			for info, _ := o.Job(id); !info.Status.Terminal(); info, _ = o.Job(id) {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	submit(10)
	first, _ := o.EventsSince(0)
	if len(first) == 0 || first[0].Seq == 0 {
		t.Fatalf("the window has not slid: %d events from seq 0", len(first))
	}
	cursor := first[len(first)-1].Seq + 1
	if again, _ := o.EventsSince(len(first)); len(again) != len(first) {
		t.Fatalf("a count used as a cursor: %d events, want the window's %d over again", len(again), len(first))
	}
	if fresh, _ := o.EventsSince(cursor); len(fresh) != 0 {
		t.Fatalf("cursor %d: %d events, want none yet", cursor, len(fresh))
	}
	submit(1) // fewer events than the window holds: nothing is lost
	shutdownNow(t, o)
	rest, _ := o.EventsSince(cursor)
	if len(rest) == 0 || rest[0].Seq != cursor || rest[len(rest)-1].Type != EventShutdown {
		t.Fatalf("cursor %d resumed with %+v", cursor, rest)
	}
	for i, e := range rest {
		if e.Seq != cursor+i {
			t.Fatalf("event %d after the cursor has seq %d, want %d", i, e.Seq, cursor+i)
		}
	}
}
