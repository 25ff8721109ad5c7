package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rocket/internal/jobspec"
)

func inputsJSON(t *testing.T, seed uint64) []byte {
	t.Helper()
	buf, err := json.Marshal(struct {
		Jobs []jobspec.Spec
		Due  []time.Duration
	}{genJobs(seed, 200, serveMix, "job"), genSchedule(seed, 200, openRate)})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := inputsJSON(t, 7), inputsJSON(t, 7), inputsJSON(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different job lists or schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds gave the same job list and schedule")
	}
}

func TestScheduleIsAbsoluteAndSpansExactlyTheOfferedLoad(t *testing.T) {
	due := genSchedule(3, 1500, openRate)
	for k := 1; k < len(due); k++ {
		if due[k] < due[k-1] {
			t.Fatalf("due time %d precedes due time %d", k, k-1)
		}
	}
	if got, want := due[len(due)-1], 10*time.Second; got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("1500 jobs at 150/s end at %v, want %v", got, want)
	}
}

// stallingServer speaks just enough of rocketd's API for the open-loop
// generator: submissions are accepted (the stallAt-th only after stall),
// and the event stream reports each accepted job completed at once.
func stallingServer(t *testing.T, stallAt int, stall time.Duration) *httptest.Server {
	t.Helper()
	accepted := make(chan string, 64) // more than the test submits: handlers never block on it
	var seen atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec jobspec.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int(seen.Add(1))-1 == stallAt {
			time.Sleep(stall)
		}
		accepted <- spec.ID
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, spec.ID)
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for {
			select {
			case id := <-accepted:
				fmt.Fprintf(w, "id: 1\nevent: submitted\ndata: {\"job\":%q}\n\n", id)
				fmt.Fprintf(w, "id: 2\nevent: completed\ndata: {\"job\":%q}\n\n", id)
				w.(http.Flusher).Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// A stall in the server must be charged to the requests it delays: their
// due times stand, so their latency and the generator's lateness both
// show it, although each of them was answered quickly once sent.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		n       = 10
		gap     = 10 * time.Millisecond
		stallAt = 2
		stall   = 100 * time.Millisecond
	)
	ts := stallingServer(t, stallAt, stall)
	jobs := genJobs(1, n, serveMix, "job")
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(k) * gap
	}
	poster, watcher := newClient(ts.URL), newClient(ts.URL)
	defer poster.close()
	defer watcher.close()
	f, err := follow(watcher, jobs)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res := runOpenLoop(poster, f, jobs, due, tr, 5*time.Second)
	f.stop()

	if res.refused != 0 || res.lost != 0 || len(res.latency) != n {
		t.Fatalf("refused %d, lost %d, %d latencies; want 0, 0, %d", res.refused, res.lost, len(res.latency), n)
	}
	// Job 3 was due 10 ms into a 100 ms stall: about 90 ms late.
	next := stallAt + 1
	if res.late[next] < 60 {
		t.Errorf("the request behind the stall was sent %.1f ms late, want about 90", res.late[next])
	}
	if res.latency[next] < 60 {
		t.Errorf("the request behind the stall shows %.1f ms from its due time, want about 90", res.latency[next])
	}
	if res.rtt[next] > 40 {
		t.Errorf("the request behind the stall took %.1f ms once sent; the test server is too slow to tell", res.rtt[next])
	}
	// Timed from the send instead, the stall would vanish from every
	// request but the stalled one: that is coordinated omission.
	if res.latency[next]-res.late[next] > 40 {
		t.Errorf("latency %.1f ms less lateness %.1f ms should be small", res.latency[next], res.late[next])
	}
	if res.late[0] > 20 || res.late[1] > 20 {
		t.Errorf("requests before the stall ran %.1f and %.1f ms late", res.late[0], res.late[1])
	}
	// The schedule did not slide: the run ends when the last due job is
	// done, not a stall later.
	if want := time.Duration(n-1)*gap + stall; res.span > want {
		t.Errorf("the run spanned %v, more than the schedule plus one stall (%v)", res.span, want)
	}
	// One op per job, the submission and the wait as its children.
	if got := len(tr.spans); got != 3*n {
		t.Errorf("%d spans recorded, want %d", got, 3*n)
	}
}
