package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rocket/internal/jobspec"
	"rocket/internal/sched"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, base string, spec jobspec.Spec) (string, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&reply)
	return reply.ID, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && err != io.EOF {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls a job until its status is terminal.
func waitTerminal(t *testing.T, base, id string) sched.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info sched.JobInfo
		if code := getJSON(t, base+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("job %s: status code %d", id, code)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return sched.JobInfo{}
}

// The acceptance end-to-end: 8 concurrent clients submit mixed
// forensics/microscopy jobs over HTTP, all complete, and replaying the
// recorded arrival log offline reproduces identical per-job metrics and
// identical fleet metrics.
func TestEndToEndConcurrentClientsAndReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 4, Policy: sched.PolicyFairShare, Seed: 11})
	const clients, perClient = 8, 2
	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				spec := jobspec.Spec{
					Tenant: fmt.Sprintf("tenant%d", c%3),
					App:    []string{"forensics", "microscopy"}[(c+k)%2],
					Items:  6 + 2*(c%3),
					Nodes:  1 + (c+k)%2,
				}
				id, code := postJob(t, ts.URL, spec)
				if code != http.StatusAccepted || id == "" {
					t.Errorf("client %d: submit returned %d (%q)", c, code, id)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				// Interleave submissions with completions.
				waitTerminal(t, ts.URL, id)
			}
		}(c)
	}
	wg.Wait()
	if len(ids) != clients*perClient {
		t.Fatalf("submitted %d jobs, want %d", len(ids), clients*perClient)
	}
	for _, id := range ids {
		if info := waitTerminal(t, ts.URL, id); info.Status != sched.StatusDone {
			t.Fatalf("job %s: %+v, want done", id, info)
		}
	}

	// Drain the fleet, then pull the complete arrival log over HTTP.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fleet, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/log")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	man, err := jobspec.Parse(raw)
	if err != nil {
		t.Fatalf("log did not parse: %v\n%s", err, raw)
	}
	if len(man.Jobs) != clients*perClient || !man.KeepGoing {
		t.Fatalf("log has %d jobs (keep_going=%v)", len(man.Jobs), man.KeepGoing)
	}

	// Replay the served trace offline through the batch scheduler.
	cfg, err := man.Config()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotFleet, err := fleet.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantFleet, err := replay.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFleet, wantFleet) {
		t.Fatalf("served fleet metrics differ from offline replay\nserved:\n%s\nreplay:\n%s",
			gotFleet, wantFleet)
	}

	// And the per-job result documents match the replay's, byte for byte.
	byID := map[string]sched.JobDoc{}
	for _, jm := range replay.Jobs {
		byID[jm.ID] = (&jm).Doc()
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		served, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: code %d", id, resp.StatusCode)
		}
		want, _ := json.MarshalIndent(byID[id], "", "  ")
		want = append(want, '\n')
		if !bytes.Equal(served, want) {
			t.Fatalf("job %s result differs from replay\nserved:\n%s\nreplay:\n%s", id, served, want)
		}
	}
}

func TestSubmitValidationAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown app", `{"app": "astrology", "items": 8}`, http.StatusBadRequest},
		{"too few items", `{"app": "forensics", "items": 1}`, http.StatusBadRequest},
		{"unknown field", `{"app": "forensics", "items": 8, "nodez": 1}`, http.StatusBadRequest},
		{"client-set arrival", `{"app": "forensics", "items": 8, "arrival_ms": 5}`, http.StatusBadRequest},
		{"too wide", `{"app": "forensics", "items": 8, "nodes": 3}`, http.StatusBadRequest},
		{"ok", `{"app": "forensics", "items": 8}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: code %d, want 200", code)
	}
}

func TestResultLifecycleAndMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	id, code := postJob(t, ts.URL, jobspec.Spec{App: "forensics", Items: 8})
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	waitTerminal(t, ts.URL, id)
	var doc sched.JobDoc
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &doc); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	if doc.ID != id || doc.Inner == nil || doc.Inner.Pairs != 28 {
		t.Fatalf("result doc: %+v", doc)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `rocketd_jobs{state="done"} 1`) {
		t.Fatalf("metrics missing done count:\n%s", body)
	}
	var list struct {
		Jobs []sched.JobInfo `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("list: code %d, %+v", code, list)
	}
}

// SSE: a job's event stream replays its full lifecycle and closes at the
// terminal event.
func TestJobEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	id, _ := postJob(t, ts.URL, jobspec.Spec{App: "microscopy", Items: 8})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			types = append(types, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	want := []string{sched.EventSubmitted, sched.EventQueued, sched.EventStarted, sched.EventCompleted}
	if len(types) != len(want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types %v, want %v", types, want)
		}
	}
}

// A stream opened after the event window has slid starts at the window's
// base, not at zero; it must go on from the last sequence number it
// delivered and never send an event twice.
func TestEventStreamAfterWindowSlides(t *testing.T) {
	defer sched.SetEventCap(16)()
	s, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	for i := 0; i < 10; i++ { // ~4 events each: well past the cap of 16
		id, _ := postJob(t, ts.URL, jobspec.Spec{App: "forensics", Items: 4})
		waitTerminal(t, ts.URL, id)
	}
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream ends with the scheduler: two more events, then EOF.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var ids []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var id int
		if _, err := fmt.Sscanf(sc.Text(), "id: %d", &id); err == nil {
			ids = append(ids, id)
		}
	}
	if len(ids) < 3 || ids[0] == 0 {
		t.Fatalf("stream ids %v: want a window that starts above zero", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("stream ids %v: %d follows %d", ids, ids[i], ids[i-1])
		}
	}
}

// A job's stream opened after its terminal event slid out of the window
// ends at once with what is retained, instead of waiting for an event
// that will never come.
func TestJobEventStreamEndsAfterWindowSlides(t *testing.T) {
	defer sched.SetEventCap(16)()
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	var first string
	for i := 0; i < 11; i++ { // ~4 events each: well past the cap of 16
		id, _ := postJob(t, ts.URL, jobspec.Spec{App: "forensics", Items: 4})
		waitTerminal(t, ts.URL, id)
		if i == 0 {
			first = id
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+first+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream of finished job %s did not end: %v (read %q)", first, err, body)
	}
	if strings.Contains(string(body), "event: ") {
		t.Fatalf("stream of %s replayed slid-out events:\n%s", first, body)
	}
}

// Draining: once Shutdown begins, healthz flips to 503 and submissions
// are refused with 503.
func TestDrainingRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 2, Seed: 1})
	go s.Shutdown(context.Background())
	for !s.Queue().Draining() {
		time.Sleep(50 * time.Microsecond)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	if _, code := postJob(t, ts.URL, jobspec.Spec{App: "forensics", Items: 8}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
}
