package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRoutesTableCoversEverything: the route table is the single source
// of truth; every documented surface must be in it exactly once.
func TestRoutesTableCoversEverything(t *testing.T) {
	want := []string{
		"POST /v1/jobs",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/result",
		"GET /v1/jobs/{id}/events",
		"GET /v1/events",
		"GET /v1/log",
		"POST /v1/datasets",
		"GET /v1/datasets",
		"GET /v1/datasets/{id}",
		"POST /v1/datasets/{id}/append",
		"POST /v1/datasets/{id}/jobs",
		"GET /v1/store",
		"GET /v1/trace",
		"GET /v1/capabilities",
		"GET /metrics",
		"GET /healthz",
	}
	got := routePatterns()
	if len(got) != len(want) {
		t.Fatalf("route table has %d entries, want %d: %v", len(got), len(want), got)
	}
	seen := map[string]bool{}
	for i, p := range got {
		if seen[p] {
			t.Fatalf("duplicate route %q", p)
		}
		seen[p] = true
		if p != want[i] {
			t.Errorf("route[%d] = %q, want %q", i, p, want[i])
		}
	}
}

func TestCapabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 4, Seed: 1, TimeScale: 0})
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		API    string `json:"api"`
		Media  string `json:"media"`
		Nodes  int    `json:"nodes"`
		Policy string `json:"policy"`
		Store  struct {
			Entries  int   `json:"entries"`
			Segments int   `json:"segments"`
			LogBytes int64 `json:"log_bytes"`
			Datasets int   `json:"datasets"`
		} `json:"store"`
		Routes []string `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.API != "v1" || doc.Media != MediaV1 {
		t.Fatalf("api=%q media=%q", doc.API, doc.Media)
	}
	if doc.Nodes != 4 {
		t.Fatalf("nodes=%d, want 4", doc.Nodes)
	}
	if len(doc.Routes) != len(routePatterns()) {
		t.Fatalf("capabilities advertises %d routes, table has %d", len(doc.Routes), len(routePatterns()))
	}
	if doc.Store.Entries != 0 || doc.Store.Datasets != 0 {
		t.Fatalf("fresh server store state: %+v", doc.Store)
	}
}

// TestErrorEnvelope: every error is the one {"error":{"code","message"}}
// shape, whatever the client's Accept header says.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0})
	for _, accept := range []string{"", MediaV1} {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/nope", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("Accept %q: status %d", accept, resp.StatusCode)
		}
		var doc struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("Accept %q: envelope %s (%v)", accept, body, err)
		}
		if doc.Error.Code != "not_found" || !strings.Contains(doc.Error.Message, "nope") {
			t.Fatalf("Accept %q: envelope %+v", accept, doc.Error)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Accept %q: Content-Type = %q", accept, ct)
		}
	}
}

// TestErrorCodesByStatus covers the code mapping across endpoints: a
// bad submission (400), a duplicate dataset (409), and a submission
// while draining (503).
func TestErrorCodesByStatus(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0})

	structuredErr := func(method, url, body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc.Error.Code
	}

	if st, code := structuredErr("POST", "/v1/jobs", `{"bogus":1}`); st != 400 || code != "bad_request" {
		t.Fatalf("bad spec: %d %q", st, code)
	}
	if st, code := structuredErr("POST", "/v1/datasets", `{"id":"d","app":"forensics","items":8}`); st != 201 || code != "" {
		t.Fatalf("create: %d %q", st, code)
	}
	if st, code := structuredErr("POST", "/v1/datasets", `{"id":"d","app":"forensics","items":8}`); st != 409 || code != "conflict" {
		t.Fatalf("duplicate dataset: %d %q", st, code)
	}

	go s.Shutdown(context.Background())
	for !s.Queue().Draining() {
		time.Sleep(50 * time.Microsecond)
	}
	if st, code := structuredErr("POST", "/v1/jobs", `{"app":"forensics","items":8}`); st != 503 || code != "unavailable" {
		t.Fatalf("draining submit: %d %q", st, code)
	}
}
