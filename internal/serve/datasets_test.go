package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"rocket/internal/pairstore"
	"rocket/internal/sched"
)

func postJSON(t *testing.T, url string, body any, v any) int {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

func TestDatasetLifecycleAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0})
	base := ts.URL

	var ds Dataset
	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "corpus", App: "forensics", Items: 8, Seed: 7}, &ds); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if ds.Seed != 7 || ds.Items != 8 || ds.Computed != 0 {
		t.Fatalf("created dataset: %+v", ds)
	}
	// Duplicates, bad apps, tiny datasets, zero appends are refused.
	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "corpus", App: "forensics", Items: 8}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "x", App: "astrology", Items: 8}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad app: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "y", App: "forensics", Items: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("tiny dataset: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets/corpus/append",
		datasetAppendReq{Items: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero append: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets/nope/append",
		datasetAppendReq{Items: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: status %d", code)
	}
	// A zero request seed derives a stable non-zero one.
	var derived Dataset
	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "auto", App: "microscopy", Items: 4}, &derived); code != http.StatusCreated {
		t.Fatalf("create auto: status %d", code)
	}
	if derived.Seed == 0 {
		t.Fatal("derived dataset seed is zero")
	}
	var list struct {
		Datasets []Dataset `json:"datasets"`
	}
	if code := getJSON(t, base+"/v1/datasets", &list); code != http.StatusOK || len(list.Datasets) != 2 {
		t.Fatalf("list: %d datasets, code %d", len(list.Datasets), code)
	}
}

// TestIncrementalServeAndReplay is the end-to-end warm-start flow:
// create a dataset, run it, append, run the delta, and verify (a) the
// delta job computed only the new pairs with the base served from the
// store, and (b) the recorded arrival log replays bit-identically
// through the batch scheduler, per job and fleet-wide.
func TestIncrementalServeAndReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0})
	base := ts.URL

	if code := postJSON(t, base+"/v1/datasets",
		datasetCreateReq{ID: "corpus", App: "forensics", Items: 10, Seed: 7}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var rep struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/v1/datasets/corpus/jobs", datasetJobReq{}, &rep); code != http.StatusAccepted {
		t.Fatalf("base job: status %d", code)
	}
	baseID := rep.ID
	if info := waitTerminal(t, base, baseID); info.Status != sched.StatusDone {
		t.Fatalf("base job ended %v (%s)", info.Status, info.Error)
	}
	// No new items -> no job.
	if code := postJSON(t, base+"/v1/datasets/corpus/jobs", datasetJobReq{}, nil); code != http.StatusConflict {
		t.Fatalf("job over fully computed dataset: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets/corpus/append", datasetAppendReq{Items: 2}, nil); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if code := postJSON(t, base+"/v1/datasets/corpus/jobs", datasetJobReq{}, &rep); code != http.StatusAccepted {
		t.Fatalf("delta job: status %d", code)
	}
	deltaID := rep.ID
	if info := waitTerminal(t, base, deltaID); info.Status != sched.StatusDone {
		t.Fatalf("delta job ended %v (%s)", info.Status, info.Error)
	}

	var deltaDoc sched.JobDoc
	if code := getJSON(t, base+"/v1/jobs/"+deltaID+"/result", &deltaDoc); code != http.StatusOK {
		t.Fatalf("delta result: status %d", code)
	}
	basePairs := uint64(10 * 9 / 2)
	if deltaDoc.Inner.StoreHits != basePairs {
		t.Fatalf("delta served %d pairs from the store, want %d", deltaDoc.Inner.StoreHits, basePairs)
	}
	if deltaDoc.Inner.Pairs != uint64(pairstore.DeltaPairs(12, 10)) {
		t.Fatalf("delta computed %d pairs", deltaDoc.Inner.Pairs)
	}
	if deltaDoc.Store != "corpus" || deltaDoc.BaseVersion != 10 || deltaDoc.DatasetVersion != 12 {
		t.Fatalf("delta provenance: %+v", deltaDoc)
	}

	// Store stats are exposed.
	var st pairstore.Stats
	if code := getJSON(t, base+"/v1/store", &st); code != http.StatusOK {
		t.Fatalf("store stats: status %d", code)
	}
	if st.ServedPairs != basePairs || st.Entries != int(pairstore.DeltaPairs(12, 0)) {
		t.Fatalf("store stats: %+v", st)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, gauge := range []string{
		"rocketd_store_served_pairs_total 45",
		"rocketd_store_levels ",
		"rocketd_store_bytes_per_pair ",
		"rocketd_store_index_resident_bytes ",
		"rocketd_store_seals_total ",
		"rocketd_store_compactions_total ",
		"# TYPE rocketd_store_block_decodes_total counter\nrocketd_store_block_decodes_total ",
		"# TYPE rocketd_store_block_cache_bytes gauge\nrocketd_store_block_cache_bytes ",
	} {
		if !strings.Contains(buf.String(), gauge) {
			t.Fatalf("store gauge %q missing from /metrics:\n%s", gauge, buf.String())
		}
	}

	// Drain and replay the log offline: byte-identical docs.
	log := s.Log()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := log.Config()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	servedJSON, _ := served.JSON()
	replayJSON, _ := replayed.JSON()
	if !bytes.Equal(servedJSON, replayJSON) {
		t.Fatalf("incremental replay diverges:\nserved:\n%s\nreplayed:\n%s", servedJSON, replayJSON)
	}
}

// TestWarmRestartWithRestoredDatasets is the cross-session flow: a
// second server handed the first session's store and dataset registry
// serves the already-computed pairs instead of recomputing them.
func TestWarmRestartWithRestoredDatasets(t *testing.T) {
	// Session 1: cold — register, compute, drain.
	s1, ts1 := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0})
	if code := postJSON(t, ts1.URL+"/v1/datasets",
		datasetCreateReq{ID: "corpus", App: "forensics", Items: 10, Seed: 7}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var rep struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts1.URL+"/v1/datasets/corpus/jobs", datasetJobReq{}, &rep); code != http.StatusAccepted {
		t.Fatalf("base job: status %d", code)
	}
	if info := waitTerminal(t, ts1.URL, rep.ID); info.Status != sched.StatusDone {
		t.Fatalf("base job ended %v", info.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Session 2: warm-started from session 1's store AND registry.
	_, ts2 := newTestServer(t, Config{Nodes: 2, Seed: 1, TimeScale: 0,
		Store: s1.Store(), Datasets: s1.Datasets()})
	if code := postJSON(t, ts2.URL+"/v1/datasets/corpus/append", datasetAppendReq{Items: 2}, nil); code != http.StatusOK {
		t.Fatalf("append after restart: status %d", code)
	}
	if code := postJSON(t, ts2.URL+"/v1/datasets/corpus/jobs", datasetJobReq{}, &rep); code != http.StatusAccepted {
		t.Fatalf("delta job after restart: status %d", code)
	}
	if info := waitTerminal(t, ts2.URL, rep.ID); info.Status != sched.StatusDone {
		t.Fatalf("delta job ended %v", info.Status)
	}
	var doc sched.JobDoc
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+rep.ID+"/result", &doc); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if doc.Inner.StoreHits != 45 || doc.Inner.Pairs != uint64(pairstore.DeltaPairs(12, 10)) {
		t.Fatalf("restarted delta: hits %d pairs %d, want 45/%d",
			doc.Inner.StoreHits, doc.Inner.Pairs, pairstore.DeltaPairs(12, 10))
	}
}
