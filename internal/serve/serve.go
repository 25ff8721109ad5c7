// Package serve is rocketd's service layer: a long-running HTTP API over
// the online scheduler (sched.Online) that admits all-pairs job
// submissions while the fleet runs.
//
// Endpoints:
//
//	POST /v1/jobs             submit a job (jobspec.Spec JSON) -> 202 {id}
//	GET  /v1/jobs             list job snapshots
//	GET  /v1/jobs/{id}        one job's snapshot
//	GET  /v1/jobs/{id}/result final metrics once the job is terminal
//	GET  /v1/jobs/{id}/events SSE stream of the job's lifecycle
//	GET  /v1/events           SSE stream of all scheduler events
//	GET  /v1/log              the replayable arrival log (a manifest)
//	GET  /v1/trace            flight-recorder spans as Perfetto JSON (404 unless Config.Trace)
//	GET  /v1/capabilities     API version, route table, store state
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness; 503 while draining
//
// The full method+pattern table lives in one place (newMux); the dataset
// endpoints are documented in datasets.go. Every error is a
// {"error":{"code","message"}} document with the matching HTTP status.
//
// Every submission is recorded as a jobspec.Spec; once the scheduler
// assigns its virtual arrival, the submission becomes part of the arrival
// log, an ordinary batch manifest with nanosecond-exact arrivals. Feeding
// that log to `rocket queue -replay` re-executes the served trace offline
// and reproduces the server's fleet metrics byte-for-byte.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"rocket/internal/cluster"
	"rocket/internal/jobspec"
	"rocket/internal/obs"
	"rocket/internal/pairstore"
	"rocket/internal/sched"
)

// Config configures one rocketd server.
type Config struct {
	// Nodes is the size of the shared simulated cluster (required).
	Nodes int
	// NodeSpec is each node's hardware; the zero value is the scheduler's
	// default (DAS-5 node, one TitanX Maxwell).
	NodeSpec cluster.NodeSpec
	// Policy selects the placement order; default FIFO.
	Policy sched.Policy
	// MaxQueued, MaxRunning, MaxRetries, Workers, Seed: see sched.Config.
	MaxQueued  int
	MaxRunning int
	MaxRetries int
	Workers    int
	Seed       uint64
	// TimeScale is the wall-clock to virtual-time bridge (virtual seconds
	// per wall second); 0 means arrivals latch onto the virtual clock.
	TimeScale float64
	// Store is the fleet's shared pair store; nil starts an empty one.
	// Pass a store reloaded from disk (pairstore.Load) to warm-start the
	// service across restarts.
	Store *pairstore.Store
	// Datasets restores the dataset registry (Server.Datasets of a
	// previous session). A warm Store is only consulted through the
	// datasets API when the registry that produced it is restored too —
	// a re-created dataset would start at Computed = 0 and recompute
	// everything.
	Datasets []Dataset
	// Trace attaches a flight recorder to the scheduler: placement spans
	// (job-wait, job-run) and store maintenance marks are recorded and
	// served as Perfetto JSON on GET /v1/trace. Off by default; a nil
	// recorder costs nothing on the scheduling path.
	Trace bool
	// TraceCapacity bounds the recorder ring (spans retained, oldest
	// overwritten first); 0 means the obs default (64Ki).
	TraceCapacity int
}

// Server owns the online scheduler and the recorded submission specs.
type Server struct {
	cfg   Config
	queue *sched.Online
	store *pairstore.Store
	spans *obs.Recorder // nil unless Config.Trace
	mux   *http.ServeMux

	mu       sync.Mutex
	specs    []jobspec.Spec // submission order, IDs filled
	datasets map[string]*Dataset
	dsOrder  []string // dataset creation order, for stable listings
}

// New starts the online scheduler and returns the server.
func New(cfg Config) (*Server, error) {
	store := cfg.Store
	if store == nil {
		store = pairstore.New()
	}
	var spans *obs.Recorder
	if cfg.Trace {
		spans = obs.New(1, cfg.TraceCapacity)
	}
	q, err := sched.StartOnline(sched.Config{
		Nodes:      cfg.Nodes,
		NodeSpec:   cfg.NodeSpec,
		Policy:     cfg.Policy,
		MaxQueued:  cfg.MaxQueued,
		MaxRunning: cfg.MaxRunning,
		MaxRetries: cfg.MaxRetries,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
		TimeScale:  cfg.TimeScale,
		Store:      store,
		Spans:      spans,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, queue: q, store: store, spans: spans, datasets: make(map[string]*Dataset)}
	for i := range cfg.Datasets {
		ds := cfg.Datasets[i]
		if _, dup := s.datasets[ds.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate restored dataset %q", ds.ID)
		}
		s.datasets[ds.ID] = &ds
		s.dsOrder = append(s.dsOrder, ds.ID)
	}
	s.mux = newMux(s)
	return s, nil
}

// Store exposes the fleet's shared pair store (for persistence by the
// daemon on shutdown).
func (s *Server) Store() *pairstore.Store { return s.store }

// Queue exposes the underlying online scheduler.
func (s *Server) Queue() *sched.Online { return s.queue }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorEnvelope is the body of every error response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError writes err as {"error":{"code","message"}}, the code derived
// from the status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    errorCode(status),
		Message: err.Error(),
	}})
}

// submitReply is the 202 body of a submission.
type submitReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Job    string `json:"job"`
	Result string `json:"result"`
	Events string `json:"events"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	if spec.ArrivalNS != 0 || spec.ArrivalMS != 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("online submissions cannot carry arrival times; the scheduler assigns them"))
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitSpecLocked(w, spec)
}

// submitSpecLocked converts the spec to a job, submits it, and records
// the spec in the arrival log. One lock spans spec->job conversion and
// Submit so the recorded spec order matches the scheduler's submission
// indices (both drive seed/ID derivation on replay); callers hold s.mu.
func (s *Server) submitSpecLocked(w http.ResponseWriter, spec jobspec.Spec) (string, bool) {
	index := len(s.specs)
	job, err := spec.Job(index, s.cfg.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", false
	}
	id, err := s.queue.Submit(job)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, sched.ErrShuttingDown) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return "", false
	}
	spec.ID = id
	s.specs = append(s.specs, spec)
	writeJSON(w, http.StatusAccepted, submitReply{
		ID:     id,
		Status: sched.StatusSubmitted.String(),
		Job:    "/v1/jobs/" + id,
		Result: "/v1/jobs/" + id + "/result",
		Events: "/v1/jobs/" + id + "/events",
	})
	return id, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []sched.JobInfo `json:"jobs"`
	}{s.queue.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.queue.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.queue.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	jm, ok := s.queue.JobMetrics(id)
	if !ok {
		// Not terminal yet: tell the client where the job stands.
		writeJSON(w, http.StatusAccepted, info)
		return
	}
	writeJSON(w, http.StatusOK, jm.Doc())
}

// Log returns the replayable arrival log as a manifest: the recorded
// specs whose virtual arrivals have been assigned, with exact nanosecond
// arrivals, over the server's fleet configuration. KeepGoing is set so
// failed served jobs replay as recorded failures.
//
// Only jobs submitted through the HTTP API carry a recorded spec; a job
// handed straight to Queue().Submit cannot be described in manifest form
// and is omitted, which makes the log unreplayable in the strict
// byte-identical sense. Keep all submissions on the HTTP path when the
// log matters.
func (s *Server) Log() jobspec.Manifest {
	logged := s.queue.Log()
	s.mu.Lock()
	defer s.mu.Unlock()
	man := jobspec.Manifest{
		Nodes:      s.cfg.Nodes,
		Policy:     s.cfg.Policy.String(),
		MaxQueued:  s.cfg.MaxQueued,
		MaxRunning: s.cfg.MaxRunning,
		MaxRetries: s.cfg.MaxRetries,
		KeepGoing:  true,
		Seed:       s.cfg.Seed,
	}
	byID := make(map[string]jobspec.Spec, len(s.specs))
	for _, spec := range s.specs {
		byID[spec.ID] = spec
	}
	for _, j := range logged {
		spec, ok := byID[j.ID]
		if !ok {
			continue // submitted around the HTTP layer; no spec to replay
		}
		spec.ArrivalNS = int64(j.Arrival)
		man.Jobs = append(man.Jobs, spec)
	}
	return man
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	buf, err := s.Log().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// capabilitiesDoc is the /v1/capabilities body: what a client can rely
// on without probing — the API version and media type, the fleet shape,
// and the pair store's state.
type capabilitiesDoc struct {
	API    string   `json:"api"`
	Media  string   `json:"media"`
	Nodes  int      `json:"nodes"`
	Policy string   `json:"policy"`
	Store  storeDoc `json:"store"`
	Routes []string `json:"routes"`
}

// storeDoc is the capabilities view of the pair store.
type storeDoc struct {
	Entries  int   `json:"entries"`
	Segments int   `json:"segments"`
	LogBytes int64 `json:"log_bytes"`
	Datasets int   `json:"datasets"`
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	s.mu.Lock()
	datasets := len(s.datasets)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, capabilitiesDoc{
		API:    "v1",
		Media:  MediaV1,
		Nodes:  s.cfg.Nodes,
		Policy: s.cfg.Policy.String(),
		Store: storeDoc{
			Entries:  st.Entries,
			Segments: st.Segments,
			LogBytes: st.Bytes,
			Datasets: datasets,
		},
		Routes: routePatterns(),
	})
}

// handleTrace serves the flight recorder's current contents as Chrome
// trace-event JSON (Perfetto-loadable). Without Config.Trace there is no recorder and the endpoint is 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("tracing disabled; start rocket serve with -trace"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteTrace(w, s.spans.Snapshot(), obs.ExportOptions{})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.queue.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the Prometheus text exposition format by hand;
// the counters come from one consistent Counts snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.queue.Counts()
	draining := 0
	if s.queue.Draining() {
		draining = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP rocketd_jobs Jobs by lifecycle state.\n# TYPE rocketd_jobs gauge\n")
	fmt.Fprintf(w, "rocketd_jobs{state=\"submitted\"} %d\n", c.Submitted)
	fmt.Fprintf(w, "rocketd_jobs{state=\"queued\"} %d\n", c.Queued)
	fmt.Fprintf(w, "rocketd_jobs{state=\"running\"} %d\n", c.Running)
	fmt.Fprintf(w, "rocketd_jobs{state=\"done\"} %d\n", c.Done)
	fmt.Fprintf(w, "rocketd_jobs{state=\"failed\"} %d\n", c.Failed)
	fmt.Fprintf(w, "rocketd_jobs{state=\"rejected\"} %d\n", c.Rejected)
	fmt.Fprintf(w, "# HELP rocketd_retries_total Partition-loss requeues.\n# TYPE rocketd_retries_total counter\n")
	fmt.Fprintf(w, "rocketd_retries_total %d\n", c.Retries)
	fmt.Fprintf(w, "# HELP rocketd_virtual_clock_seconds The fleet's virtual clock.\n# TYPE rocketd_virtual_clock_seconds gauge\n")
	fmt.Fprintf(w, "rocketd_virtual_clock_seconds %g\n", s.queue.Clock().Seconds())
	fmt.Fprintf(w, "# HELP rocketd_draining Whether shutdown has begun.\n# TYPE rocketd_draining gauge\n")
	fmt.Fprintf(w, "rocketd_draining %d\n", draining)

	ws := s.queue.WaitStats()
	fmt.Fprintf(w, "# HELP rocketd_queue_depth Jobs currently queued for placement.\n# TYPE rocketd_queue_depth gauge\n")
	fmt.Fprintf(w, "rocketd_queue_depth %d\n", ws.Depth)
	fmt.Fprintf(w, "# HELP rocketd_p50_wait_seconds Exact median queue wait across placements (virtual time).\n# TYPE rocketd_p50_wait_seconds gauge\n")
	fmt.Fprintf(w, "rocketd_p50_wait_seconds %g\n", float64(ws.P50NS)/1e9)
	fmt.Fprintf(w, "# HELP rocketd_p99_wait_seconds Exact 99th-percentile queue wait across placements (virtual time).\n# TYPE rocketd_p99_wait_seconds gauge\n")
	fmt.Fprintf(w, "rocketd_p99_wait_seconds %g\n", float64(ws.P99NS)/1e9)
	fmt.Fprintf(w, "# HELP rocketd_wait_seconds Queue wait per tenant (virtual time, log-bucketed).\n# TYPE rocketd_wait_seconds histogram\n")
	tenants := make([]string, 0, len(ws.Tenants))
	for tenant := range ws.Tenants {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		h := ws.Tenants[tenant]
		for _, b := range h.Buckets() {
			fmt.Fprintf(w, "rocketd_wait_seconds_bucket{tenant=%q,le=%q} %d\n",
				tenant, strconv.FormatFloat(float64(b.Le)/1e9, 'g', -1, 64), b.Count)
		}
		fmt.Fprintf(w, "rocketd_wait_seconds_bucket{tenant=%q,le=\"+Inf\"} %d\n", tenant, h.Count())
		fmt.Fprintf(w, "rocketd_wait_seconds_sum{tenant=%q} %g\n", tenant, float64(h.Sum())/1e9)
		fmt.Fprintf(w, "rocketd_wait_seconds_count{tenant=%q} %d\n", tenant, h.Count())
	}

	st := s.store.Stats()
	s.mu.Lock()
	datasets := len(s.datasets)
	s.mu.Unlock()
	fmt.Fprintf(w, "# HELP rocketd_datasets Registered datasets.\n# TYPE rocketd_datasets gauge\n")
	fmt.Fprintf(w, "rocketd_datasets %d\n", datasets)
	fmt.Fprintf(w, "# HELP rocketd_store_entries Distinct pair results resident in the store.\n# TYPE rocketd_store_entries gauge\n")
	fmt.Fprintf(w, "rocketd_store_entries %d\n", st.Entries)
	fmt.Fprintf(w, "# HELP rocketd_store_segments Segments of the store's log (mutable log plus sealed columnar segments).\n# TYPE rocketd_store_segments gauge\n")
	fmt.Fprintf(w, "rocketd_store_segments %d\n", st.Segments)
	fmt.Fprintf(w, "# HELP rocketd_store_levels Non-empty compaction tiers of sealed segments.\n# TYPE rocketd_store_levels gauge\n")
	fmt.Fprintf(w, "rocketd_store_levels %d\n", st.Levels)
	fmt.Fprintf(w, "# HELP rocketd_store_log_bytes Modeled size of the segment log.\n# TYPE rocketd_store_log_bytes gauge\n")
	fmt.Fprintf(w, "rocketd_store_log_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "# HELP rocketd_store_disk_bytes Physical size of persisted columnar segment files.\n# TYPE rocketd_store_disk_bytes gauge\n")
	fmt.Fprintf(w, "rocketd_store_disk_bytes %d\n", st.DiskBytes)
	fmt.Fprintf(w, "# HELP rocketd_store_bytes_per_pair On-disk bytes per pair across persisted segments.\n# TYPE rocketd_store_bytes_per_pair gauge\n")
	fmt.Fprintf(w, "rocketd_store_bytes_per_pair %g\n", st.BytesPerPair)
	fmt.Fprintf(w, "# HELP rocketd_store_index_resident_bytes Resident probe-index footprint (fences, dictionaries, bloom filters).\n# TYPE rocketd_store_index_resident_bytes gauge\n")
	fmt.Fprintf(w, "rocketd_store_index_resident_bytes %d\n", st.IndexResidentBytes)
	fmt.Fprintf(w, "# HELP rocketd_store_bloom_hit_rate Share of bloom-filter consultations answered absent without a block decode; point probes (Get, Has, Put duplicate checks) always consult the filter, batch planning probes only for blocks missing from the block cache.\n# TYPE rocketd_store_bloom_hit_rate gauge\n")
	fmt.Fprintf(w, "rocketd_store_bloom_hit_rate %g\n", st.BloomHitRate)
	fmt.Fprintf(w, "# HELP rocketd_store_block_decodes_total Segment blocks inflated to answer probes (block-cache misses plus the row decode behind each Get hit).\n# TYPE rocketd_store_block_decodes_total counter\n")
	fmt.Fprintf(w, "rocketd_store_block_decodes_total %d\n", st.BlockDecodes)
	fmt.Fprintf(w, "# HELP rocketd_store_block_cache_bytes Decoded key columns held by the store's bounded block cache.\n# TYPE rocketd_store_block_cache_bytes gauge\n")
	fmt.Fprintf(w, "rocketd_store_block_cache_bytes %d\n", st.BlockCacheBytes)
	fmt.Fprintf(w, "# HELP rocketd_store_seals_total Mutable-log promotions into sorted columnar segments.\n# TYPE rocketd_store_seals_total counter\n")
	fmt.Fprintf(w, "rocketd_store_seals_total %d\n", st.Seals)
	fmt.Fprintf(w, "# HELP rocketd_store_compactions_total Tier merges and full compactions.\n# TYPE rocketd_store_compactions_total counter\n")
	fmt.Fprintf(w, "rocketd_store_compactions_total %d\n", st.Compactions)
	fmt.Fprintf(w, "# HELP rocketd_store_served_pairs_total Pairs served from the store instead of computed.\n# TYPE rocketd_store_served_pairs_total counter\n")
	fmt.Fprintf(w, "rocketd_store_served_pairs_total %d\n", st.ServedPairs)
	fmt.Fprintf(w, "# HELP rocketd_store_missed_pairs_total Planned-resident pairs recomputed because they were absent.\n# TYPE rocketd_store_missed_pairs_total counter\n")
	fmt.Fprintf(w, "rocketd_store_missed_pairs_total %d\n", st.MissedPairs)
	fmt.Fprintf(w, "# HELP rocketd_store_puts_total Pair results appended to the store.\n# TYPE rocketd_store_puts_total counter\n")
	fmt.Fprintf(w, "rocketd_store_puts_total %d\n", st.Puts)
	fmt.Fprintf(w, "# HELP rocketd_store_read_bytes_total Charged store read I/O.\n# TYPE rocketd_store_read_bytes_total counter\n")
	fmt.Fprintf(w, "rocketd_store_read_bytes_total %d\n", st.ReadBytes)
	fmt.Fprintf(w, "# HELP rocketd_store_write_bytes_total Charged store write I/O.\n# TYPE rocketd_store_write_bytes_total counter\n")
	fmt.Fprintf(w, "rocketd_store_write_bytes_total %d\n", st.WriteBytes)
}

// Shutdown stops admission and drains the fleet (see sched.Online.Shutdown);
// the context bounds the wait, not the in-flight work.
func (s *Server) Shutdown(ctx context.Context) (*sched.Metrics, error) {
	return s.queue.Shutdown(ctx)
}

// sseWriter streams scheduler events in Server-Sent Events framing.
func writeSSE(w http.ResponseWriter, e sched.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}

func (s *Server) handleAllEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, "")
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	s.streamEvents(w, r, id)
}

// streamEvents follows the scheduler's event stream. With a job filter,
// the stream ends once the job reaches a terminal event; otherwise it
// ends when the scheduler shuts down (after the final "shutdown" event)
// or the client disconnects.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, jobID string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	terminal := map[string]bool{
		sched.EventRejected:  true,
		sched.EventCompleted: true,
		sched.EventFailed:    true,
	}
	emit := func(evs []sched.Event) (stop bool) {
		for _, e := range evs {
			if jobID != "" && e.Job != jobID {
				continue
			}
			if writeSSE(w, e) != nil {
				return true
			}
			if jobID != "" && terminal[e.Type] {
				stop = true
			}
		}
		fl.Flush()
		return stop
	}

	i := 0
	for {
		// A job that was terminal before this read ends the stream after
		// it, even when its terminal event has slid out of the window.
		var finished bool
		if jobID != "" {
			info, _ := s.queue.Job(jobID)
			finished = info.Status.Terminal()
		}
		evs, wake := s.queue.EventsSince(i)
		if n := len(evs); n > 0 {
			// The cursor is a sequence number, not a count: a stream
			// opened after the window slid starts above zero.
			i = evs[n-1].Seq + 1
		}
		if emit(evs) || finished {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.queue.Done():
			// Drain whatever was appended up to the shutdown event.
			evs, _ := s.queue.EventsSince(i)
			emit(evs)
			return
		}
	}
}
