package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"rocket/internal/jobspec"
	"rocket/internal/pairstore"
)

// Dataset is one registered append-only dataset: the unit of
// incremental serving. Datasets are versioned by length — appending k
// items moves the version from n to n+k — so a job over version v with
// base version b computes exactly the new-vs-all pair set between
// them. The dataset's seed is its content identity: it must stay fixed
// across appends (and daemon restarts, when the store is persisted)
// for store keys to line up.
type Dataset struct {
	ID string `json:"id"`
	// App is the application name ("forensics", "microscopy",
	// "bioinformatics").
	App string `json:"app"`
	// Seed is the dataset's content seed; never zero (a zero request
	// seed is replaced by a stable derivation from the dataset ID).
	Seed uint64 `json:"seed"`
	// Items is the current length — and therefore the current version.
	Items int `json:"items"`
	// Computed is the version already covered by submitted jobs: the
	// base version the next job will be planned against.
	Computed int `json:"computed"`
	// Appends counts append operations; Jobs counts submissions.
	Appends int `json:"appends"`
	Jobs    int `json:"jobs"`
}

type datasetCreateReq struct {
	ID    string `json:"id"`
	App   string `json:"app"`
	Items int    `json:"items"`
	Seed  uint64 `json:"seed,omitempty"`
}

type datasetAppendReq struct {
	Items int `json:"items"`
}

type datasetJobReq struct {
	Tenant string `json:"tenant,omitempty"`
	Nodes  int    `json:"nodes,omitempty"`
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// handleDatasetCreate registers a dataset at its initial version.
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	var req datasetCreateReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("dataset id is required"))
		return
	}
	if req.Items < 2 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("dataset needs at least 2 items, got %d", req.Items))
		return
	}
	// Validate the app name by building a probe spec.
	if _, err := (jobspec.Spec{App: req.App, Items: req.Items}).BuildApp(1); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		// The dataset's identity must be stable and non-zero; derive it
		// from the fleet seed and the dataset ID.
		seed = uint64(pairstore.DigestItem("dataset-seed", req.ID, s.cfg.Seed, 0)) | 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[req.ID]; dup {
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q already exists", req.ID))
		return
	}
	ds := &Dataset{ID: req.ID, App: req.App, Seed: seed, Items: req.Items}
	s.datasets[req.ID] = ds
	s.dsOrder = append(s.dsOrder, req.ID)
	writeJSON(w, http.StatusCreated, ds)
}

// handleDatasetAppend grows a dataset: version n -> n+k. The appended
// items become new work for the next submitted job; everything already
// computed stays resident in the store.
func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	var req datasetAppendReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Items <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("append needs a positive item count, got %d", req.Items))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("id")))
		return
	}
	ds.Items += req.Items
	ds.Appends++
	writeJSON(w, http.StatusOK, ds)
}

// handleDatasetJob submits the dataset's next job: a delta job over the
// current version with the already-computed version as base. The
// recorded spec carries store, dataset_version, and base_version, so
// the served arrival log replays bit-identically through the batch
// scheduler (which rebuilds the same store states at the same virtual
// times).
func (s *Server) handleDatasetJob(w http.ResponseWriter, r *http.Request) {
	var req datasetJobReq
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("id")))
		return
	}
	if ds.Computed == ds.Items {
		writeError(w, http.StatusConflict,
			fmt.Errorf("dataset %q has no new items (version %d fully computed)", ds.ID, ds.Items))
		return
	}
	spec := jobspec.Spec{
		Tenant:         req.Tenant,
		App:            ds.App,
		Items:          ds.Items,
		Nodes:          req.Nodes,
		Seed:           ds.Seed,
		Store:          ds.ID,
		DatasetVersion: ds.Items,
		BaseVersion:    ds.Computed,
	}
	if _, ok := s.submitSpecLocked(w, spec); !ok {
		return
	}
	// The submitted job covers the dataset up to its current version;
	// the next job is planned against it. (A failed job leaves a gap
	// the planner repairs: its pairs are simply store misses that get
	// recomputed by the next submission.)
	ds.Computed = ds.Items
	ds.Jobs++
}

// Datasets returns the registry in creation order — the counterpart of
// Config.Datasets for persisting across daemon restarts (the daemon
// saves it next to the pair store on shutdown).
func (s *Server) Datasets() []Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Dataset, 0, len(s.dsOrder))
	for _, id := range s.dsOrder {
		out = append(out, *s.datasets[id])
	}
	return out
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Datasets []Dataset `json:"datasets"`
	}{s.Datasets()})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, ds)
}

// handleStore serves the pair store's stats document (the artifact CI
// uploads per run).
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}
