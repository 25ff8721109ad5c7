package serve

import "net/http"

// MediaV1 is the vendor media type of API version 1, advertised by
// /v1/capabilities.
const MediaV1 = "application/vnd.rocket.v1+json"

// apiV1 is the complete version-1 surface: one method per endpoint.
// *Server implements it; Mux is the only place routes are bound, so the
// route table below is the single source of truth for the wire API
// (the /v1/capabilities endpoint lists it via Routes).
type apiV1 interface {
	handleSubmit(w http.ResponseWriter, r *http.Request)
	handleList(w http.ResponseWriter, r *http.Request)
	handleJob(w http.ResponseWriter, r *http.Request)
	handleResult(w http.ResponseWriter, r *http.Request)
	handleJobEvents(w http.ResponseWriter, r *http.Request)
	handleAllEvents(w http.ResponseWriter, r *http.Request)
	handleLog(w http.ResponseWriter, r *http.Request)
	handleDatasetCreate(w http.ResponseWriter, r *http.Request)
	handleDatasetList(w http.ResponseWriter, r *http.Request)
	handleDataset(w http.ResponseWriter, r *http.Request)
	handleDatasetAppend(w http.ResponseWriter, r *http.Request)
	handleDatasetJob(w http.ResponseWriter, r *http.Request)
	handleStore(w http.ResponseWriter, r *http.Request)
	handleTrace(w http.ResponseWriter, r *http.Request)
	handleCapabilities(w http.ResponseWriter, r *http.Request)
	handleMetrics(w http.ResponseWriter, r *http.Request)
	handleHealthz(w http.ResponseWriter, r *http.Request)
}

// route binds one method+pattern to its apiV1 handler.
type route struct {
	pattern string
	handler func(v1 apiV1) http.HandlerFunc
}

// v1Routes is the version-1 route table. Order is documentation order;
// patterns use Go 1.22 method+path matching.
var v1Routes = []route{
	{"POST /v1/jobs", func(v apiV1) http.HandlerFunc { return v.handleSubmit }},
	{"GET /v1/jobs", func(v apiV1) http.HandlerFunc { return v.handleList }},
	{"GET /v1/jobs/{id}", func(v apiV1) http.HandlerFunc { return v.handleJob }},
	{"GET /v1/jobs/{id}/result", func(v apiV1) http.HandlerFunc { return v.handleResult }},
	{"GET /v1/jobs/{id}/events", func(v apiV1) http.HandlerFunc { return v.handleJobEvents }},
	{"GET /v1/events", func(v apiV1) http.HandlerFunc { return v.handleAllEvents }},
	{"GET /v1/log", func(v apiV1) http.HandlerFunc { return v.handleLog }},
	{"POST /v1/datasets", func(v apiV1) http.HandlerFunc { return v.handleDatasetCreate }},
	{"GET /v1/datasets", func(v apiV1) http.HandlerFunc { return v.handleDatasetList }},
	{"GET /v1/datasets/{id}", func(v apiV1) http.HandlerFunc { return v.handleDataset }},
	{"POST /v1/datasets/{id}/append", func(v apiV1) http.HandlerFunc { return v.handleDatasetAppend }},
	{"POST /v1/datasets/{id}/jobs", func(v apiV1) http.HandlerFunc { return v.handleDatasetJob }},
	{"GET /v1/store", func(v apiV1) http.HandlerFunc { return v.handleStore }},
	{"GET /v1/trace", func(v apiV1) http.HandlerFunc { return v.handleTrace }},
	{"GET /v1/capabilities", func(v apiV1) http.HandlerFunc { return v.handleCapabilities }},
	{"GET /metrics", func(v apiV1) http.HandlerFunc { return v.handleMetrics }},
	{"GET /healthz", func(v apiV1) http.HandlerFunc { return v.handleHealthz }},
}

// Mux builds the service's route table over a version-1 implementation.
// New calls it with the Server itself; it exists as a separate
// constructor so the full surface is declared (and testable) in one
// place instead of scattered across registration calls.
func Mux(v1 apiV1) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range v1Routes {
		mux.HandleFunc(rt.pattern, rt.handler(v1))
	}
	return mux
}

// Routes returns the method+pattern strings of the version-1 surface in
// table order — what /v1/capabilities advertises.
func Routes() []string {
	out := make([]string, len(v1Routes))
	for i, rt := range v1Routes {
		out[i] = rt.pattern
	}
	return out
}

// errorCode maps an HTTP status to a stable machine-readable code for
// the error envelope.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}
