package serve

import "net/http"

// MediaV1 is the vendor media type of API version 1, advertised by
// /v1/capabilities.
const MediaV1 = "application/vnd.rocket.v1+json"

// route binds one method+pattern to its Server handler.
type route struct {
	pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
}

// v1Routes returns the version-1 route table, the single source of truth
// for the wire API: newMux is the only place routes are bound, and
// /v1/capabilities lists them via routePatterns. Order is documentation
// order; patterns use Go 1.22 method+path matching. It is a function, not
// a variable, because handleCapabilities reads it back.
func v1Routes() []route {
	return []route{
		{"POST /v1/jobs", (*Server).handleSubmit},
		{"GET /v1/jobs", (*Server).handleList},
		{"GET /v1/jobs/{id}", (*Server).handleJob},
		{"GET /v1/jobs/{id}/result", (*Server).handleResult},
		{"GET /v1/jobs/{id}/events", (*Server).handleJobEvents},
		{"GET /v1/events", (*Server).handleAllEvents},
		{"GET /v1/log", (*Server).handleLog},
		{"POST /v1/datasets", (*Server).handleDatasetCreate},
		{"GET /v1/datasets", (*Server).handleDatasetList},
		{"GET /v1/datasets/{id}", (*Server).handleDataset},
		{"POST /v1/datasets/{id}/append", (*Server).handleDatasetAppend},
		{"POST /v1/datasets/{id}/jobs", (*Server).handleDatasetJob},
		{"GET /v1/store", (*Server).handleStore},
		{"GET /v1/trace", (*Server).handleTrace},
		{"GET /v1/capabilities", (*Server).handleCapabilities},
		{"GET /metrics", (*Server).handleMetrics},
		{"GET /healthz", (*Server).handleHealthz},
	}
}

// newMux binds the route table to s.
func newMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range v1Routes() {
		h := rt.handler
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { h(s, w, r) })
	}
	return mux
}

// routePatterns returns the method+pattern strings of the version-1 surface in
// table order — what /v1/capabilities advertises.
func routePatterns() []string {
	routes := v1Routes()
	out := make([]string, len(routes))
	for i, rt := range routes {
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
