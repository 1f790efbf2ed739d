// Package httpapi serves CDAS results over HTTP in the style of the
// paper's Figure 4: a query's running percentages, reason keywords and
// HIT progress, refreshed as the crowdsourcing engine accepts answers.
//
// The public surface is the versioned /v1 API (v1.go): resource-oriented
// routes speaking the typed wire contract of the top-level api package,
// structured api.Error envelopes on every error path, pagination on job
// lists, and an SSE stream pushing each QueryState revision as answers
// arrive (sse.go).
package httpapi

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"sync"

	"cdas/api"
	"cdas/internal/exec"
	"cdas/internal/metrics"
)

// QueryState is the live presentation of one registered query. It is
// the api.QueryState wire type: the dashboard, the SSE stream and the
// v1 routes all serve exactly what the contract declares.
type QueryState = api.QueryState

// Server holds query states and exposes them over HTTP. It is safe for
// concurrent use. Attach a job service with SetJobs to enable the write
// API (POST/GET/DELETE jobs) and a counter registry with SetCounters
// for the metrics routes.
type Server struct {
	mu       sync.RWMutex
	queries  feed[QueryState]
	streams  feed[api.StreamStatus]
	enums    feed[api.EnumStatus]
	jobsCtl  JobController
	counters *metrics.Registry
	sched    SchedulerReporter
	logf     func(format string, args ...any)
}

// NewServer returns an empty Server.
func NewServer() *Server {
	return &Server{
		queries: make(feed[QueryState]),
		streams: make(feed[api.StreamStatus]),
		enums:   make(feed[api.EnumStatus]),
	}
}

// SetLogf attaches an access/error logger (log.Printf-shaped). A Server
// without one stays silent.
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logf = logf
}

func (s *Server) logfn() func(format string, args ...any) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logf
}

// Update publishes (or replaces) a query's state and fans the new
// revision out to every SSE subscriber of that query.
func (s *Server) Update(st QueryState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updateLocked(st)
}

func (s *Server) updateLocked(st QueryState) {
	s.queries.publish(st.Name, st, stateKind(st.Done), st)
}

// UpdateFromSummary is a convenience wrapper building a QueryState from
// the executor's summary.
func (s *Server) UpdateFromSummary(name string, sum exec.Summary, progress float64, done bool) {
	s.Update(QueryState{
		Name:        name,
		Domain:      sum.Domain,
		Percentages: sum.Percentages,
		Reasons:     sum.Reasons,
		Items:       sum.Items,
		Progress:    progress,
		Done:        done,
		Confidence:  sum.Confidence,
		Quality:     sum.Quality,
	})
}

// Get returns a query's state.
func (s *Server) Get(name string) (QueryState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, rev := s.queries.get(name)
	return st, rev > 0
}

// queryStates lists the published query states, sorted by name.
func (s *Server) queryStates() []QueryState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]QueryState, 0, len(s.queries))
	for _, e := range s.queries {
		if e.rev > 0 {
			out = append(out, e.state)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler returns the HTTP handler. The v1 surface (see v1.go):
//
//	POST   /v1/jobs                        submit a job (kind batch | continuous | enumeration)
//	GET    /v1/jobs                        paginated, filterable (?kind= included) job list
//	GET    /v1/jobs/{name}                 one job's record and live results
//	DELETE /v1/jobs/{name}                 cancel a pending, parked or running job
//	POST   /v1/jobs/{name}:unpark          resume a budget-parked job
//	GET    /v1/queries                     all live query states
//	GET    /v1/queries/{name}              one query's state
//	GET    /v1/queries/{name}/events       SSE stream of QueryState revisions
//	GET    /v1/enumerations                paginated enumeration list
//	GET    /v1/enumerations/{name}         one enumeration's result set and estimate
//	GET    /v1/enumerations/{name}/events  SSE stream of completed batches
//	GET    /v1/scheduler                   cross-query scheduler state
//	GET    /v1/metrics                     operational counters
//	GET    /v1/healthz                     liveness probe
//
// plus the deprecated /v1/streams group (POST/GET/DELETE /v1/streams...,
// historical bodies with a Deprecation header; submission's successor is
// the kind-discriminated POST /v1/jobs) and GET / (HTML overview).
// Requests flow through the middleware chain: request ID, panic
// recovery into a 500 envelope, and optional access logging (SetLogf).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mountV1(mux)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return s.middleware(mux)
}

// deprecated marks a legacy route: the response carries a Deprecation
// header (RFC 9745) and a successor-version Link so clients can find
// the v1 replacement, while the body keeps its historical shape.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, s.queryStates()); err != nil {
		if logf := s.logfn(); logf != nil {
			logf("httpapi: rendering index: %v", err)
		}
	}
}

// writeJSON serves v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus marshals v to a buffer before touching the response:
// an encoding failure yields a clean 500 envelope instead of a partial
// 200 body followed by an unsendable error.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, api.Internal("encoding response: %v", err))
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeError serves a structured api.Error envelope.
func writeError(w http.ResponseWriter, e *api.Error) {
	b, err := json.MarshalIndent(api.ErrorResponse{Error: e}, "", "  ")
	if err != nil {
		// An Error is all strings and ints; this cannot fail. Keep a
		// plain-text fallback rather than recursing.
		http.Error(w, e.Message, e.Status)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	w.Write(b)
}

var indexTemplate = template.Must(template.New("index").Funcs(template.FuncMap{
	"pct": func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) },
}).Parse(`<!DOCTYPE html>
<html>
<head><title>CDAS — live results</title></head>
<body>
<h1>CDAS — live query results</h1>
{{- if not .}}<p>No queries registered.</p>{{end}}
{{- range .}}
<section>
  <h2>{{.Name}} {{if .Error}}(failed at {{pct .Progress}}: {{.Error}}){{else if .Done}}(done){{else}}({{pct .Progress}} of answers in){{end}}</h2>
  <table border="1" cellpadding="4">
    <tr><th>answer</th><th>percentage</th><th>reasons</th></tr>
    {{- $st := .}}
    {{- range .Domain}}
    <tr>
      <td>{{.}}</td>
      <td>{{pct (index $st.Percentages .)}}</td>
      <td>{{range index $st.Reasons .}}{{.}} {{end}}</td>
    </tr>
    {{- end}}
  </table>
  <p>{{.Items}} items processed.</p>
</section>
{{- end}}
</body>
</html>
`))
