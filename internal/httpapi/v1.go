// The versioned v1 surface: resource-oriented routes speaking the typed
// wire contract of the cdas/api package. Every error path here returns
// a structured api.Error envelope; GET /v1/jobs paginates and filters;
// the SSE stream lives in sse.go.
package httpapi

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"cdas/api"
	"cdas/internal/core/aggregate"
	"cdas/internal/jobs"
)

// Pagination bounds for GET /v1/jobs.
const (
	defaultPageSize = 100
	maxPageSize     = 500
)

// unparkVerb is the custom-method suffix of POST /v1/jobs/{name}:unpark.
const unparkVerb = ":unpark"

// v1Route is one versioned-surface registration: the mux method and
// pattern plus the openapi.yaml path the route is documented under
// (empty doc = documented under the mux path itself).
type v1Route struct {
	method  string
	path    string
	doc     string
	handler http.HandlerFunc
}

// v1Routes is the authoritative table of the versioned surface. mountV1
// registers exactly these routes, and the openapi lint test checks
// every entry against api/openapi.yaml — a served route the spec does
// not document fails the build.
func (s *Server) v1Routes() []v1Route {
	return []v1Route{
		{"GET", "/v1/healthz", "", s.v1Health},
		{"GET", "/v1/metrics", "", s.v1Metrics},
		{"GET", "/v1/scheduler", "", s.v1Scheduler},
		{"GET", "/v1/aggregators", "", s.v1Aggregators},
		{"GET", "/v1/queries", "", s.v1Queries},
		{"GET", "/v1/queries/{name}", "", s.v1Query},
		{"GET", "/v1/queries/{name}/events", "", s.v1QueryEvents},
		// The /v1/streams group is a deprecated alias of the unified
		// kind-discriminated job surface: historical bodies, Deprecation
		// header, successor-version Link.
		{"POST", "/v1/streams", "", deprecated("/v1/jobs", s.v1SubmitStream)},
		{"GET", "/v1/streams", "", deprecated("/v1/jobs?kind=continuous", s.v1ListStreams)},
		{"GET", "/v1/streams/{name}", "", deprecated("/v1/jobs/{name}", s.v1GetStream)},
		{"GET", "/v1/streams/{name}/events", "", deprecated("/v1/queries/{name}/events", s.v1StreamEvents)},
		{"DELETE", "/v1/streams/{name}", "", deprecated("/v1/jobs/{name}", s.v1CancelStream)},
		{"GET", "/v1/enumerations", "", s.v1ListEnums},
		{"GET", "/v1/enumerations/{name}", "", s.v1GetEnum},
		{"GET", "/v1/enumerations/{name}/events", "", s.v1EnumEvents},
		{"POST", "/v1/jobs", "", s.v1SubmitJob},
		{"GET", "/v1/jobs", "", s.v1ListJobs},
		{"GET", "/v1/jobs/{name}", "", s.v1GetJob},
		{"DELETE", "/v1/jobs/{name}", "", s.v1CancelJob},
		// ServeMux wildcards span whole segments, so the AIP-style custom
		// method POST /v1/jobs/{name}:unpark arrives with "name:unpark" as
		// the segment; v1JobAction splits the verb off.
		{"POST", "/v1/jobs/{nameAction}", "/v1/jobs/{name}:unpark", s.v1JobAction},
	}
}

func (s *Server) mountV1(mux *http.ServeMux) {
	for _, r := range s.v1Routes() {
		mux.HandleFunc(r.method+" "+r.path, r.handler)
	}
	// Everything else under /v1 is a structured 404, not a plain-text
	// mux miss.
	mux.HandleFunc("/v1/", s.v1NotFound)
}

func (s *Server) v1NotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, api.NotFound("no route %s %s", r.Method, r.URL.Path))
}

func (s *Server) v1Health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.Health{Status: "ok", Version: api.Version})
}

func (s *Server) v1Metrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	reg := s.counters
	s.mu.RUnlock()
	writeJSON(w, api.Metrics{Counters: reg.Snapshot()})
}

func (s *Server) v1Scheduler(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	sched := s.sched
	s.mu.RUnlock()
	if sched == nil {
		writeError(w, api.Unavailable("no scheduler attached"))
		return
	}
	st := sched.State()
	out := api.SchedulerState{
		Generations:        st.Generations,
		PendingJobs:        st.PendingJobs,
		DedupEnabled:       st.DedupEnabled,
		CacheEntries:       st.CacheEntries,
		CacheHits:          st.CacheHits,
		CacheMisses:        st.CacheMisses,
		QuestionsEnqueued:  st.QuestionsEnqueued,
		QuestionsPublished: st.QuestionsPublished,
		QuestionsDeduped:   st.QuestionsDeduped,
		BatchesPublished:   st.BatchesPublished,
		JobsAdmitted:       st.JobsAdmitted,
		JobsParked:         st.JobsParked,
		Budget: api.BudgetSnapshot{
			GlobalLimit: st.Budget.GlobalLimit,
			GlobalSpent: st.Budget.GlobalSpent,
		},
	}
	for _, line := range st.Budget.Jobs {
		out.Budget.Jobs = append(out.Budget.Jobs, api.JobBudgetLine{
			Job: line.Job, Limit: line.Limit, Spent: line.Spent,
		})
	}
	writeJSON(w, out)
}

// v1Aggregators serves the answer-aggregation registry: the discovery
// counterpart of JobSubmission.Aggregator, so clients can enumerate the
// methods before picking one.
func (s *Server) v1Aggregators(w http.ResponseWriter, _ *http.Request) {
	infos := aggregate.Infos()
	out := api.AggregatorList{
		Default:     aggregate.DefaultName,
		Aggregators: make([]api.AggregatorInfo, 0, len(infos)),
	}
	for _, info := range infos {
		out.Aggregators = append(out.Aggregators, api.AggregatorInfo{
			Name:         info.Name,
			Incremental:  info.Incremental,
			ResponseType: info.ResponseType,
			Description:  info.Description,
		})
	}
	writeJSON(w, out)
}

func (s *Server) v1Queries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.QueryList{Queries: s.queryStates()})
}

func (s *Server) v1Query(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.Get(name)
	if !ok {
		writeError(w, api.NotFound("no such query %q", name))
		return
	}
	writeJSON(w, st)
}

// requireJobs fetches the controller or serves the 503 envelope.
func (s *Server) requireJobs(w http.ResponseWriter) (JobController, bool) {
	ctl := s.jobs()
	if ctl == nil {
		writeError(w, api.Unavailable("no job service attached"))
		return nil, false
	}
	return ctl, true
}

// listJobsParams are the validated pagination and filter parameters of
// GET /v1/jobs.
type listJobsParams struct {
	limit     int
	afterName string
	state     api.JobState
	tenant    string
	kind      string
}

// parseListJobs extracts and validates the pagination and filter
// parameters of GET /v1/jobs.
func parseListJobs(r *http.Request) (listJobsParams, *api.Error) {
	q := r.URL.Query()
	p := listJobsParams{limit: defaultPageSize}
	if v := q.Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return p, api.InvalidArgument("limit must be a positive integer, got %q", v)
		}
		p.limit = min(n, maxPageSize)
	}
	if v := q.Get("page_token"); v != "" {
		raw, derr := base64.RawURLEncoding.DecodeString(v)
		if derr != nil {
			return p, api.InvalidArgument("bad page_token %q", v)
		}
		// A token is always the base64 of a job name this server issued,
		// so its payload must satisfy the same rules submission enforces;
		// anything else is a forged or corrupted token, rejected rather
		// than passed to the index as an arbitrary range bound.
		p.afterName = string(raw)
		if !utf8.ValidString(p.afterName) || checkJobName(p.afterName) != nil {
			return p, api.InvalidArgument("page_token %q does not decode to a valid job name", v)
		}
	}
	if v := q.Get("state"); v != "" {
		p.state = api.JobState(v)
		if !p.state.Valid() {
			return p, api.InvalidArgument("unknown state filter %q", v)
		}
	}
	p.tenant = q.Get("tenant")
	if v := q.Get("kind"); v != "" {
		switch v {
		case api.KindBatch, api.KindTSA, api.KindImageTag, api.KindCustom,
			api.KindContinuous, api.KindEnumeration:
			p.kind = v
		default:
			return p, api.InvalidArgument("unknown kind filter %q", v)
		}
	}
	return p, nil
}

// kindMatches applies the ?kind= filter: "batch" matches every one-shot
// plan kind, anything else matches exactly.
func kindMatches(filter string, kind jobs.Kind) bool {
	if filter == api.KindBatch {
		return kind != jobs.KindContinuous && kind != jobs.KindEnumeration
	}
	return string(kind) == filter
}

func (s *Server) v1ListJobs(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	p, aerr := parseListJobs(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	out := api.JobList{Jobs: []api.JobStatus{}}
	if p.kind == "" {
		// One index range-read serves the page: names are index-ordered, so
		// the page token is the last returned name and a page picks up where
		// the previous one stopped even when jobs were inserted or removed
		// in between.
		page, more := ctl.StatusesPage(p.afterName, p.limit, jobs.State(p.state), p.tenant)
		for _, st := range page {
			out.Jobs = append(out.Jobs, s.jobStatus(st))
		}
		if more && len(out.Jobs) > 0 {
			out.NextPageToken = base64.RawURLEncoding.EncodeToString(
				[]byte(out.Jobs[len(out.Jobs)-1].Name))
		}
		writeJSON(w, out)
		return
	}
	// The kind filter has no secondary index: sieve the indexed range.
	kept, next := sievePage(ctl, p, func(st jobs.Status) bool { return kindMatches(p.kind, st.Job.Kind) })
	for _, st := range kept {
		out.Jobs = append(out.Jobs, s.jobStatus(st))
	}
	out.NextPageToken = next
	writeJSON(w, out)
}

// sievePage fills one page of a listing whose filter has no secondary
// index: it keeps paging the indexed range in chunks of the page size
// and keeps the records keep accepts, until the page is full or the
// range ends. next is the page token to continue with — the last name
// kept, so it composes with insertions and the indexed filters exactly
// like the unfiltered path — and is set whenever records of the range
// were not examined, including the rest of the final chunk.
func sievePage(ctl JobController, p listJobsParams, keep func(jobs.Status) bool) (kept []jobs.Status, next string) {
	after := p.afterName
	for {
		chunk, more := ctl.StatusesPage(after, p.limit, jobs.State(p.state), p.tenant)
		for i, st := range chunk {
			if !keep(st) {
				continue
			}
			kept = append(kept, st)
			if len(kept) == p.limit {
				if more || i < len(chunk)-1 {
					next = base64.RawURLEncoding.EncodeToString([]byte(st.Job.Name))
				}
				return kept, next
			}
		}
		if !more || len(chunk) == 0 {
			return kept, ""
		}
		after = chunk[len(chunk)-1].Job.Name
	}
}

func (s *Server) v1GetJob(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	st, found := ctl.Status(name)
	if !found {
		writeError(w, api.NotFound("no such job %q", name))
		return
	}
	writeJSON(w, s.jobStatus(st))
}

func (s *Server) v1CancelJob(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if err := ctl.Cancel(name); err != nil {
		writeError(w, jobError(err))
		return
	}
	st, _ := ctl.Status(name)
	writeJSON(w, s.jobStatus(st))
}

// v1JobAction dispatches AIP-style custom methods: POST
// /v1/jobs/{name}:verb. Only :unpark exists today.
func (s *Server) v1JobAction(w http.ResponseWriter, r *http.Request) {
	seg := r.PathValue("nameAction")
	name, verb, found := strings.Cut(seg, ":")
	if !found {
		writeError(w, api.NotFound("no route POST /v1/jobs/%s (custom methods use /v1/jobs/{name}:verb)", seg))
		return
	}
	if ":"+verb != unparkVerb {
		writeError(w, api.InvalidArgument("unknown action %q on job %q", verb, name))
		return
	}
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	if err := ctl.Unpark(name); err != nil {
		writeError(w, jobError(err))
		return
	}
	st, _ := ctl.Status(name)
	writeJSON(w, s.jobStatus(st))
}

// jobError maps job-service errors onto the structured envelope.
func jobError(err error) *api.Error {
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		return api.NotFound("%v", err)
	case errors.Is(err, jobs.ErrDuplicateJob):
		return api.Conflict("%v", err)
	case errors.Is(err, jobs.ErrBadTransition):
		return api.Conflict("%v", err)
	default:
		return api.Internal("%v", err)
	}
}

// jobFromSubmission converts the kind-discriminated wire submission
// into a jobs.Job (semantic validation happens at registration). The
// kind selects which fields apply: every kind except "enumeration"
// needs a window, "continuous" carries the stream spec block,
// "enumeration" the enum block. Kind/spec cross-checks (a stream block
// on a batch job, a missing enum block) are registration's job — the
// mapping here is mechanical.
func jobFromSubmission(sub api.JobSubmission) (jobs.Job, error) {
	kind := jobs.Kind(sub.Kind)
	switch sub.Kind {
	case "", api.KindBatch:
		// "batch" is the documented alias for the default one-shot plan.
		kind = jobs.KindTSA
	}
	var window time.Duration
	var err error
	if kind != jobs.KindEnumeration || sub.Window != "" {
		if window, err = time.ParseDuration(sub.Window); err != nil {
			return jobs.Job{}, fmt.Errorf("bad window %q: %w", sub.Window, err)
		}
	}
	start := time.Now().UTC()
	if sub.Start != "" {
		start, err = time.Parse(time.RFC3339, sub.Start)
		if err != nil {
			return jobs.Job{}, fmt.Errorf("bad start %q (want RFC 3339): %w", sub.Start, err)
		}
	}
	job := jobs.Job{
		Name:       sub.Name,
		Kind:       kind,
		Priority:   sub.Priority,
		Budget:     sub.Budget,
		Aggregator: sub.Aggregator,
		Tenant:     sub.Tenant,
		Query: jobs.Query{
			Keywords:         sub.Keywords,
			RequiredAccuracy: sub.RequiredAccuracy,
			Domain:           sub.Domain,
			Start:            start,
			Window:           window,
		},
	}
	if sub.Stream != nil {
		spec, err := streamSpecFromWire(*sub.Stream)
		if err != nil {
			return jobs.Job{}, err
		}
		job.Stream = &spec
	}
	if sub.Enum != nil {
		spec := enumSpecFromWire(*sub.Enum)
		job.Enum = &spec
	}
	return job, nil
}

// streamSpecFromWire maps the wire stream block onto the internal spec,
// parsing the duration strings.
func streamSpecFromWire(w api.StreamSpec) (jobs.StreamSpec, error) {
	spec := jobs.StreamSpec{
		WindowCapacity: w.WindowCapacity,
		MaxBacklog:     w.MaxBacklog,
		Items:          w.Items,
		Rate:           w.Rate,
		SourceSeed:     w.SourceSeed,
	}
	var err error
	if w.Lateness != "" {
		if spec.Lateness, err = time.ParseDuration(w.Lateness); err != nil {
			return jobs.StreamSpec{}, fmt.Errorf("bad lateness %q: %w", w.Lateness, err)
		}
	}
	if w.TargetFill != "" {
		if spec.TargetFill, err = time.ParseDuration(w.TargetFill); err != nil {
			return jobs.StreamSpec{}, fmt.Errorf("bad target_fill %q: %w", w.TargetFill, err)
		}
	}
	return spec, nil
}

// enumSpecFromWire maps the wire enum block onto the internal spec.
func enumSpecFromWire(w api.EnumSpec) jobs.EnumSpec {
	return jobs.EnumSpec{
		ItemValue:      w.ItemValue,
		TargetCoverage: w.TargetCoverage,
		MaxBatches:     w.MaxBatches,
		HITWorkers:     w.HITWorkers,
		PerWorker:      w.PerWorker,
		Universe:       w.Universe,
		Popularity:     w.Popularity,
		SourceSeed:     w.SourceSeed,
	}
}
