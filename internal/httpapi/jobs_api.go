// Write API for the durable job service: submit, inspect and cancel
// analytics jobs over HTTP. The DTOs are the cdas/api wire contract;
// v1.go mounts the routes.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"cdas/api"
	"cdas/internal/core/aggregate"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
)

// JobController is the slice of the job service the API needs.
// *jobs.Dispatcher satisfies it. Listing goes exclusively through
// StatusesPage: no handler materializes the full job table, so the API
// stays O(page) however many jobs the store holds.
type JobController interface {
	Submit(jobs.Job) (jobs.Plan, error)
	Status(name string) (jobs.Status, bool)
	// StatusesPage lists up to limit records in name order strictly
	// after the given name, optionally filtered by state and/or tenant;
	// more reports that records beyond the page remain. Backed by the
	// service's secondary indexes, so a page costs O(limit), not a sort
	// of every job.
	StatusesPage(after string, limit int, state jobs.State, tenant string) (page []jobs.Status, more bool)
	Cancel(name string) error
	Unpark(name string) error
}

// SetJobs attaches the job service behind the write API. Call before
// serving; a Server without a controller answers job routes with 503.
func (s *Server) SetJobs(c JobController) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobsCtl = c
}

// SetCounters attaches an operational-counter registry served at
// GET /v1/metrics.
func (s *Server) SetCounters(r *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = r
}

func (s *Server) jobs() JobController {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobsCtl
}

// JobSubmission is the job-submission request body — the api wire type.
type JobSubmission = api.JobSubmission

// JobStatus is the wire form of a job's lifecycle record — the api wire
// type, with the live query results attached when the run has published
// any.
type JobStatus = api.JobStatus

// jobStatus renders a lifecycle record onto the wire contract.
func (s *Server) jobStatus(st jobs.Status) JobStatus {
	out := JobStatus{
		Name:       st.Job.Name,
		Kind:       string(st.Job.Kind),
		Keywords:   st.Job.Query.Keywords,
		State:      api.JobState(st.State),
		Attempts:   st.Attempts,
		Progress:   st.Progress,
		Cost:       st.Cost,
		Priority:   st.Job.Priority,
		Budget:     st.Job.Budget,
		Aggregator: st.Job.Aggregator,
		Tenant:     st.Job.Tenant,
		Error:      st.Error,
	}
	if qs, ok := s.Get(st.Job.Name); ok {
		out.Results = &qs
	}
	return out
}

// v1SubmitJob is POST /v1/jobs: decode, validate and register one job.
func (s *Server) v1SubmitJob(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	var sub JobSubmission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, api.InvalidArgument("bad submission: %v", err))
		return
	}
	// An unknown aggregation method gets its own error code, with the
	// registry listed in Detail — the fix is discoverable from the error
	// alone (or from GET /v1/aggregators).
	if err := aggregate.Validate(sub.Aggregator); err != nil {
		writeError(w, api.UnknownAggregator(sub.Aggregator, aggregate.Names()))
		return
	}
	job, err := jobFromSubmission(sub)
	if err != nil {
		writeError(w, api.InvalidArgument("%v", err))
		return
	}
	if err := checkJobName(job.Name); err != nil {
		writeError(w, api.InvalidArgument("%v", err))
		return
	}
	if _, err := ctl.Submit(job); err != nil {
		// Registration rejects semantically invalid jobs with plain
		// errors; only a duplicate name is a conflict.
		if errors.Is(err, jobs.ErrDuplicateJob) {
			writeError(w, api.Conflict("%v", err))
		} else {
			writeError(w, api.InvalidArgument("%v", err))
		}
		return
	}
	st, _ := ctl.Status(job.Name)
	// writeJSONStatus sets Content-Type exactly once, before the status
	// line freezes the headers.
	w.Header().Set("Location", "/v1/jobs/"+url.PathEscape(job.Name))
	writeJSONStatus(w, http.StatusCreated, s.jobStatus(st))
}

// checkJobName rejects names that cannot round-trip through the
// /v1/jobs/{name} path: a ServeMux wildcard spans a single segment, so
// a job named with a "/" (or a dot segment) could be created but never
// fetched or cancelled over HTTP, and ":" would collide with the
// {name}:unpark custom-method syntax.
func checkJobName(name string) error {
	if strings.ContainsAny(name, "/\\:") || name == "." || name == ".." {
		return fmt.Errorf("job name %q must not contain path separators or ':'", name)
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("job name %q must not contain control characters", name)
		}
	}
	return nil
}
