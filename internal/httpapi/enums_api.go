// Enumeration surface: GET /v1/enumerations lists open-ended collection
// jobs, GET /v1/enumerations/{name} reports the growing result set with
// its live Chao92 completeness estimate, and the SSE route pushes one
// "batch" event per completed HIT batch, newly discovered items
// included. An enumeration IS a job underneath — submission goes
// through POST /v1/jobs with kind "enumeration", and lifecycle actions
// (cancel, unpark) stay on the /v1/jobs surface; this one speaks items
// and estimates.
package httpapi

import (
	"net/http"

	"cdas/api"
	"cdas/internal/enum"
	"cdas/internal/jobs"
	"cdas/internal/stats"
)

// EnumPublisher returns the enum.PublishFunc that feeds this server:
// every committed batch lands on the enumeration SSE surface and the
// published-state map GET /v1/enumerations serves from.
func (s *Server) EnumPublisher() enum.PublishFunc {
	return func(job jobs.Job, batch *enum.BatchResult, items []enum.Item, mark jobs.StreamMark, est stats.SpeciesEstimate, done bool) {
		s.PublishEnumBatch(enumStatusDTO(job, items, mark, est, done), enumBatchDTO(batch))
	}
}

// PublishEnumBatch records an enumeration's new state and fans it out:
// batch non-nil publishes a "batch" event, batch nil with st.Done a
// terminal "done" event.
func (s *Server) PublishEnumBatch(st api.EnumStatus, batch *api.EnumBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if batch != nil {
		st.LastBatch = batch
	} else if prev, rev := s.enums.get(st.Name); rev > 0 && st.LastBatch == nil {
		st.LastBatch = prev.LastBatch
	}
	kind := api.EventBatch
	if batch == nil || st.Done {
		kind = stateKind(st.Done)
	}
	s.enums.publish(st.Name, st, kind, api.EnumEvent{Batch: batch, State: st})
}

// enumItemsDTO renders the discovered set onto the wire contract.
func enumItemsDTO(items []enum.Item) []api.EnumItem {
	if len(items) == 0 {
		return nil
	}
	out := make([]api.EnumItem, len(items))
	for i, it := range items {
		out[i] = api.EnumItem{Key: it.Key, Text: it.Text, Count: it.Count, Batch: it.Batch}
	}
	return out
}

// enumEstimateDTO renders a species estimate onto the wire contract.
func enumEstimateDTO(est stats.SpeciesEstimate) *api.EnumEstimate {
	return &api.EnumEstimate{
		Observed:     est.Observed,
		Samples:      est.Samples,
		Singletons:   est.Singletons,
		Coverage:     est.Coverage,
		CV2:          est.CV2,
		Total:        est.Total,
		Completeness: est.Completeness(),
	}
}

// enumBatchDTO renders one completed batch onto the wire contract.
func enumBatchDTO(b *enum.BatchResult) *api.EnumBatch {
	if b == nil {
		return nil
	}
	return &api.EnumBatch{
		Batch:         b.Batch,
		Contributions: b.Contributions,
		NewItems:      enumItemsDTO(b.NewItems),
		ExpectedNew:   b.ExpectedNew,
		Cost:          b.Cost,
	}
}

// enumStatusDTO renders the runner's cumulative view onto the wire.
func enumStatusDTO(job jobs.Job, items []enum.Item, mark jobs.StreamMark, est stats.SpeciesEstimate, done bool) api.EnumStatus {
	st := api.EnumStatus{
		Name:     job.Name,
		Keywords: job.Query.Keywords,
		State:    api.JobRunning,
		Batches:  mark.Window + 1,
		Distinct: len(items),
		Spent:    mark.Spent,
		Done:     done,
		Items:    enumItemsDTO(items),
	}
	if mark.Enum != nil {
		st.Contributions = mark.Enum.Contributions
		st.Stopped = mark.Enum.Stopped
	}
	if est.Samples > 0 {
		st.Estimate = enumEstimateDTO(est)
		st.Progress = est.Completeness()
	}
	if done {
		st.Progress = 1
	}
	return st
}

// enumStatus merges the job's lifecycle record with whatever the runner
// has published: an enumeration this process has never run still lists
// with its durably committed result set (rebuilt from the stream mark,
// estimate included), and a job that died before publishing still
// surfaces its terminal error.
func (s *Server) enumStatus(st jobs.Status) api.EnumStatus {
	s.mu.RLock()
	out, rev := s.enums.get(st.Job.Name)
	ctl := s.jobsCtl
	s.mu.RUnlock()
	if rev == 0 {
		out = api.EnumStatus{
			Name:     st.Job.Name,
			Keywords: st.Job.Query.Keywords,
			Progress: st.Progress,
		}
		if marks, ok := ctl.(StreamMarks); ok {
			if mark, has := marks.StreamMarkFor(st.Job.Name); has {
				set := enum.RestoreResultSet(mark.Enum)
				est := set.Estimate()
				out = enumStatusDTO(st.Job, set.Items(), mark, est, false)
				out.Progress = st.Progress
			}
		}
	}
	out.State = api.JobState(st.State)
	if out.State.Terminal() {
		out.Done = true
		if out.Error == "" {
			out.Error = st.Error
		}
	}
	return out
}

// isEnum reports whether the status belongs to an enumeration job.
func isEnum(st jobs.Status) bool { return st.Job.Kind == jobs.KindEnumeration }

// v1ListEnums is GET /v1/enumerations: the paginated enumeration
// listing. It shares GET /v1/jobs's pagination contract — ?limit=,
// ?page_token= (the same validated opaque token), ?state= and ?tenant=
// — and sieves the indexed range down to enumeration jobs.
func (s *Server) v1ListEnums(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	p, aerr := parseListJobs(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	out := api.EnumList{Enumerations: []api.EnumStatus{}}
	kept, next := sievePage(ctl, p, isEnum)
	for _, st := range kept {
		out.Enumerations = append(out.Enumerations, s.enumStatus(st))
	}
	out.NextPageToken = next
	writeJSON(w, out)
}

// lookupEnum resolves name to an enumeration job's status, writing the
// 404 envelope when it is unknown or not an enumeration.
func (s *Server) lookupEnum(w http.ResponseWriter, name string) (jobs.Status, bool) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return jobs.Status{}, false
	}
	st, found := ctl.Status(name)
	if !found || !isEnum(st) {
		writeError(w, api.NotFound("no such enumeration %q", name))
		return jobs.Status{}, false
	}
	return st, true
}

func (s *Server) v1GetEnum(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupEnum(w, r.PathValue("name"))
	if !ok {
		return
	}
	writeJSON(w, s.enumStatus(st))
}

// v1EnumEvents is GET /v1/enumerations/{name}/events: an SSE stream
// pushing one "batch" event per completed HIT batch (newly discovered
// items and the refreshed estimate attached), a "state" replay on
// connect, and a terminal "done" event after which the server closes
// the stream. The same Last-Event-ID and dead-job synthesis rules as
// the query events route apply.
func (s *Server) v1EnumEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.lookupEnum(w, name); !ok {
		return
	}
	serveFeed(s, w, r, s.enums, name,
		func(st api.EnumStatus) (string, any) { return stateKind(st.Done), api.EnumEvent{State: st} },
		func(_ api.EnumStatus, job jobs.Status) any {
			// The job is terminal but never published a done event (a
			// failure before the first batch, or a cancel): synthesize
			// one from the merged view so watchers never hang.
			final := s.enumStatus(job)
			final.Done = true
			return api.EnumEvent{State: final}
		})
}
