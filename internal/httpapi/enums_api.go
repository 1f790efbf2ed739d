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
	} else if prev, ok := s.enums[st.Name]; ok && st.LastBatch == nil {
		st.LastBatch = prev.LastBatch
	}
	s.enums[st.Name] = st
	s.enumRevs[st.Name]++
	kind := api.EventBatch
	if batch == nil {
		kind = api.EventState
	}
	if st.Done {
		kind = api.EventDone
	}
	ev := feedEvent{rev: s.enumRevs[st.Name], kind: kind, data: api.EnumEvent{Batch: batch, State: st}}
	for sub := range s.enumSubs[st.Name] {
		sub.push(ev)
	}
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
	out, published := s.enums[st.Job.Name]
	ctl := s.jobsCtl
	s.mu.RUnlock()
	if !published {
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

// enumRev returns an enumeration's current published state and revision.
func (s *Server) enumRev(name string) (api.EnumStatus, int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.enums[name]
	return st, s.enumRevs[name], ok
}

// subscribeEnum registers an SSE watcher on an enumeration's feed.
func (s *Server) subscribeEnum(name string) *subscriber {
	s.mu.Lock()
	defer s.mu.Unlock()
	return subscribeIn(s.enumSubs, name)
}

func (s *Server) unsubscribeEnum(name string, sub *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unsubscribeIn(s.enumSubs, name, sub)
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
	s.runSSE(w, r, name,
		func() (*subscriber, func()) {
			sub := s.subscribeEnum(name)
			return sub, func() { s.unsubscribeEnum(name, sub) }
		},
		func(lastSeen int64, send func(feedEvent) bool) bool {
			cur, rev, published := s.enumRev(name)
			if published && (rev > lastSeen || cur.Done) {
				kind := api.EventState
				if cur.Done {
					kind = api.EventDone
				}
				return send(feedEvent{rev: rev, kind: kind, data: api.EnumEvent{State: cur}})
			}
			return true
		},
		func(st jobs.Status, send func(feedEvent) bool) {
			// The job is terminal but never published a done event (a
			// failure before the first batch, or a cancel): synthesize
			// one from the merged view so watchers never hang.
			final := s.enumStatus(st)
			final.Done = true
			_, rev, _ := s.enumRev(name)
			send(feedEvent{rev: rev, kind: api.EventDone, data: api.EnumEvent{State: final}})
		})
}
