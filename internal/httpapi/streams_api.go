// Standing-query (stream) surface: POST /v1/streams submits a
// continuous job, GET inspects its window accounting, and the SSE
// route pushes one event per closed window. A stream IS a continuous
// job underneath — lifecycle actions (cancel, unpark, attempts) stay
// on the /v1/jobs surface; this one speaks windows.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"cdas/api"
	"cdas/internal/core/aggregate"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/standing"
)

// StreamMarks is the optional JobController facet exposing durable
// stream marks. When the controller implements it, stream reads fall
// back to the committed mark for streams this process has never
// published — after a restart, GET /v1/streams reports the recovered
// windows/spend instead of zeros.
type StreamMarks interface {
	StreamMarkFor(name string) (jobs.StreamMark, bool)
}

// StandingPublisher returns the standing.PublishFunc that feeds this
// server: every closed window lands on the stream SSE surface, and the
// running whole-stream fold doubles as the query's Figure-4 row.
func (s *Server) StandingPublisher() standing.PublishFunc {
	return func(job jobs.Job, win *standing.WindowResult, mark jobs.StreamMark, sum exec.Summary, progress float64, done bool) {
		s.PublishStreamWindow(streamStatusDTO(job, mark, sum, progress, done), streamWindowDTO(win))
	}
}

// PublishStreamWindow records a stream's new state and fans it out:
// win non-nil publishes a "window" event, win nil with st.Done a
// terminal "done" event. The embedded Results fold is mirrored onto
// the query surface so standing queries appear on the dashboard and
// /v1/queries like any batch job.
func (s *Server) PublishStreamWindow(st api.StreamStatus, win *api.StreamWindow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if win != nil {
		st.LastWindow = win
	} else if prev, rev := s.streams.get(st.Name); rev > 0 && st.LastWindow == nil {
		st.LastWindow = prev.LastWindow
	}
	kind := api.EventWindow
	if win == nil || st.Done {
		kind = stateKind(st.Done)
	}
	s.streams.publish(st.Name, st, kind, api.StreamEvent{Window: win, State: st})
	if st.Results != nil {
		s.updateLocked(*st.Results)
	}
}

// streamWindowDTO renders a closed window onto the wire contract.
func streamWindowDTO(w *standing.WindowResult) *api.StreamWindow {
	if w == nil {
		return nil
	}
	return &api.StreamWindow{
		Window:      w.Window,
		Start:       w.Start.UTC().Format(time.RFC3339),
		End:         w.End.UTC().Format(time.RFC3339),
		Items:       w.Items,
		Answered:    w.Answered,
		Degraded:    w.Degraded,
		Dropped:     w.Dropped,
		BatchSize:   w.BatchSize,
		Shed:        w.Shed,
		Percentages: w.Summary.Percentages,
		Confidence:  w.Summary.Confidence,
		Quality:     w.Summary.Quality,
		Cost:        w.Cost,
		CacheHits:   w.CacheHits,
	}
}

// streamStatusDTO renders the runner's cumulative view onto the wire.
func streamStatusDTO(job jobs.Job, mark jobs.StreamMark, sum exec.Summary, progress float64, done bool) api.StreamStatus {
	return api.StreamStatus{
		Name:          job.Name,
		Keywords:      job.Query.Keywords,
		Domain:        job.Query.Domain,
		State:         api.JobRunning,
		WindowsClosed: mark.Window + 1,
		Seen:          mark.Seen,
		Matched:       mark.Matched,
		Dropped:       mark.Dropped,
		Degraded:      mark.Degraded,
		Spent:         mark.Spent,
		Progress:      progress,
		Done:          done,
		Results: &api.QueryState{
			Name:        job.Name,
			Domain:      sum.Domain,
			Percentages: sum.Percentages,
			Reasons:     sum.Reasons,
			Items:       sum.Items,
			Progress:    progress,
			Done:        done,
			Confidence:  sum.Confidence,
			Quality:     sum.Quality,
		},
	}
}

// streamFromSubmission converts the legacy flattened submission into a
// continuous jobs.Job (semantic validation happens at registration).
// The spec fields ride the same mapping the kind-discriminated
// JobSubmission.Stream block uses.
func streamFromSubmission(sub api.StreamSubmission) (jobs.Job, error) {
	window, err := time.ParseDuration(sub.Window)
	if err != nil {
		return jobs.Job{}, fmt.Errorf("bad window %q: %w", sub.Window, err)
	}
	spec, err := streamSpecFromWire(api.StreamSpec{
		Lateness:       sub.Lateness,
		TargetFill:     sub.TargetFill,
		WindowCapacity: sub.WindowCapacity,
		MaxBacklog:     sub.MaxBacklog,
		Items:          sub.Items,
		Rate:           sub.Rate,
		SourceSeed:     sub.SourceSeed,
	})
	if err != nil {
		return jobs.Job{}, err
	}
	start := time.Now().UTC()
	if sub.Start != "" {
		if start, err = time.Parse(time.RFC3339, sub.Start); err != nil {
			return jobs.Job{}, fmt.Errorf("bad start %q (want RFC 3339): %w", sub.Start, err)
		}
	}
	return jobs.Job{
		Name:       sub.Name,
		Kind:       jobs.KindContinuous,
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
		Stream: &spec,
	}, nil
}

func (s *Server) v1SubmitStream(w http.ResponseWriter, r *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	var sub api.StreamSubmission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, api.InvalidArgument("bad stream submission: %v", err))
		return
	}
	if err := aggregate.Validate(sub.Aggregator); err != nil {
		writeError(w, api.UnknownAggregator(sub.Aggregator, aggregate.Names()))
		return
	}
	job, err := streamFromSubmission(sub)
	if err != nil {
		writeError(w, api.InvalidArgument("%v", err))
		return
	}
	if err := checkJobName(job.Name); err != nil {
		writeError(w, api.InvalidArgument("%v", err))
		return
	}
	if _, err := ctl.Submit(job); err != nil {
		if errors.Is(err, jobs.ErrDuplicateJob) {
			writeError(w, api.Conflict("%v", err))
		} else {
			writeError(w, api.InvalidArgument("%v", err))
		}
		return
	}
	st, _ := ctl.Status(job.Name)
	w.Header().Set("Location", "/v1/streams/"+url.PathEscape(job.Name))
	writeJSONStatus(w, http.StatusCreated, s.streamStatus(st))
}

// streamStatus merges the job's lifecycle record with whatever the
// runner has published: a stream that has not closed a window yet
// still lists with its submission shape, and a job that died before
// publishing still surfaces its terminal error.
func (s *Server) streamStatus(st jobs.Status) api.StreamStatus {
	s.mu.RLock()
	out, rev := s.streams.get(st.Job.Name)
	ctl := s.jobsCtl
	s.mu.RUnlock()
	if rev == 0 {
		out = api.StreamStatus{
			Name:     st.Job.Name,
			Keywords: st.Job.Query.Keywords,
			Domain:   st.Job.Query.Domain,
			Progress: st.Progress,
		}
		if marks, ok := ctl.(StreamMarks); ok {
			if mark, has := marks.StreamMarkFor(st.Job.Name); has {
				out.WindowsClosed = mark.Window + 1
				out.Seen = mark.Seen
				out.Matched = mark.Matched
				out.Dropped = mark.Dropped
				out.Degraded = mark.Degraded
				out.Spent = mark.Spent
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

// isStream reports whether the status belongs to a continuous job.
func isStream(st jobs.Status) bool { return st.Job.Kind == jobs.KindContinuous }

func (s *Server) v1ListStreams(w http.ResponseWriter, _ *http.Request) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return
	}
	out := api.StreamList{Streams: []api.StreamStatus{}}
	after := ""
	for {
		page, more := ctl.StatusesPage(after, maxPageSize, "", "")
		for _, st := range page {
			if isStream(st) {
				out.Streams = append(out.Streams, s.streamStatus(st))
			}
		}
		if !more || len(page) == 0 {
			break
		}
		after = page[len(page)-1].Job.Name
	}
	writeJSON(w, out)
}

// lookupStream resolves name to a continuous job's status, writing the
// 404 envelope when it is unknown or not a stream.
func (s *Server) lookupStream(w http.ResponseWriter, name string) (jobs.Status, bool) {
	ctl, ok := s.requireJobs(w)
	if !ok {
		return jobs.Status{}, false
	}
	st, found := ctl.Status(name)
	if !found || !isStream(st) {
		writeError(w, api.NotFound("no such stream %q", name))
		return jobs.Status{}, false
	}
	return st, true
}

func (s *Server) v1GetStream(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r.PathValue("name"))
	if !ok {
		return
	}
	writeJSON(w, s.streamStatus(st))
}

func (s *Server) v1CancelStream(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r.PathValue("name"))
	if !ok {
		return
	}
	ctl, _ := s.requireJobs(w)
	if err := ctl.Cancel(st.Job.Name); err != nil {
		writeError(w, jobError(err))
		return
	}
	cur, _ := ctl.Status(st.Job.Name)
	writeJSON(w, s.streamStatus(cur))
}

// v1StreamEvents is GET /v1/streams/{name}/events: an SSE stream
// pushing one "window" event per closed window, a "state" replay on
// connect, and a terminal "done" event after which the server closes
// the stream. The same Last-Event-ID and dead-job synthesis rules as
// the query events route apply.
func (s *Server) v1StreamEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.lookupStream(w, name); !ok {
		return
	}
	serveFeed(s, w, r, s.streams, name,
		func(st api.StreamStatus) (string, any) { return stateKind(st.Done), api.StreamEvent{State: st} },
		func(_ api.StreamStatus, job jobs.Status) any {
			// The job is terminal but never published a done event (a
			// failure before the first window, or a cancel): synthesize
			// one from the merged view so watchers never hang.
			final := s.streamStatus(job)
			final.Done = true
			return api.StreamEvent{State: final}
		})
}

// writeSSEData frames one SSE event with an arbitrary JSON payload.
func writeSSEData(w http.ResponseWriter, id int64, kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, kind, data)
	return err
}
