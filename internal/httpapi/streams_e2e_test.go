package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/standing"
	"cdas/internal/textgen"
)

// streamHarness is a full standing-query stack over real HTTP: LSM job
// service, simulated crowd, standing runner publishing into the
// server, and a kind-routed dispatcher so batch jobs coexist.
type streamHarness struct {
	*e2eHarness
	svc  *jobs.Service
	disp *jobs.Dispatcher
}

func newStreamHarness(t *testing.T, publishDelay time.Duration) *streamHarness {
	t.Helper()
	reg := metrics.NewRegistry()
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: t.TempDir(), Counters: reg})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	golden := make([]crowd.Question, 12)
	for i := range golden {
		golden[i] = crowd.Question{
			ID:     fmt.Sprintf("golden/g%03d", i),
			Text:   fmt.Sprintf("Calibration tweet #%d", i),
			Domain: append([]string(nil), textgen.Labels...),
			Truth:  textgen.LabelNeutral,
		}
	}
	var pf engine.Platform = engine.CrowdPlatform{Platform: platform}
	if publishDelay > 0 {
		pf = slowStreamPlatform{Platform: pf, delay: publishDelay}
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform: pf,
		Engine:   engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: 9},
		Golden:   golden,
		OnCharge: func(job string, amount float64) { _ = svc.ChargeBudget(job, amount) },
		Counters: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	srv := NewServer()
	standingRunner := standing.NewRunner(standing.RunnerConfig{
		Scheduler: sched,
		Coord:     standing.NewCoordinator(sched, 0),
		Marks:     svc,
		Counters:  reg,
		Publish:   srv.StandingPublisher(),
	})
	runner := func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		if job.Kind == jobs.KindContinuous {
			return standingRunner(ctx, job, report)
		}
		report(1, 0)
		return nil
	}
	disp, err := jobs.NewDispatcher(svc, runner, 2)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	srv.SetJobs(disp)
	srv.SetCounters(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		disp.Stop()
	})
	return &streamHarness{
		e2eHarness: &e2eHarness{t: t, ts: ts, client: ts.Client()},
		svc:        svc,
		disp:       disp,
	}
}

type slowStreamPlatform struct {
	engine.Platform
	delay time.Duration
}

func (p slowStreamPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	time.Sleep(p.delay)
	return p.Platform.Publish(hit, n)
}

func streamSubmission(name string) api.StreamSubmission {
	return api.StreamSubmission{
		Name:             name,
		Keywords:         []string{"Thor"},
		RequiredAccuracy: 0.85,
		Domain:           append([]string(nil), textgen.Labels...),
		Start:            "2011-10-01T00:00:00Z",
		Window:           "1m",
		Items:            24,
		Rate:             1,
		SourceSeed:       5,
		WindowCapacity:   5,
		MaxBacklog:       10,
	}
}

func (h *streamHarness) streamStatus(name string) (api.StreamStatus, int) {
	h.t.Helper()
	resp, body := h.do(http.MethodGet, "/v1/streams/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		return api.StreamStatus{}, resp.StatusCode
	}
	var st api.StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatalf("decoding stream %s: %v (%s)", name, err, body)
	}
	return st, resp.StatusCode
}

func (h *streamHarness) waitStream(name, what string, cond func(api.StreamStatus) bool) api.StreamStatus {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last api.StreamStatus
	for time.Now().Before(deadline) {
		st, code := h.streamStatus(name)
		if code == http.StatusOK {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("stream %q never reached %s (last: %+v)", name, what, last)
	return api.StreamStatus{}
}

// sseStreamFrames reads SSE frames from /v1/streams/{name}/events until
// a done event, the frame budget, or the timeout.
func (h *streamHarness) sseStreamFrames(name string, lastEventID string) ([]string, []api.StreamEvent) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.ts.URL+"/v1/streams/"+name+"/events", nil)
	if err != nil {
		h.t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("SSE connect = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		h.t.Fatalf("SSE Content-Type = %q", ct)
	}
	var kinds []string
	var events []api.StreamEvent
	var kind, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				var ev api.StreamEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					h.t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				kinds = append(kinds, kind)
				events = append(events, ev)
				if kind == api.EventDone {
					return kinds, events
				}
			}
			kind, data = "", ""
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	h.t.Fatalf("SSE ended without a done event (kinds %v)", kinds)
	return nil, nil
}

// TestStreamAPIEndToEnd drives the full stream surface over real HTTP:
// submit a standing query, watch its window closes over SSE to the
// terminal done event, inspect and list it, and probe every error
// path the route family owns.
func TestStreamAPIEndToEnd(t *testing.T) {
	h := newStreamHarness(t, 0)

	resp, body := h.do(http.MethodPost, "/v1/streams", streamSubmission("thor"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/streams = %d (%s)", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/streams/thor" {
		t.Errorf("Location = %q", loc)
	}
	var created api.StreamStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("decoding created stream: %v (%s)", err, body)
	}
	if created.Name != "thor" || len(created.Keywords) != 1 {
		t.Errorf("created = %+v", created)
	}

	// The SSE watcher must observe at least one window close and the
	// terminal done event (or, if the stream already finished, just the
	// done replay).
	kinds, events := h.sseStreamFrames("thor", "")
	if kinds[len(kinds)-1] != api.EventDone {
		t.Fatalf("last SSE kind = %q, want done (kinds %v)", kinds[len(kinds)-1], kinds)
	}
	final := events[len(events)-1].State
	if !final.Done || final.WindowsClosed == 0 || final.Seen == 0 {
		t.Errorf("terminal SSE state = %+v", final)
	}
	for i, k := range kinds {
		if k == api.EventWindow && events[i].Window == nil {
			t.Errorf("window event %d carried no window", i)
		}
	}

	st := h.waitStream("thor", "done", func(st api.StreamStatus) bool { return st.Done })
	if st.State != api.JobDone || st.WindowsClosed == 0 || st.Spent <= 0 || st.Matched == 0 {
		t.Errorf("final stream status = %+v", st)
	}
	if st.LastWindow == nil || st.LastWindow.Items < 0 {
		t.Errorf("final status carries no last window: %+v", st)
	}
	if st.Results == nil || len(st.Results.Percentages) == 0 {
		t.Errorf("final status carries no running fold: %+v", st)
	}
	// A finished stream replays straight to done on a fresh watcher.
	kinds, _ = h.sseStreamFrames("thor", "")
	if len(kinds) != 1 || kinds[0] != api.EventDone {
		t.Errorf("post-done SSE kinds = %v, want [done]", kinds)
	}

	// The standing query also surfaces on the query dashboard.
	if resp, body := h.do(http.MethodGet, "/v1/queries/thor", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/queries/thor = %d (%s)", resp.StatusCode, body)
	}

	// Listing: streams only — batch jobs are excluded.
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", submission("batchjob")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d", resp.StatusCode)
	}
	resp, body = h.do(http.MethodGet, "/v1/streams", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/streams = %d", resp.StatusCode)
	}
	var list api.StreamList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Streams) != 1 || list.Streams[0].Name != "thor" {
		t.Errorf("stream list = %+v, want just thor", list.Streams)
	}
	// A batch job is not a stream on the singular routes either.
	if _, code := h.streamStatus("batchjob"); code != http.StatusNotFound {
		t.Errorf("GET batch job as stream = %d, want 404", code)
	}

	// Error surface.
	if resp, _ := h.do(http.MethodPost, "/v1/streams", streamSubmission("thor")); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate stream = %d, want 409", resp.StatusCode)
	}
	for field, mutate := range map[string]func(*api.StreamSubmission){
		"window":      func(s *api.StreamSubmission) { s.Window = "not a duration" },
		"lateness":    func(s *api.StreamSubmission) { s.Lateness = "soon" },
		"target_fill": func(s *api.StreamSubmission) { s.TargetFill = "eventually" },
		"start":       func(s *api.StreamSubmission) { s.Start = "yesterday" },
		"name":        func(s *api.StreamSubmission) { s.Name = "a/b" },
		"accuracy":    func(s *api.StreamSubmission) { s.RequiredAccuracy = 2 },
	} {
		sub := streamSubmission("bad-" + field)
		mutate(&sub)
		if resp, body := h.do(http.MethodPost, "/v1/streams", sub); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad %s = %d (%s), want 400", field, resp.StatusCode, body)
		}
	}
	sub := streamSubmission("bad-agg")
	sub.Aggregator = "nope"
	resp, body = h.do(http.MethodPost, "/v1/streams", sub)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown_aggregator") {
		t.Errorf("unknown aggregator = %d (%s), want 400 unknown_aggregator", resp.StatusCode, body)
	}
	if _, code := h.streamStatus("ghost"); code != http.StatusNotFound {
		t.Errorf("GET unknown stream = %d, want 404", code)
	}
	if resp, _ := h.do(http.MethodDelete, "/v1/streams/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown stream = %d, want 404", resp.StatusCode)
	}
	if resp, _ := h.do(http.MethodGet, "/v1/streams/ghost/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("SSE unknown stream = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/streams/thor/events", nil)
	req.Header.Set("Last-Event-ID", "junk")
	if resp, err := h.client.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID = %v %d, want 400", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Cancelling a finished stream conflicts.
	if resp, _ := h.do(http.MethodDelete, "/v1/streams/thor", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done stream = %d, want 409", resp.StatusCode)
	}
}

// TestStreamAPICancelMidRun cancels a standing query while its windows
// are still closing: DELETE answers with the cancelled record, and an
// SSE watcher that never saw a published done event gets one
// synthesized from the terminal job state instead of hanging.
func TestStreamAPICancelMidRun(t *testing.T) {
	h := newStreamHarness(t, 15*time.Millisecond)

	sub := streamSubmission("slow")
	sub.Items = 96
	if resp, body := h.do(http.MethodPost, "/v1/streams", sub); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/streams = %d (%s)", resp.StatusCode, body)
	}

	watcher := make(chan []string, 1)
	go func() {
		kinds, _ := h.sseStreamFrames("slow", "")
		watcher <- kinds
	}()

	h.waitStream("slow", "running", func(st api.StreamStatus) bool {
		return st.State == api.JobRunning
	})
	resp, body := h.do(http.MethodDelete, "/v1/streams/slow", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE mid-run = %d (%s)", resp.StatusCode, body)
	}
	st := h.waitStream("slow", "cancelled", func(st api.StreamStatus) bool {
		return st.State == api.JobCancelled
	})
	if !st.Done {
		t.Errorf("cancelled stream not done: %+v", st)
	}
	select {
	case kinds := <-watcher:
		if kinds[len(kinds)-1] != api.EventDone {
			t.Errorf("watcher kinds = %v, want terminal done", kinds)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("SSE watcher hung after cancel")
	}
}

// TestStreamStatusRecoveredFromMark pins the restart contract for
// stream reads: a Server that has never seen a publish (a fresh
// process) answers GET /v1/streams/{name} from the durable stream mark
// via the controller's StreamMarkFor, not with zeroed counters.
func TestStreamStatusRecoveredFromMark(t *testing.T) {
	h := newStreamHarness(t, 0)
	if resp, body := h.do(http.MethodPost, "/v1/streams", streamSubmission("thor")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/streams = %d (%s)", resp.StatusCode, body)
	}
	done := h.waitStream("thor", "done", func(st api.StreamStatus) bool { return st.Done })

	// A second Server over the same controller emulates the restarted
	// process: its in-memory publish map is empty.
	fresh := NewServer()
	fresh.SetJobs(h.disp)
	ts := httptest.NewServer(fresh.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/streams/thor")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.State != api.JobDone {
		t.Fatalf("recovered stream = %+v", st)
	}
	if st.WindowsClosed != done.WindowsClosed || st.Seen != done.Seen ||
		st.Matched != done.Matched || st.Spent != done.Spent {
		t.Errorf("recovered counters = %+v, want those of %+v", st, done)
	}
	if st.WindowsClosed == 0 || st.Spent <= 0 {
		t.Errorf("recovered stream lost its mark: %+v", st)
	}
}
