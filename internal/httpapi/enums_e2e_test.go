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
	"cdas/internal/enum"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
)

// enumHarness is a full enumeration stack over real HTTP: LSM job
// service, simulated crowd, enum runner publishing into the server, and
// a kind-routed dispatcher so batch jobs coexist.
type enumHarness struct {
	*e2eHarness
	svc  *jobs.Service
	disp *jobs.Dispatcher
}

func newEnumHarness(t *testing.T, batchDelay time.Duration) *enumHarness {
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
	sched, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
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
	enumRunner := enum.NewRunner(enum.RunnerConfig{
		Scheduler: sched,
		Source: func(job jobs.Job) (enum.Source, error) {
			src, err := enum.NewSimSource(job)
			if err != nil || batchDelay <= 0 {
				return src, err
			}
			return pacedSource{Source: src, delay: batchDelay}, nil
		},
		Marks:    svc,
		OnCharge: func(job string, amount float64) { _ = svc.ChargeBudget(job, amount) },
		Counters: reg,
		Publish:  srv.EnumPublisher(),
	})
	runner := func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		if job.Kind == jobs.KindEnumeration {
			return enumRunner(ctx, job, report)
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
	return &enumHarness{
		e2eHarness: &e2eHarness{t: t, ts: ts, client: ts.Client()},
		svc:        svc,
		disp:       disp,
	}
}

type pacedSource struct {
	enum.Source
	delay time.Duration
}

func (s pacedSource) Batch(i int) []enum.Contribution {
	time.Sleep(s.delay)
	return s.Source.Batch(i)
}

// enumSubmission is a kind-discriminated enumeration job: no window, an
// enum spec block instead.
func enumSubmission(name string) api.JobSubmission {
	return api.JobSubmission{
		Name:     name,
		Kind:     api.KindEnumeration,
		Keywords: []string{"seabird"},
		Budget:   100,
		Enum: &api.EnumSpec{
			ItemValue:  0.05,
			Universe:   30,
			SourceSeed: 17,
		},
	}
}

func (h *enumHarness) enumStatus(name string) (api.EnumStatus, int) {
	h.t.Helper()
	resp, body := h.do(http.MethodGet, "/v1/enumerations/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		return api.EnumStatus{}, resp.StatusCode
	}
	var st api.EnumStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatalf("decoding enumeration %s: %v (%s)", name, err, body)
	}
	return st, resp.StatusCode
}

func (h *enumHarness) waitEnum(name, what string, cond func(api.EnumStatus) bool) api.EnumStatus {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last api.EnumStatus
	for time.Now().Before(deadline) {
		st, code := h.enumStatus(name)
		if code == http.StatusOK {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("enumeration %q never reached %s (last: %+v)", name, what, last)
	return api.EnumStatus{}
}

// sseEnumFrames reads SSE frames from /v1/enumerations/{name}/events
// until a done event or the timeout.
func (h *enumHarness) sseEnumFrames(name string, lastEventID string) ([]string, []api.EnumEvent) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.ts.URL+"/v1/enumerations/"+name+"/events", nil)
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
	var events []api.EnumEvent
	var kind, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				var ev api.EnumEvent
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

// TestEnumAPIEndToEnd drives the full enumeration surface over real
// HTTP: submit through the unified kind-discriminated POST /v1/jobs,
// watch batches stream over SSE to the terminal done event, inspect the
// result set and estimate, list and filter, and probe every error path
// the route family owns.
func TestEnumAPIEndToEnd(t *testing.T) {
	// Pace the source so the SSE watcher, which connects after the
	// submit returns, observes live batch events rather than racing a
	// runner that finishes instantly.
	h := newEnumHarness(t, 25*time.Millisecond)

	resp, body := h.do(http.MethodPost, "/v1/jobs", enumSubmission("audubon"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d (%s)", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/audubon" {
		t.Errorf("Location = %q", loc)
	}
	var created api.JobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("decoding created job: %v (%s)", err, body)
	}
	if created.Kind != api.KindEnumeration {
		t.Errorf("created kind = %q, want enumeration", created.Kind)
	}

	// The SSE watcher observes committed batches (new items attached)
	// and the terminal done event.
	kinds, events := h.sseEnumFrames("audubon", "")
	if kinds[len(kinds)-1] != api.EventDone {
		t.Fatalf("last SSE kind = %q, want done (kinds %v)", kinds[len(kinds)-1], kinds)
	}
	sawNewItems := false
	for i, k := range kinds {
		if k == api.EventBatch {
			if events[i].Batch == nil {
				t.Fatalf("batch event %d carried no batch", i)
			}
			if len(events[i].Batch.NewItems) > 0 {
				sawNewItems = true
			}
		}
	}
	final := events[len(events)-1].State
	if !final.Done || final.Batches == 0 || final.Distinct == 0 {
		t.Errorf("terminal SSE state = %+v", final)
	}
	if !sawNewItems && final.Batches > 1 {
		t.Error("no batch event carried newly discovered items")
	}

	// The REST view: stopped on the marginal-value rule with spend far
	// below the budget and a converged estimate.
	st := h.waitEnum("audubon", "done", func(st api.EnumStatus) bool { return st.Done })
	if st.State != api.JobDone || st.Stopped != enum.StopMarginalValue {
		t.Errorf("final status = %+v, want done/marginal_value", st)
	}
	if st.Spent <= 0 || st.Spent >= 50 {
		t.Errorf("spend %v should be positive and far below the 100 budget", st.Spent)
	}
	if st.Estimate == nil || st.Estimate.Completeness < 0.5 {
		t.Errorf("estimate not converged: %+v", st.Estimate)
	}
	if len(st.Items) != st.Distinct || st.Distinct < 30/2 {
		t.Errorf("items = %d distinct = %d, want a sizable fraction of the 30-item universe", len(st.Items), st.Distinct)
	}
	if st.LastBatch == nil {
		t.Errorf("final status carries no last batch: %+v", st)
	}

	// A finished enumeration replays straight to done on a fresh watcher.
	kinds, _ = h.sseEnumFrames("audubon", "")
	if len(kinds) != 1 || kinds[0] != api.EventDone {
		t.Errorf("post-done SSE kinds = %v, want [done]", kinds)
	}

	// Listing: enumerations only — batch jobs are excluded; the job list
	// filters by kind in both directions.
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", submission("batchjob")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs (batch) = %d", resp.StatusCode)
	}
	resp, body = h.do(http.MethodGet, "/v1/enumerations", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/enumerations = %d", resp.StatusCode)
	}
	var list api.EnumList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Enumerations) != 1 || list.Enumerations[0].Name != "audubon" {
		t.Errorf("enumeration list = %+v, want just audubon", list.Enumerations)
	}
	var jl api.JobList
	if resp, body := h.do(http.MethodGet, "/v1/jobs?kind=enumeration", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/jobs?kind=enumeration = %d", resp.StatusCode)
	} else if json.Unmarshal(body, &jl); len(jl.Jobs) != 1 || jl.Jobs[0].Name != "audubon" {
		t.Errorf("kind=enumeration jobs = %+v, want just audubon", jl.Jobs)
	}
	if resp, body := h.do(http.MethodGet, "/v1/jobs?kind=batch", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/jobs?kind=batch = %d", resp.StatusCode)
	} else if json.Unmarshal(body, &jl); len(jl.Jobs) != 1 || jl.Jobs[0].Name != "batchjob" {
		t.Errorf("kind=batch jobs = %+v, want just batchjob", jl.Jobs)
	}
	// A batch job is not an enumeration on the singular routes.
	if _, code := h.enumStatus("batchjob"); code != http.StatusNotFound {
		t.Errorf("GET batch job as enumeration = %d, want 404", code)
	}

	// Error surface.
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", enumSubmission("audubon")); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate enumeration = %d, want 409", resp.StatusCode)
	}
	for field, mutate := range map[string]func(*api.JobSubmission){
		"missing spec":       func(s *api.JobSubmission) { s.Enum = nil },
		"spec on batch kind": func(s *api.JobSubmission) { s.Kind = api.KindBatch; s.Window = "24h" },
		"zero item value":    func(s *api.JobSubmission) { s.Enum.ItemValue = 0 },
		"coverage >= 1":      func(s *api.JobSubmission) { s.Enum.TargetCoverage = 1 },
		"bad window":         func(s *api.JobSubmission) { s.Window = "not a duration" },
		"blank keywords":     func(s *api.JobSubmission) { s.Keywords = []string{"", ""} },
	} {
		sub := enumSubmission("bad")
		spec := *sub.Enum
		sub.Enum = &spec
		mutate(&sub)
		if resp, body := h.do(http.MethodPost, "/v1/jobs", sub); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d (%s), want 400", field, resp.StatusCode, body)
		}
	}
	if resp, _ := h.do(http.MethodGet, "/v1/jobs?kind=mystery", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind filter = %d, want 400", resp.StatusCode)
	}
	if _, code := h.enumStatus("ghost"); code != http.StatusNotFound {
		t.Errorf("GET unknown enumeration = %d, want 404", code)
	}
	if resp, _ := h.do(http.MethodGet, "/v1/enumerations/ghost/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("SSE unknown enumeration = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/enumerations/audubon/events", nil)
	req.Header.Set("Last-Event-ID", "junk")
	if resp, err := h.client.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID = %v %d, want 400", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestEnumAPICancelMidRun cancels an enumeration while batches are
// still being bought: DELETE /v1/jobs answers with the cancelled
// record, and an SSE watcher that never saw a published done event gets
// one synthesized from the terminal job state instead of hanging.
func TestEnumAPICancelMidRun(t *testing.T) {
	h := newEnumHarness(t, 15*time.Millisecond)

	sub := enumSubmission("slow")
	sub.Enum.ItemValue = 10
	sub.Enum.Universe = 500
	if resp, body := h.do(http.MethodPost, "/v1/jobs", sub); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d (%s)", resp.StatusCode, body)
	}

	watcher := make(chan []string, 1)
	go func() {
		kinds, _ := h.sseEnumFrames("slow", "")
		watcher <- kinds
	}()

	h.waitEnum("slow", "running", func(st api.EnumStatus) bool {
		return st.State == api.JobRunning
	})
	resp, body := h.do(http.MethodDelete, "/v1/jobs/slow", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE mid-run = %d (%s)", resp.StatusCode, body)
	}
	st := h.waitEnum("slow", "cancelled", func(st api.EnumStatus) bool {
		return st.State == api.JobCancelled
	})
	if !st.Done {
		t.Errorf("cancelled enumeration not done: %+v", st)
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

// TestEnumStatusRecoveredFromMark pins the restart contract for
// enumeration reads: a Server that has never seen a publish (a fresh
// process) answers GET /v1/enumerations/{name} from the durable stream
// mark — result set, estimate and stop reason rebuilt — not with zeroed
// counters.
func TestEnumStatusRecoveredFromMark(t *testing.T) {
	h := newEnumHarness(t, 0)
	if resp, body := h.do(http.MethodPost, "/v1/jobs", enumSubmission("audubon")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d (%s)", resp.StatusCode, body)
	}
	done := h.waitEnum("audubon", "done", func(st api.EnumStatus) bool { return st.Done })

	// A second Server over the same controller emulates the restarted
	// process: its in-memory publish map is empty.
	fresh := NewServer()
	fresh.SetJobs(h.disp)
	ts := httptest.NewServer(fresh.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/enumerations/audubon")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.EnumStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.State != api.JobDone {
		t.Fatalf("recovered enumeration = %+v", st)
	}
	if st.Batches != done.Batches || st.Distinct != done.Distinct ||
		st.Contributions != done.Contributions || st.Spent != done.Spent ||
		st.Stopped != done.Stopped {
		t.Errorf("recovered counters = %+v, want those of %+v", st, done)
	}
	if st.Estimate == nil || done.Estimate == nil || *st.Estimate != *done.Estimate {
		t.Errorf("recovered estimate = %+v, want %+v", st.Estimate, done.Estimate)
	}
	if len(st.Items) != len(done.Items) {
		t.Fatalf("recovered %d items, want %d", len(st.Items), len(done.Items))
	}
	for i := range st.Items {
		if st.Items[i] != done.Items[i] {
			t.Errorf("recovered item %d = %+v, want %+v", i, st.Items[i], done.Items[i])
		}
	}
}

// TestStreamRoutesDeprecated pins the alias contract of the /v1/streams
// group: historical bodies, plus a Deprecation header and a
// successor-version Link pointing into the unified job surface.
func TestStreamRoutesDeprecated(t *testing.T) {
	h := newStreamHarness(t, 0)
	resp, body := h.do(http.MethodPost, "/v1/streams", streamSubmission("thor"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/streams = %d (%s)", resp.StatusCode, body)
	}
	if dep := resp.Header.Get("Deprecation"); dep != "true" {
		t.Errorf("POST Deprecation = %q, want \"true\"", dep)
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/v1/jobs") ||
		!strings.Contains(link, "successor-version") {
		t.Errorf("POST Link = %q, want successor-version pointing at /v1/jobs", link)
	}
	h.waitStream("thor", "done", func(st api.StreamStatus) bool { return st.Done })
	for path, successor := range map[string]string{
		"/v1/streams":             "/v1/jobs?kind=continuous",
		"/v1/streams/thor":        "/v1/jobs/{name}",
		"/v1/streams/thor/events": "/v1/queries/{name}/events",
	} {
		resp, _ := h.do(http.MethodGet, path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
			continue
		}
		if dep := resp.Header.Get("Deprecation"); dep != "true" {
			t.Errorf("GET %s Deprecation = %q, want \"true\"", path, dep)
		}
		link := resp.Header.Get("Link")
		if !strings.Contains(link, successor) || !strings.Contains(link, "successor-version") {
			t.Errorf("GET %s Link = %q, want successor-version pointing at %s", path, link, successor)
		}
	}
}
