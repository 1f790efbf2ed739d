package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
)

// testBackend assembles a real httpapi server over a real job service,
// with a runner that blocks until its per-job gate opens.
type testBackend struct {
	srv   *httpapi.Server
	ts    *httptest.Server
	mu    sync.Mutex
	gates map[string]chan struct{}
}

type fakeSched struct{ st scheduler.State }

func (f fakeSched) State() scheduler.State { return f.st }

func newTestBackend(t *testing.T) (*testBackend, *Client) {
	t.Helper()
	svc, err := jobs.OpenService(jobs.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	b := &testBackend{gates: make(map[string]chan struct{})}
	disp, err := jobs.NewDispatcher(svc, func(ctx context.Context, job jobs.Job, report func(float64, float64)) error {
		report(0.5, 1.25)
		select {
		case <-b.gate(job.Name):
			report(1, 2.5)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	t.Cleanup(disp.Stop)
	b.srv = httpapi.NewServer()
	b.srv.SetJobs(disp)
	b.srv.SetCounters(metrics.NewRegistry())
	b.srv.SetScheduler(fakeSched{st: scheduler.State{Generations: 7, DedupEnabled: true}})
	b.ts = httptest.NewServer(b.srv.Handler())
	t.Cleanup(b.ts.Close)
	return b, New(b.ts.URL, WithHTTPClient(b.ts.Client()))
}

func (b *testBackend) gate(name string) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.gates[name]; !ok {
		b.gates[name] = make(chan struct{})
	}
	return b.gates[name]
}

func submission(name string) api.JobSubmission {
	return api.JobSubmission{
		Name:             name,
		Keywords:         []string{"iPhone4S"},
		RequiredAccuracy: 0.9,
		Domain:           []string{"positive", "neutral", "negative"},
		Window:           "24h",
	}
}

func waitJobState(t *testing.T, c *Client, name string, want api.JobState) api.JobStatus {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	var last api.JobStatus
	for time.Now().Before(deadline) {
		st, err := c.Job(ctx, name)
		if err == nil {
			last = st
			if st.State == want {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %q never reached %s (last %+v)", name, want, last)
	return api.JobStatus{}
}

// TestClientJobLifecycle drives submit → get → list → iterate → cancel
// through the SDK against a live server.
func TestClientJobLifecycle(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()

	names := []string{"alpha", "beta", "gamma"}
	for _, n := range names {
		st, err := c.SubmitJob(ctx, submission(n))
		if err != nil {
			t.Fatalf("SubmitJob(%s): %v", n, err)
		}
		if st.Name != n || st.Kind != "tsa" {
			t.Errorf("submitted %s came back as %+v", n, st)
		}
	}

	// Typed error envelopes: duplicate submit conflicts, unknown 404s.
	var apiErr *api.Error
	if _, err := c.SubmitJob(ctx, submission("alpha")); !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
		t.Errorf("duplicate SubmitJob error = %v, want conflict envelope", err)
	}
	if _, err := c.Job(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("Job(nope) error = %v, want 404 envelope", err)
	}

	close(b.gate("alpha"))
	waitJobState(t, c, "alpha", api.JobDone)

	// One-page listing and the state filter.
	page, err := c.ListJobs(ctx, ListJobsOptions{State: api.JobDone})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].Name != "alpha" {
		t.Errorf("done filter = %+v", page.Jobs)
	}

	// The iterator walks every page (limit 1 forces three pages).
	var walked []string
	for st, err := range c.Jobs(ctx, ListJobsOptions{Limit: 1}) {
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, st.Name)
	}
	if strings.Join(walked, ",") != "alpha,beta,gamma" {
		t.Errorf("iterator walked %v", walked)
	}

	// Early break doesn't hang or error.
	for st, err := range c.Jobs(ctx, ListJobsOptions{Limit: 1}) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Name == "alpha" {
			break
		}
	}

	st, err := c.CancelJob(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCancelled && st.State != api.JobRunning {
		t.Errorf("cancel returned state %s", st.State)
	}
	waitJobState(t, c, "beta", api.JobCancelled)
	if _, err := c.CancelJob(ctx, "alpha"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
		t.Errorf("CancelJob(done) error = %v, want conflict envelope", err)
	}

	close(b.gate("gamma"))
	waitJobState(t, c, "gamma", api.JobDone)
}

// TestClientReadEndpoints covers health, metrics, scheduler and query
// reads.
func TestClientReadEndpoints(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Version != api.Version {
		t.Errorf("Health = %+v, %v", h, err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Errorf("Metrics: %v", err)
	}
	ss, err := c.SchedulerState(ctx)
	if err != nil || ss.Generations != 7 || !ss.DedupEnabled {
		t.Errorf("SchedulerState = %+v, %v", ss, err)
	}

	b.srv.Update(api.QueryState{Name: "panda", Domain: []string{"a", "b"}, Progress: 0.5})
	qs, err := c.Queries(ctx)
	if err != nil || len(qs) != 1 || qs[0].Name != "panda" {
		t.Errorf("Queries = %+v, %v", qs, err)
	}
	q, err := c.Query(ctx, "panda")
	if err != nil || q.Progress != 0.5 {
		t.Errorf("Query = %+v, %v", q, err)
	}
	var apiErr *api.Error
	if _, err := c.Query(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Errorf("Query(nope) error = %v", err)
	}

	// Aggregator discovery: the registry with the default marked.
	al, err := c.Aggregators(ctx)
	if err != nil {
		t.Fatalf("Aggregators: %v", err)
	}
	if al.Default != "cdas" || len(al.Aggregators) < 5 {
		t.Errorf("Aggregators = %+v", al)
	}
	seen := map[string]bool{}
	for _, info := range al.Aggregators {
		seen[info.Name] = true
		if info.Description == "" || info.ResponseType == "" {
			t.Errorf("aggregator %s missing description or response type: %+v", info.Name, info)
		}
	}
	for _, want := range []string{"cdas", "majority", "wawa", "zbs", "dawid-skene"} {
		if !seen[want] {
			t.Errorf("Aggregators missing %q: %v", want, al.Aggregators)
		}
	}
}

// TestWatchQuery streams revisions through the SDK channel: replay
// first, then updates, closed after done.
func TestWatchQuery(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()

	domain := []string{"pos", "neg"}
	b.srv.Update(api.QueryState{Name: "live", Domain: domain})
	events, err := c.WatchQuery(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		b.srv.Update(api.QueryState{Name: "live", Domain: domain, Items: i * 10, Progress: float64(i) / 4})
	}
	b.srv.Update(api.QueryState{Name: "live", Domain: domain, Items: 40, Progress: 1, Done: true})
	var got []QueryEvent
	for ev := range events {
		if ev.Err != nil {
			t.Fatalf("watch error: %v", ev.Err)
		}
		got = append(got, ev)
	}
	if len(got) != 5 {
		t.Fatalf("received %d events, want 5 (replay, 3 updates, done): %+v", len(got), got)
	}
	if got[0].ID != 1 || got[0].Type != api.EventState {
		t.Errorf("first event = %+v, want replay of rev 1", got[0])
	}
	last := got[len(got)-1]
	if last.Type != api.EventDone || !last.State.Done || last.State.Items != 40 {
		t.Errorf("terminal event = %+v", last)
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Errorf("ids not increasing: %d after %d", got[i].ID, got[i-1].ID)
		}
	}

	// Unknown query: the watch call itself fails with the envelope.
	var apiErr *api.Error
	if _, err := c.WatchQuery(ctx, "ghost"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Errorf("WatchQuery(ghost) = %v, want not_found envelope", err)
	}
}

// TestWatchQueryCancel: cancelling the context ends the channel without
// a terminal event.
func TestWatchQueryCancel(t *testing.T) {
	b, c := newTestBackend(t)
	b.srv.Update(api.QueryState{Name: "live", Domain: []string{"a", "b"}})
	ctx, cancel := context.WithCancel(context.Background())
	events, err := c.WatchQuery(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	<-events // replay
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed after cancel")
		}
	}
}

// TestParseSSE covers framing details the live tests can't pin down:
// comments, multi-line data, defaulted event type, trailing frames.
func TestParseSSE(t *testing.T) {
	stream := ": heartbeat\n" +
		"id: 5\n" +
		"data: {\"name\":\"q\",\"progress\":0.5}\n" +
		"\n" +
		"id: 6\n" +
		"event: done\n" +
		"data: {\"name\":\"q\",\n" +
		"data: \"done\":true}\n" +
		"\n"
	var got []QueryEvent
	err := parseSSE(strings.NewReader(stream), func(ev QueryEvent) bool {
		got = append(got, ev)
		return ev.Type != api.EventDone
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d events, want 2", len(got))
	}
	if got[0].ID != 5 || got[0].Type != api.EventState || got[0].State.Progress != 0.5 {
		t.Errorf("event 0 = %+v (type must default to state)", got[0])
	}
	if got[1].ID != 6 || got[1].Type != api.EventDone || !got[1].State.Done {
		t.Errorf("event 1 = %+v (multi-line data must join)", got[1])
	}

	// A trailing frame without the final blank line still flushes.
	got = nil
	err = parseSSE(strings.NewReader("id: 1\ndata: {\"name\":\"q\"}"), func(ev QueryEvent) bool {
		got = append(got, ev)
		return true
	})
	if err != nil || len(got) != 1 || got[0].ID != 1 {
		t.Errorf("trailing frame: events %+v, err %v", got, err)
	}

	// Garbage data surfaces a decode error.
	if err := parseSSE(strings.NewReader("data: {nope\n\n"), func(QueryEvent) bool { return true }); err == nil {
		t.Error("bad data did not error")
	}
}

// TestDecodeErrorFallback: a non-envelope body (proxy error page)
// synthesizes a typed error from the status line.
func TestDecodeErrorFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway, sorry", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Job(context.Background(), "x")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v, want *api.Error", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != "http_502" {
		t.Errorf("synthesized error = %+v", apiErr)
	}
	if !strings.Contains(apiErr.Detail, "bad gateway") {
		t.Errorf("detail lost the body: %+v", apiErr)
	}
}

func TestJobPathEscaping(t *testing.T) {
	if got := jobPath("spaced name"); got != "/v1/jobs/spaced%20name" {
		t.Errorf("jobPath = %q", got)
	}
}

// TestClientUnpark drives park → unpark → done through the SDK.
func TestClientUnpark(t *testing.T) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var overBudget atomic.Bool
	overBudget.Store(true)
	disp, err := jobs.NewDispatcher(svc, func(ctx context.Context, job jobs.Job, report func(float64, float64)) error {
		if overBudget.Load() {
			return jobs.ErrParked
		}
		report(1, 0.5)
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	defer disp.Stop()
	srv := httpapi.NewServer()
	srv.SetJobs(disp)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	if _, err := c.SubmitJob(ctx, submission("strapped")); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, c, "strapped", api.JobParked)
	overBudget.Store(false)
	st, err := c.UnparkJob(ctx, "strapped")
	if err != nil {
		t.Fatalf("UnparkJob: %v", err)
	}
	if st.Name != "strapped" {
		t.Errorf("unpark returned %+v", st)
	}
	waitJobState(t, c, "strapped", api.JobDone)

	var apiErr *api.Error
	if _, err := c.UnparkJob(ctx, "strapped"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
		t.Errorf("UnparkJob(done) = %v, want conflict envelope", err)
	}
}

// TestWatchQueryLastEventID: presenting the current revision suppresses
// the replay; the next Update still arrives.
func TestWatchQueryLastEventID(t *testing.T) {
	b, c := newTestBackend(t)
	ctx := context.Background()
	b.srv.Update(api.QueryState{Name: "live", Domain: []string{"a", "b"}, Progress: 0.25})
	events, err := c.WatchQuery(ctx, "live", WatchOptions{LastEventID: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("replay arrived despite LastEventID: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	b.srv.Update(api.QueryState{Name: "live", Domain: []string{"a", "b"}, Progress: 1, Done: true})
	ev, ok := <-events
	if !ok || ev.Err != nil || ev.ID != 2 || ev.Type != api.EventDone {
		t.Errorf("post-suppression event = %+v (ok=%v)", ev, ok)
	}
}

// TestJobsIteratorSurfacesTransportError: a dead server yields exactly
// one error element.
func TestJobsIteratorSurfacesTransportError(t *testing.T) {
	c := New("http://127.0.0.1:9") // nothing listens on the discard port
	n, sawErr := 0, false
	for _, err := range c.Jobs(context.Background(), ListJobsOptions{}) {
		n++
		if err != nil {
			sawErr = true
		}
	}
	if n != 1 || !sawErr {
		t.Errorf("dead-server iterator yielded %d elements (err=%v)", n, sawErr)
	}
	if _, err := c.Health(context.Background()); err == nil {
		t.Error("Health against a dead server did not error")
	}
	if _, err := c.WatchQuery(context.Background(), "x"); err == nil {
		t.Error("WatchQuery against a dead server did not error")
	}
}
