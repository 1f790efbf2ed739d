package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
)

// gatedRunner is a controllable job runner: every invocation reports
// one progress step, then blocks until its job's gate opens or the
// context dies. It records how often each job ran — the double-charge
// detector.
type gatedRunner struct {
	mu    sync.Mutex
	runs  map[string]int
	gates map[string]chan struct{}
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{runs: make(map[string]int), gates: make(map[string]chan struct{})}
}

func (g *gatedRunner) gate(name string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.gates[name]
	if !ok {
		ch = make(chan struct{})
		g.gates[name] = ch
	}
	return ch
}

func (g *gatedRunner) invocations(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[name]
}

func (g *gatedRunner) run(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
	g.mu.Lock()
	g.runs[job.Name]++
	g.mu.Unlock()
	report(0.5, 1.25)
	select {
	case <-g.gate(job.Name):
		report(1.0, 2.5)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type e2eHarness struct {
	t      *testing.T
	ts     *httptest.Server
	client *http.Client
}

func (h *e2eHarness) do(method, path string, body any) (*http.Response, []byte) {
	h.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (h *e2eHarness) jobStatus(name string) (JobStatus, int) {
	h.t.Helper()
	resp, body := h.do(http.MethodGet, "/v1/jobs/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, resp.StatusCode
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatalf("decoding %s: %v (%s)", name, err, body)
	}
	return st, resp.StatusCode
}

func (h *e2eHarness) waitCond(name, what string, cond func(JobStatus) bool) JobStatus {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last JobStatus
	for time.Now().Before(deadline) {
		st, code := h.jobStatus(name)
		if code == http.StatusOK {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("job %q never reached %s (last: %+v)", name, what, last)
	return JobStatus{}
}

func (h *e2eHarness) waitState(name string, want api.JobState) JobStatus {
	h.t.Helper()
	return h.waitCond(name, string(want), func(st JobStatus) bool { return st.State == want })
}

func submission(name string) JobSubmission {
	return JobSubmission{
		Name:             name,
		Kind:             "tsa",
		Keywords:         []string{"iPhone4S"},
		RequiredAccuracy: 0.9,
		Domain:           []string{"positive", "neutral", "negative"},
		Window:           "24h",
	}
}

// TestJobServiceEndToEnd drives the full write API over real HTTP:
// submit a job and follow its streaming progress to completion, cancel
// a second job mid-flight, kill the first server incarnation (-9
// style: no graceful dispatcher drain) while a third job is running,
// then restart onto the same store and assert the replay resumed
// exactly the unfinished job — completed and cancelled jobs keep their
// states and costs, and nothing runs twice.
func TestJobServiceEndToEnd(t *testing.T) { t.Run("lsm", testJobServiceEndToEnd) }

func testJobServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()

	// ---- First incarnation. ----
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: reg})
	if err != nil {
		t.Fatal(err)
	}
	runner := newGatedRunner()
	disp, err := jobs.NewDispatcher(svc, runner.run, 3)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	srv := NewServer()
	srv.SetJobs(disp)
	srv.SetCounters(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := &e2eHarness{t: t, ts: ts, client: ts.Client()}

	// Submit alpha and follow its progress to completion.
	resp, body := h.do(http.MethodPost, "/v1/jobs", submission("alpha"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d (%s)", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/alpha" {
		t.Errorf("Location = %q", loc)
	}
	st := h.waitCond("alpha", "running with progress", func(st JobStatus) bool {
		return st.State == api.JobRunning && st.Progress > 0
	})
	if st.Progress != 0.5 || st.Cost != 1.25 {
		t.Errorf("alpha mid-run: progress %v cost %v, want 0.5 / 1.25", st.Progress, st.Cost)
	}
	close(runner.gate("alpha"))
	st = h.waitState("alpha", api.JobDone)
	if st.Progress != 1 || st.Cost != 2.5 || st.Attempts != 1 {
		t.Errorf("alpha done: %+v", st)
	}

	// Error surface: duplicates conflict, unknowns 404, junk 400.
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", submission("alpha")); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate submit = %d, want 409", resp.StatusCode)
	}
	if _, code := h.jobStatus("nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	bad := submission("bad-window")
	bad.Window = "not a duration"
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window = %d, want 400", resp.StatusCode)
	}
	invalid := submission("bad-query")
	invalid.Domain = []string{"only-one"}
	if resp, _ := h.do(http.MethodPost, "/v1/jobs", invalid); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid query = %d, want 400", resp.StatusCode)
	}
	// A name with a path separator could never be fetched or cancelled
	// through /v1/jobs/{name}; it must be rejected at the door.
	for _, name := range []string{"a/b", "..", "ctrl\x01char"} {
		if resp, _ := h.do(http.MethodPost, "/v1/jobs", submission(name)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST name %q = %d, want 400", name, resp.StatusCode)
		}
	}
	// Names needing escaping round-trip (Location header and lookup).
	resp, body = h.do(http.MethodPost, "/v1/jobs", submission("spaced name"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST spaced name = %d (%s)", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/spaced%20name" {
		t.Errorf("Location = %q, want escaped path", loc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST Content-Type = %q, want application/json", ct)
	}
	if _, code := h.jobStatus("spaced%20name"); code != http.StatusOK {
		t.Errorf("GET escaped name = %d, want 200", code)
	}
	close(runner.gate("spaced name"))
	h.waitState("spaced name", api.JobDone)

	// Cancel beta mid-flight.
	if resp, body := h.do(http.MethodPost, "/v1/jobs", submission("beta")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST beta = %d (%s)", resp.StatusCode, body)
	}
	// Wait for progress so the cancel definitively lands mid-run (a
	// DELETE in the claim-to-start window cancels before execution and
	// legitimately charges nothing).
	h.waitCond("beta", "running with progress", func(st JobStatus) bool {
		return st.State == api.JobRunning && st.Progress > 0
	})
	if resp, body := h.do(http.MethodDelete, "/v1/jobs/beta", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE beta = %d (%s)", resp.StatusCode, body)
	}
	st = h.waitState("beta", api.JobCancelled)
	if st.Cost != 1.25 {
		t.Errorf("beta kept cost %v, want the 1.25 charged before cancel", st.Cost)
	}
	// Cancelling a terminal job conflicts.
	if resp, _ := h.do(http.MethodDelete, "/v1/jobs/alpha", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done job = %d, want 409", resp.StatusCode)
	}

	// gamma is mid-flight when the server dies.
	if resp, body := h.do(http.MethodPost, "/v1/jobs", submission("gamma")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST gamma = %d (%s)", resp.StatusCode, body)
	}
	// Wait for the progress event too: its WAL commit is what the
	// post-restart cost assertion depends on.
	h.waitCond("gamma", "running with progress", func(st JobStatus) bool {
		return st.State == api.JobRunning && st.Progress > 0
	})

	// Metrics are served.
	resp, body = h.do(http.MethodGet, "/v1/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", resp.StatusCode)
	}
	var m api.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters[metrics.CounterJobsSubmitted] != 4 || m.Counters[metrics.CounterJobsCompleted] != 2 {
		t.Errorf("counters = %v", m.Counters)
	}

	// ---- kill -9: no dispatcher drain, no requeue — the WAL simply
	// stops receiving writes. gamma is Running on disk. ----
	svc.Close()
	t.Cleanup(func() { close(runner.gate("gamma")); disp.Stop() })

	// ---- Second incarnation on the same store. ----
	svc2, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if resumed := svc2.Resumed(); len(resumed) != 1 || resumed[0] != "gamma" {
		t.Fatalf("Resumed = %v, want [gamma]", resumed)
	}
	runner2 := newGatedRunner()
	close(runner2.gate("gamma")) // let the resumed job finish immediately
	disp2, err := jobs.NewDispatcher(svc2, runner2.run, 2)
	if err != nil {
		t.Fatal(err)
	}
	disp2.Start()
	defer disp2.Stop()
	srv2 := NewServer()
	srv2.SetJobs(disp2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	h2 := &e2eHarness{t: t, ts: ts2, client: ts2.Client()}

	// The interrupted job resumes and completes; costs accumulate
	// across the crash (1.25 charged pre-crash + 2.5 in the rerun).
	st = h2.waitState("gamma", api.JobDone)
	if st.Attempts != 2 {
		t.Errorf("gamma attempts = %d, want 2 (one per incarnation)", st.Attempts)
	}
	if st.Cost != 1.25+2.5 {
		t.Errorf("gamma cost = %v, want 3.75 (pre-crash spend preserved)", st.Cost)
	}

	// Nothing else was lost or re-run: alpha stays Done at its old
	// cost, beta stays Cancelled, and the new incarnation's runner only
	// ever executed gamma.
	st, _ = h2.jobStatus("alpha")
	if st.State != api.JobDone || st.Cost != 2.5 || st.Attempts != 1 {
		t.Errorf("alpha after restart: %+v", st)
	}
	st, _ = h2.jobStatus("beta")
	if st.State != api.JobCancelled {
		t.Errorf("beta after restart: %+v", st)
	}
	for _, name := range []string{"alpha", "beta"} {
		if n := runner2.invocations(name); n != 0 {
			t.Errorf("terminal job %q re-ran %d times after restart", name, n)
		}
	}
	if n := runner2.invocations("gamma"); n != 1 {
		t.Errorf("gamma ran %d times in second incarnation, want 1", n)
	}

	// The full listing agrees.
	resp, body = h2.do(http.MethodGet, "/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d", resp.StatusCode)
	}
	var all api.JobList
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	states := map[string]api.JobState{}
	for _, js := range all.Jobs {
		states[js.Name] = js.State
	}
	want := map[string]api.JobState{
		"alpha": api.JobDone, "beta": api.JobCancelled,
		"gamma": api.JobDone, "spaced name": api.JobDone,
	}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("states after restart = %v, want %v", states, want)
	}
}

// TestJobRoutesWithoutService: a Server with no controller attached
// answers job routes with 503, not a panic.
func TestJobRoutesWithoutService(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	h := &e2eHarness{t: t, ts: ts, client: ts.Client()}
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/x"},
		{http.MethodDelete, "/v1/jobs/x"},
	} {
		resp, _ := h.do(probe.method, probe.path, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
	}
	// Metrics without a registry: no counters, not a panic (nil-safe).
	resp, body := h.do(http.MethodGet, "/v1/metrics", nil)
	var m api.Metrics
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &m) != nil || len(m.Counters) != 0 {
		t.Errorf("GET /v1/metrics = %d %q", resp.StatusCode, body)
	}
}
